package backoff

import (
	"testing"
	"time"
)

const (
	base = 200 * time.Microsecond
	top  = 25 * time.Millisecond
)

// far is a deadline no test step reaches, so waits are not clamped.
var far = time.Now().Add(time.Hour)

// Many actors that observe the same failure in the same instant and start
// backing off together must not stay synchronized: with a fixed interval
// every one of them would fire at identical multiples of base.
func TestBackoffDesynchronizesStorm(t *testing.T) {
	const actors = 32
	const steps = 6
	last := map[int64]int{}
	for i := 0; i < actors; i++ {
		b := New(base, top, 0)
		var at time.Duration
		for s := 0; s < steps; s++ {
			d := b.Next(far)
			if d < base || d > top {
				t.Fatalf("actor %d step %d: wait %v outside [%v, %v]", i, s, d, base, top)
			}
			at += d
		}
		// Quantize the final fire time to base — the resolution at which a
		// synchronized herd would collide.
		last[int64(at/base)]++
	}
	if len(last) < actors/2 {
		t.Fatalf("storm still synchronized: %d actors share %d distinct fire buckets", actors, len(last))
	}
	for bucket, n := range last {
		if n > actors/4 {
			t.Fatalf("storm still synchronized: %d of %d actors fire in bucket %d", n, actors, bucket)
		}
	}
}

// The ceiling starts at base, doubles each step, and saturates at max; no
// wait ever exceeds the ceiling it was drawn under.
func TestBackoffRampAndCap(t *testing.T) {
	b := New(base, top, 0)
	if b.Max() != top {
		t.Fatalf("cap = %v, want %v", b.Max(), top)
	}
	want := base
	for i := 0; i < 20; i++ {
		if b.Ceiling() != want {
			t.Fatalf("step %d: ceiling %v, want %v", i, b.Ceiling(), want)
		}
		if d := b.Next(far); d > want {
			t.Fatalf("step %d: wait %v above ceiling %v", i, d, want)
		}
		if want *= 2; want > top {
			want = top
		}
	}
	if b.Ceiling() != top {
		t.Fatalf("after 20 steps ceiling = %v, want saturated at %v", b.Ceiling(), top)
	}
	// A non-positive base becomes 1ms, and a max below base is raised to it.
	if d := New(0, 0, 0); d.Ceiling() != time.Millisecond || d.Max() != time.Millisecond {
		t.Fatalf("New(0, 0) ceiling %v max %v, want 1ms both", d.Ceiling(), d.Max())
	}
}

// A wait never overshoots the deadline it is given: backoff paces a retry
// loop, it does not extend it.
func TestBackoffClampsToDeadline(t *testing.T) {
	b := New(base, top, 0)
	for i := 0; i < 20; i++ {
		b.Next(far) // saturate, so the drawn wait would be large
	}
	remain := 50 * time.Microsecond
	if d := b.Next(time.Now().Add(remain)); d > remain {
		t.Fatalf("wait %v overshoots remaining deadline %v", d, remain)
	}
	if d := b.Next(time.Now().Add(-time.Second)); d > 0 {
		t.Fatalf("wait %v past a deadline already spent, want non-positive", d)
	}
}
