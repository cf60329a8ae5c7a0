// Package backoff is the repo's one implementation of full-jitter
// exponential backoff, shared by the RPC client's wait after a shed reply
// and the sock transport's reconnect loop. Both face the same
// thundering-herd shape: many actors notice the same failure at the same
// instant, and a fixed retry interval keeps them synchronized forever
// after. Full jitter (each wait uniform in [base, cur], cur doubling to a
// ceiling) decorrelates them; see "Exponential Backoff And Jitter" (AWS
// Architecture Blog) for why full jitter beats equal or decorrelated
// jitter for contended retries.
package backoff

import (
	"sync/atomic"
	"time"
)

// seeds hands each Backoff a distinct xorshift seed. The golden-ratio
// increment keeps successive seeds well-separated in state space, so
// backoffs created in the same nanosecond still decorrelate.
var seeds atomic.Uint64

// Backoff draws jittered waits for one retry loop. The zero value is not
// usable; construct with New.
type Backoff struct {
	rng  uint64        // xorshift64 state, private per instance
	base time.Duration // floor of every wait, and the first ceiling
	cur  time.Duration // current ceiling, doubles per step
	max  time.Duration // hard ceiling
}

// New builds a backoff whose waits start uniform in [base, base] and grow
// to uniform in [base, max]. A non-positive base becomes 1ms, and a max
// below base is raised to base. extra perturbs the seed so callers with a natural
// identity (a peer rank, a call id) decorrelate even against instances
// created in the same nanosecond on another machine.
func New(base, max time.Duration, extra uint64) *Backoff {
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	seed := seeds.Add(0x9e3779b97f4a7c15) ^ uint64(time.Now().UnixNano()) ^ extra
	if seed == 0 {
		seed = 1
	}
	return &Backoff{rng: seed, base: base, cur: base, max: max}
}

// Next draws the jittered wait for this step and advances the ceiling,
// clamping to the time remaining before deadline (a zero deadline means no
// clamp). A non-positive return means the deadline has passed.
func (b *Backoff) Next(deadline time.Time) time.Duration {
	x := b.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	b.rng = x
	span := uint64(b.cur-b.base) + 1
	d := b.base + time.Duration(x%span)
	if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
	if !deadline.IsZero() {
		if remain := time.Until(deadline); remain < d {
			d = remain
		}
	}
	return d
}

// Ceiling reports the current jitter ceiling, exposed so tests can verify
// ramp and saturation without sleeping through a schedule.
func (b *Backoff) Ceiling() time.Duration { return b.cur }

// Max reports the hard ceiling waits saturate at.
func (b *Backoff) Max() time.Duration { return b.max }
