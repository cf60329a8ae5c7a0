package transport

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

// wireInjector builds the wire runtime one rank process would run.
func wireInjector(t *testing.T, plan Plan) *Injector {
	t.Helper()
	in, err := NewInjector(plan, 4, Wire)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// wrapped reports whether wrap interposed the fault layer on a src→dst
// connection.
func wrapped(in *Injector, src, dst int) bool {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	_, ok := in.wrap(a, src, dst).(*faultConn)
	return ok
}

// write decides one wire write of n bytes by rank toward dst.
func write(in *Injector, rank, dst, n int) (Action, Verdict, bool) {
	v, fire := in.Decide(rank, dst, 0, false, n)
	return v.Action, v, fire
}

func TestWireFaultScoping(t *testing.T) {
	plan := Plan{Seed: 1, Rules: []Rule{
		{Action: Drop, Rank: 0, Dst: DstRank(1)},
	}}
	in := wireInjector(t, plan)
	if wrapped(in, 1, 0) {
		t.Fatalf("rank 1 wrapped a connection for a plan scoped to rank 0's writes")
	}
	// A connection toward a peer no rule matches must stay unwrapped: the
	// fault layer's fast path is its absence.
	if wrapped(in, 0, 2) {
		t.Fatalf("connection toward unmatched dst was wrapped")
	}
	if _, _, fire := write(in, 0, 2, 100); fire {
		t.Fatalf("write toward unmatched dst fired")
	}
	if a, _, fire := write(in, 0, 1, 100); !fire || a != Drop {
		t.Fatalf("write toward matched dst got action %v (fired %v), want drop", a, fire)
	}
	var none *Injector
	if wrapped(none, 0, 1) {
		t.Fatal("nil injector wrapped a connection")
	}
	if wrapped(wireInjector(t, Plan{Seed: 3}), 0, 1) {
		t.Fatal("empty plan wrapped a connection")
	}
}

func TestWireFaultAnyRank(t *testing.T) {
	plan := Plan{Seed: 9, Rules: []Rule{{Action: Drop, Rank: AnyRank}}}
	for rank := 0; rank < 3; rank++ {
		in := wireInjector(t, plan)
		if !wrapped(in, rank, 0) {
			t.Fatalf("rank %d: AnyRank rule not applied", rank)
		}
		if a, _, fire := write(in, rank, 0, 10); !fire || a != Drop {
			t.Fatalf("rank %d: got %v, want drop", rank, a)
		}
	}
}

// After lets writes through before arming, Count caps firings: the gates
// that make a lossy plan deterministically survivable.
func TestWireFaultGating(t *testing.T) {
	in := wireInjector(t, Plan{Seed: 2, Rules: []Rule{
		{Action: Drop, Rank: 0, After: 3, Count: 2},
	}})
	var got []bool
	for i := 0; i < 8; i++ {
		_, _, fire := write(in, 0, 1, 64)
		got = append(got, fire)
	}
	want := []bool{false, false, false, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("write %d: fired %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// Equal seeds and equal write sequences must fault identically — the
// whole point of seeding is a reproducible failure schedule.
func TestWireFaultDeterminism(t *testing.T) {
	mk := func() *Injector {
		return wireInjector(t, Plan{Seed: 77, Rules: []Rule{
			{Action: Corrupt, Rank: 0, Prob: 0.3, Count: 5},
		}})
	}
	a, b := mk(), mk()
	for i := 0; i < 50; i++ {
		_, va, fa := write(a, 0, 1, 256)
		_, vb, fb := write(b, 0, 1, 256)
		if fa != fb || len(va.Flips) != len(vb.Flips) {
			t.Fatalf("write %d: verdicts diverged: %+v vs %+v", i, va, vb)
		}
		for j := range va.Flips {
			if va.Flips[j] != vb.Flips[j] {
				t.Fatalf("write %d: flip positions diverged", i)
			}
			if va.Flips[j] < 0 || va.Flips[j] >= 256 {
				t.Fatalf("write %d: flip position %d out of buffer", i, va.Flips[j])
			}
		}
	}
	// A different rank draws a different stream from the same plan.
	c := wireInjector(t, Plan{Seed: 77, Rules: []Rule{
		{Action: Corrupt, Rank: AnyRank, Prob: 0.3, Count: 5},
	}})
	same := true
	a2 := mk()
	for i := 0; i < 50; i++ {
		_, _, f0 := write(a2, 0, 1, 256)
		_, _, f1 := write(c, 1, 0, 256)
		if f0 != f1 {
			same = false
		}
	}
	if same {
		t.Fatal("ranks 0 and 1 drew identical fault schedules from one seed")
	}
}

// A partition is a time window, not a counter: once armed it swallows
// every matching write regardless of the gates, then heals for good.
func TestWirePartitionWindow(t *testing.T) {
	in := wireInjector(t, Plan{Seed: 4, Rules: []Rule{
		{Action: Partition, Rank: 0, After: 2, Duration: 60 * time.Millisecond},
	}})
	if a, _, fire := write(in, 0, 1, 8); fire {
		t.Fatalf("write 0: %v, want pass", a)
	}
	if a, _, fire := write(in, 0, 1, 8); fire {
		t.Fatalf("write 1: %v, want pass", a)
	}
	// Third write arms the window and is the first casualty.
	if a, _, fire := write(in, 0, 1, 8); !fire || a != Partition {
		t.Fatalf("write 2: %v, want partition (window open)", a)
	}
	if a, _, fire := write(in, 0, 1, 8); !fire || a != Partition {
		t.Fatalf("write 3: %v, want partition (window still open)", a)
	}
	time.Sleep(80 * time.Millisecond)
	if a, _, fire := write(in, 0, 1, 8); fire {
		t.Fatalf("post-heal write: %v, want pass", a)
	}
}

// Throttled writes serialize on the link: each write's release time stacks
// on the previous one's, like bytes queueing behind a slow NIC.
func TestWireThrottlePacing(t *testing.T) {
	in := wireInjector(t, Plan{Seed: 5, Rules: []Rule{
		{Action: Throttle, Rank: 0, Bandwidth: 1 << 20}, // 1 MiB/s
	}})
	perWrite := time.Duration(float64(64*1024) / float64(1<<20) * float64(time.Second)) // 62.5ms
	a1, v1, _ := write(in, 0, 1, 64*1024)
	a2, v2, _ := write(in, 0, 1, 64*1024)
	if a1 != Throttle || a2 != Throttle {
		t.Fatalf("actions %v, %v, want throttle", a1, a2)
	}
	sleep1, sleep2 := time.Until(v1.At), time.Until(v2.At)
	if sleep1 <= 0 || sleep1 > perWrite+10*time.Millisecond {
		t.Fatalf("first write pays %v, want ~%v", sleep1, perWrite)
	}
	if sleep2 < sleep1+perWrite/2 {
		t.Fatalf("second write pays %v after first's %v: writes are not serializing", sleep2, sleep1)
	}
}

func TestWireFaultActionString(t *testing.T) {
	want := map[Action]string{
		Delay: "delay", Drop: "drop", Duplicate: "duplicate", Corrupt: "corrupt",
		Crash: "crash", Hang: "hang", Partition: "partition", Throttle: "throttle",
		Reset: "reset",
	}
	for a, s := range want {
		if a.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
	if got := Action(42).String(); got != "action(42)" {
		t.Fatalf("unknown action names itself %q", got)
	}
}

// op is one operation fed to both engines: a send or write by rank toward
// dst, or a receive (recv, dst -1), of n bytes.
type op struct {
	rank, dst, tag int
	recv           bool
	n              int
}

// messageOps is a seeded sequence of message-layer operations over a world
// of size ranks: user and internal tags, sends and receives, empty and
// non-empty payloads.
func messageOps(seed int64, size, count int) []op {
	rng := rand.New(rand.NewSource(seed))
	tags := []int{-3, 0, 1, 2, 5}
	sizes := []int{0, 1, 17, 4096}
	ops := make([]op, count)
	for i := range ops {
		o := op{rank: rng.Intn(size), dst: rng.Intn(size), tag: tags[rng.Intn(len(tags))], n: sizes[rng.Intn(len(sizes))]}
		if rng.Intn(4) == 0 {
			o.recv, o.dst, o.n = true, -1, 0
		}
		ops[i] = o
	}
	return ops
}

// wireOps is a seeded sequence of one rank process's non-empty writes.
func wireOps(seed int64, rank, size, count int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, count)
	for i := range ops {
		dst := rng.Intn(size - 1)
		if dst >= rank {
			dst++
		}
		ops[i] = op{rank: rank, dst: dst, n: 1 + rng.Intn(4096)}
	}
	return ops
}

// Every rule shape the message-layer sweeps and tests use. Partitions that
// heal mid-run are stretched to an hour here so a slow machine cannot land
// one op on the heal boundary; TestFaultDifferentialPartitionHeals covers
// healing.
var messageShapes = map[string][]Rule{
	"drop-requests":      {{Action: Drop, Rank: AnyRank, Tag: 1, Count: 4}},
	"duplicate-requests": {{Action: Duplicate, Rank: AnyRank, Tag: 1, Count: 4}},
	"corrupt-responses":  {{Action: Corrupt, Rank: AnyRank, Tag: 2, Count: 3}},
	"delay-responses":    {{Action: Delay, Rank: AnyRank, Tag: 2, Count: 6, Delay: time.Second}},
	"lossy-mix": {
		{Action: Drop, Rank: AnyRank, Tag: 1, Count: 2},
		{Action: Duplicate, Rank: AnyRank, Tag: 1, Count: 2},
		{Action: Corrupt, Rank: AnyRank, Tag: 2, Count: 2},
	},
	"after-count": {{Action: Drop, Rank: AnyRank, Tag: 2, After: 4, Count: 2}},
	"gating":      {{Action: Drop, Rank: 1, Tag: 5, After: 2, Count: 3}},
	"crash-under-loss": {
		{Action: Crash, Rank: 0, Tag: 2, After: 2},
		{Action: Drop, Rank: AnyRank, Tag: 1, Count: 2},
		{Action: Duplicate, Rank: AnyRank, Tag: 2, Count: 2},
	},
	"crash-on-recv":    {{Action: Crash, Rank: 1, Tag: 1, OnRecv: true}},
	"hang":             {{Action: Hang, Rank: 0, Tag: 2, After: 10, Count: 1}},
	"partition":        {{Action: Partition, Rank: 0, Tag: 2, Duration: time.Hour}},
	"partition-link":   {{Action: Partition, Rank: 0, Dst: DstRank(1), Tag: AnyTag, Duration: time.Hour}},
	"partition-zero":   {{Action: Partition, Rank: 0, Tag: 2}},
	"throttle":         {{Action: Throttle, Rank: 0, Tag: 2, Bandwidth: 200e3}},
	"dst-scoped":       {{Action: Drop, Rank: 0, Dst: DstRank(1), Tag: AnyTag}},
	"prob":             {{Action: Drop, Rank: AnyRank, Tag: AnyTag, Prob: 0.5}},
	"prob-corrupt":     {{Action: Corrupt, Rank: AnyRank, Tag: AnyTag, Prob: 0.3, Count: 40}},
	"corrupt-never":    {{Action: Corrupt, Rank: AnyRank, Tag: AnyTag, After: 1 << 30}},
	"delay-link":       {{Action: Delay, Rank: 0, Dst: DstRank(1), Tag: 1, Delay: time.Second}},
	"corrupt-any-then": {{Action: Corrupt, Rank: AnyRank, Tag: AnyTag, Count: 5}, {Action: Drop, Rank: 2, Tag: AnyTag}},
}

// Every rule shape the wire sweeps and tests use (a wire rule has no tag;
// probabilistic wire rules are left out, see TestFaultDifferentialWire).
var wireShapes = map[string][]Rule{
	"conn-reset-midstream": {{Action: Reset, Rank: 0, After: 8, Count: 2}},
	"corrupt-on-wire":      {{Action: Corrupt, Rank: 1, After: 6, Count: 2}},
	"throttled-link":       {{Action: Throttle, Rank: AnyRank, After: 2, Bandwidth: 256 << 10}},
	"partition-then-heal":  {{Action: Partition, Rank: 0, After: 6, Count: 1, Duration: time.Hour}},
	"kill-under-wire":      {{Action: Corrupt, Rank: 1, After: 5, Count: 1}},
	"reset-link":           {{Action: Reset, Rank: 0, Dst: DstRank(1), After: 5, Count: 1}},
	"corrupt-link":         {{Action: Corrupt, Rank: 0, Dst: DstRank(1), After: 3, Count: 1}},
	"drop-link":            {{Action: Drop, Rank: 0, Dst: DstRank(1), After: 10, Count: 1}},
	"drop-any":             {{Action: Drop, Rank: AnyRank}},
	"delay":                {{Action: Delay, Rank: AnyRank, Count: 3, Delay: time.Second}},
	"mixed": {
		{Action: Corrupt, Rank: AnyRank, Dst: DstRank(2), After: 1, Count: 2},
		{Action: Drop, Rank: 0, After: 4, Count: 3},
		{Action: Reset, Rank: AnyRank, After: 20, Count: 1},
	},
}

// TestFaultDifferentialMessages: over seeded op sequences, the Injector at
// the message layer fires on exactly the ops the old message engine did,
// with the same action and the same corrupt positions (both draw from the
// same per-rank stream).
func TestFaultDifferentialMessages(t *testing.T) {
	const size = 4
	for name, rules := range messageShapes {
		for seed := int64(1); seed <= 3; seed++ {
			plan := Plan{Seed: seed, Rules: rules}
			ref := newRefChan(plan, size)
			in, err := NewInjector(plan, size, Messages)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fires := 0
			for i, o := range messageOps(seed, size, 600) {
				rule, _, want := ref.decide(o.rank, o.dst, o.tag, o.recv)
				var wantFlips []int
				if want && rule.Action == Corrupt {
					wantFlips = ref.corrupt(o.rank, o.n)
				}
				v, got := in.Decide(o.rank, o.dst, o.tag, o.recv, o.n)
				if got != want || (got && v.Action != rule.Action) {
					t.Fatalf("%s seed %d op %d %+v: fired %v (%v), old engine %v (%v)",
						name, seed, i, o, got, v.Action, want, rule.Action)
				}
				if len(v.Flips) != len(wantFlips) {
					t.Fatalf("%s seed %d op %d: flips %v, old engine %v", name, seed, i, v.Flips, wantFlips)
				}
				for j := range wantFlips {
					if v.Flips[j] != wantFlips[j] {
						t.Fatalf("%s seed %d op %d: flips %v, old engine %v", name, seed, i, v.Flips, wantFlips)
					}
				}
				if got {
					fires++
				}
			}
			if fires == 0 && name != "corrupt-never" {
				t.Errorf("%s seed %d: no op fired; the shape is not exercised", name, seed)
			}
		}
	}
}

// TestFaultDifferentialWire: per rank process, the Injector at the wire
// fires on exactly the writes the old wire engine did, with the same
// effect (the old engine reported an open partition as a drop). Corrupt
// positions come from the message layer's stream now, so only their count
// range and bounds are checked; for the same reason a probabilistic wire
// rule fires on different (equally seeded) writes and is not compared.
func TestFaultDifferentialWire(t *testing.T) {
	const size = 4
	for name, rules := range wireShapes {
		fires := 0
		for seed := int64(1); seed <= 3; seed++ {
			plan := Plan{Seed: seed, Rules: rules}
			for rank := 0; rank < size; rank++ {
				ref := newRefWire(plan, rank)
				in := wireInjector(t, plan)
				for i, o := range wireOps(seed*10+int64(rank), rank, size, 300) {
					want := ref.decide(o.dst, o.n)
					a, v, got := write(in, rank, o.dst, o.n)
					if a == Partition {
						a = Drop
					}
					if got != want.fired || (got && a != want.action) {
						t.Fatalf("%s seed %d rank %d op %d %+v: fired %v (%v), old engine %v (%v)",
							name, seed, rank, i, o, got, a, want.fired, want.action)
					}
					if a == Corrupt {
						if len(v.Flips) < 1 || len(v.Flips) > 4 {
							t.Fatalf("%s: %d flips, want 1-4", name, len(v.Flips))
						}
						for _, p := range v.Flips {
							if p < 0 || p >= o.n {
								t.Fatalf("%s: flip %d outside a %d-byte write", name, p, o.n)
							}
						}
					}
					if got {
						fires++
					}
				}
			}
		}
		if fires == 0 {
			t.Errorf("%s: no write fired; the shape is not exercised", name)
		}
	}
}

// Both old engines healed a partition Duration after its first armed
// match; the Injector does too, at both layers.
func TestFaultDifferentialPartitionHeals(t *testing.T) {
	const window = 60 * time.Millisecond
	plan := Plan{Seed: 1, Rules: []Rule{{Action: Partition, Rank: 0, After: 2, Duration: window}}}
	chanRef, wireRef := newRefChan(plan, 2), newRefWire(plan, 0)
	msg, err := NewInjector(plan, 2, Messages)
	if err != nil {
		t.Fatal(err)
	}
	wire := wireInjector(t, plan)
	step := func(when string) {
		_, _, c := chanRef.decide(0, 1, 0, false)
		w := wireRef.decide(1, 8)
		_, m := msg.Decide(0, 1, 0, false, 8)
		_, _, x := write(wire, 0, 1, 8)
		if c != m || w.fired != x || c != w.fired {
			t.Fatalf("%s: old message %v, new message %v, old wire %v, new wire %v", when, c, m, w.fired, x)
		}
	}
	for i := 0; i < 5; i++ {
		step("inside the window")
	}
	time.Sleep(window + 40*time.Millisecond)
	for i := 0; i < 3; i++ {
		step("after the heal")
	}
}

// Documented change 1: a Partition with zero Duration never heals. The
// message engine already said so; the old wire engine healed it at once,
// dropping only the write that opened it.
func TestFaultDifferentialPartitionZeroDuration(t *testing.T) {
	plan := Plan{Seed: 1, Rules: []Rule{{Action: Partition, Rank: 0, After: 1}}}
	chanRef, wireRef := newRefChan(plan, 2), newRefWire(plan, 0)
	wire := wireInjector(t, plan)
	want := []bool{false, true, true, true, true}
	oldWire := []bool{false, true, false, false, false}
	for i := range want {
		_, _, c := chanRef.decide(0, 1, 0, false)
		w := wireRef.decide(1, 8).fired
		_, _, x := write(wire, 0, 1, 8)
		if c != want[i] || x != want[i] {
			t.Fatalf("write %d: old message engine %v, Injector %v, want %v", i, c, x, want[i])
		}
		if w != oldWire[i] {
			t.Fatalf("write %d: old wire engine %v, want %v (it healed a zero window at once)", i, w, oldWire[i])
		}
	}
}

// Documented change 2: a throttle paces each src→dst link on its own. The
// message engine already did; the old wire engine paced per rule, so a
// write toward one peer queued behind writes toward another.
func TestFaultDifferentialThrottlePerLink(t *testing.T) {
	const n, bw = 64 << 10, 1 << 20
	cost := time.Duration(float64(n) / bw * float64(time.Second))
	plan := Plan{Seed: 1, Rules: []Rule{{Action: Throttle, Rank: AnyRank, Bandwidth: bw}}}
	wireRef := newRefWire(plan, 0)
	wireRef.decide(1, n)
	if wireRef.decide(2, n).sleep < cost+cost/2 {
		t.Fatal("old wire engine did not queue a write to peer 2 behind one to peer 1")
	}
	chanRef := newRefChan(plan, 3)
	chanRef.throttleSlot(0, 0, 1, n, bw)
	if at := chanRef.throttleSlot(0, 0, 2, n, bw); time.Until(at) > cost+cost/2 {
		t.Fatal("old message engine queued a message to peer 2 behind one to peer 1")
	}
	for _, at := range []Layer{Messages, Wire} {
		in, err := NewInjector(plan, 3, at)
		if err != nil {
			t.Fatal(err)
		}
		v1, _ := in.Decide(0, 1, 0, false, n)
		v2, _ := in.Decide(0, 2, 0, false, n)
		v3, _ := in.Decide(0, 1, 0, false, n)
		if d := time.Until(v2.At); d > cost+cost/2 || v2.After != nil {
			t.Fatalf("%v layer: link 0→2 waits %v behind link 0→1", at, d)
		}
		if time.Until(v3.At) < cost+cost/2 || v3.After != v1.Done {
			t.Fatalf("%v layer: second write on link 0→1 did not queue behind the first", at)
		}
	}
}

// Documented change 3: a throttle without a positive Bandwidth is rejected
// when the plan is attached. The old message engine paced it at 1 B/s; the
// old wire engine skipped it silently.
func TestFaultDifferentialThrottleBandwidth(t *testing.T) {
	plan := Plan{Seed: 1, Rules: []Rule{{Action: Throttle, Rank: AnyRank}}}
	if _, _, fired := newRefChan(plan, 2).decide(0, 1, 0, false); !fired {
		t.Fatal("old message engine did not fire a zero-bandwidth throttle")
	}
	if at := newRefChan(plan, 2).throttleSlot(0, 0, 1, 8, 0); time.Until(at) < 7*time.Second {
		t.Fatal("old message engine did not pace a zero-bandwidth throttle at 1 B/s")
	}
	if newRefWire(plan, 0).decide(1, 8).fired {
		t.Fatal("old wire engine fired a zero-bandwidth throttle")
	}
	for _, at := range []Layer{Messages, Wire} {
		_, err := NewInjector(plan, 2, at)
		var re *RuleError
		if !errors.As(err, &re) || re.Index != 0 || re.Action != Throttle || re.Layer != at {
			t.Fatalf("%v layer: err %v, want a *RuleError for rule 0", at, err)
		}
	}
}
