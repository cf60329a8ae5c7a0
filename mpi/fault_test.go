package mpi

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lowfive/internal/transport"
)

// newInjector builds the message-layer runtime a world of size ranks
// would attach for plan.
func newInjector(t *testing.T, plan FaultPlan, size int) *transport.Injector {
	t.Helper()
	in, err := transport.NewInjector(plan, size, transport.Messages)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestFaultDecideDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 42, Rules: []FaultRule{
		{Action: FaultDrop, Rank: AnyRank, Tag: AnyTag, Prob: 0.5},
	}}
	record := func() []bool {
		fs := newInjector(t, plan, 4)
		var out []bool
		for op := 0; op < 200; op++ {
			_, fired := fs.Decide(op%4, op%3, op%7, false, 8)
			out = append(out, fired)
		}
		return out
	}
	a, b := record(), record()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical replays", i)
		}
	}
	if fired := 0; true {
		for _, f := range a {
			if f {
				fired++
			}
		}
		if fired == 0 || fired == len(a) {
			t.Errorf("Prob=0.5 rule fired %d/%d times", fired, len(a))
		}
	}
}

func TestFaultRuleGating(t *testing.T) {
	fs := newInjector(t, FaultPlan{Rules: []FaultRule{
		{Action: FaultDrop, Rank: 1, Tag: 9, After: 2, Count: 3},
	}}, 2)
	// Wrong rank, wrong tag, recv-side, and internal tags never match.
	for i, args := range []struct {
		rank, tag int
		recv      bool
	}{{0, 9, false}, {1, 8, false}, {1, 9, true}, {1, -5, false}} {
		if _, fired := fs.Decide(args.rank, 0, args.tag, args.recv, 8); fired {
			t.Errorf("case %d: rule fired on non-matching op", i)
		}
	}
	// Matching ops: 2 pass (After), 3 fire (Count), then the rule is spent.
	var got []bool
	for i := 0; i < 8; i++ {
		_, fired := fs.Decide(1, 0, 9, false, 8)
		got = append(got, fired)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op sequence %v, want %v", got, want)
		}
	}
}

func TestFaultDropThenRedelivery(t *testing.T) {
	// The first tag-5 message is dropped; the receiver sees only the second.
	plan := FaultPlan{Rules: []FaultRule{{Action: FaultDrop, Rank: 0, Tag: 5, Count: 1}}}
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("lost"))
			c.Send(1, 5, []byte("kept"))
		} else {
			data, _ := c.Recv(0, 5)
			if string(data) != "kept" {
				t.Errorf("got %q, want the redelivered payload", data)
			}
		}
	}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultDuplicateDeliversTwice(t *testing.T) {
	plan := FaultPlan{Rules: []FaultRule{{Action: FaultDuplicate, Rank: 0, Tag: 3, Count: 1}}}
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []byte("once"))
		} else {
			first, _ := c.Recv(0, 3)
			second, _ := c.Recv(0, 3)
			if string(first) != "once" || string(second) != "once" {
				t.Errorf("got %q and %q", first, second)
			}
		}
	}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultCorruptCopiesPayload(t *testing.T) {
	plan := FaultPlan{Seed: 7, Rules: []FaultRule{{Action: FaultCorrupt, Rank: 0, Tag: 2, Count: 1}}}
	original := bytes.Repeat([]byte{0xaa}, 64)
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 2, original)
		} else {
			data, _ := c.Recv(0, 2)
			if bytes.Equal(data, bytes.Repeat([]byte{0xaa}, 64)) {
				t.Error("payload arrived unflipped")
			}
		}
	}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	// The sender's buffer must be untouched: corruption copies.
	if !bytes.Equal(original, bytes.Repeat([]byte{0xaa}, 64)) {
		t.Error("sender buffer was modified in place")
	}
}

func TestFaultDelayDoesNotStallSender(t *testing.T) {
	// Regression: FaultDelay models link latency, not head-of-line blocking.
	// A delayed message to one peer must neither stall the sender nor stall
	// delivery to a different peer; the delayed message itself still arrives
	// late.
	const d = 250 * time.Millisecond
	plan := FaultPlan{Rules: []FaultRule{
		{Action: FaultDelay, Rank: 0, Dst: DstRank(1), Tag: 1, Delay: d},
	}}
	err := Run(3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			start := time.Now()
			c.Send(1, 1, []byte("slow"))
			c.Send(2, 1, []byte("fast"))
			if took := time.Since(start); took >= d {
				t.Errorf("sends took %v, want well under the %v delay", took, d)
			}
		case 1:
			start := time.Now()
			data, _ := c.Recv(0, 1)
			if string(data) != "slow" {
				t.Errorf("rank 1 got %q", data)
			}
			if took := time.Since(start); took < d/2 {
				t.Errorf("delayed message arrived after %v, want about %v", took, d)
			}
		case 2:
			start := time.Now()
			data, _ := c.Recv(0, 1)
			if string(data) != "fast" {
				t.Errorf("rank 2 got %q", data)
			}
			if took := time.Since(start); took >= d {
				t.Errorf("undelayed peer waited %v — the delayed link blocked it", took)
			}
		}
	}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultPartitionDropsThenHeals(t *testing.T) {
	// A partition opens at the first armed match, swallows matching traffic
	// for its Duration, then heals: later sends pass through untouched.
	const d = 120 * time.Millisecond
	plan := FaultPlan{Rules: []FaultRule{
		{Action: FaultPartition, Rank: 0, Tag: 1, Duration: d},
	}}
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("severed")) // opens the partition, dropped
			time.Sleep(d + 50*time.Millisecond)
			c.Send(1, 1, []byte("healed"))
		} else {
			data, _ := c.Recv(0, 1)
			if string(data) != "healed" {
				t.Errorf("got %q, want only the post-heal payload", data)
			}
		}
	}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultPartitionAsymmetric(t *testing.T) {
	// Partitioning the 0→1 link must leave the reverse 1→0 link — and the
	// internal collective traffic a barrier rides on — fully working.
	plan := FaultPlan{Rules: []FaultRule{
		{Action: FaultPartition, Rank: 0, Dst: DstRank(1), Tag: AnyTag, Duration: time.Hour},
	}}
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("into the void"))
			c.Barrier()
			data, _ := c.Recv(1, 6)
			if string(data) != "reverse" {
				t.Errorf("reverse link delivered %q", data)
			}
		} else {
			c.Barrier() // after this, rank 0's send has been swallowed
			if _, ok := c.Iprobe(0, 5); ok {
				t.Error("partitioned link delivered a message")
			}
			c.Send(0, 6, []byte("reverse"))
		}
	}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultRuleDstScoping(t *testing.T) {
	// A Dst-scoped rule fires only on traffic to that rank: the same tag to
	// any other destination must pass untouched.
	plan := FaultPlan{Rules: []FaultRule{
		{Action: FaultDrop, Rank: 0, Dst: DstRank(1), Tag: AnyTag},
	}}
	err := Run(3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 5, []byte("dropped"))
			c.Send(2, 5, []byte("kept"))
			c.Barrier()
		case 1:
			c.Barrier()
			if _, ok := c.Iprobe(0, 5); ok {
				t.Error("Dst-scoped drop let traffic to rank 1 through")
			}
		case 2:
			data, _ := c.Recv(0, 5)
			if string(data) != "kept" {
				t.Errorf("rank 2 got %q", data)
			}
			c.Barrier()
		}
	}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultThrottleProportionalFIFO(t *testing.T) {
	// A throttled link delivers big messages proportionally late, in FIFO
	// order, without stalling the sender.
	const bw = 100e3 // bytes/s: a 10 KiB message is ~100ms of link time
	plan := FaultPlan{Rules: []FaultRule{
		{Action: FaultThrottle, Rank: 0, Tag: 1, Bandwidth: bw},
	}}
	big := bytes.Repeat([]byte{1}, 10<<10)
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			start := time.Now()
			c.Send(1, 1, big)
			c.Send(1, 1, []byte("second"))
			if took := time.Since(start); took >= 50*time.Millisecond {
				t.Errorf("throttled sends stalled the sender for %v", took)
			}
		} else {
			start := time.Now()
			first, _ := c.Recv(0, 1)
			if len(first) != len(big) {
				t.Errorf("throttled link reordered: got %d bytes first", len(first))
			}
			if took := time.Since(start); took < 50*time.Millisecond {
				t.Errorf("10 KiB at 100 KB/s arrived in %v, want ~100ms", took)
			}
			second, _ := c.Recv(0, 1)
			if string(second) != "second" {
				t.Errorf("second message was %q", second)
			}
		}
	}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultCrashPropagatesToBlockedPeer(t *testing.T) {
	// Rank 1 dies at its first tag-7 send; rank 0, blocked receiving from
	// it, gets a RankFailedError instead of deadlocking. The world itself
	// completes without error.
	plan := FaultPlan{Rules: []FaultRule{{Action: FaultCrash, Rank: 1, Tag: 7}}}
	w := NewWorld(2, WithFaultPlan(plan), WithWatchdog(10*time.Second))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 7, []byte("never arrives"))
			t.Error("rank 1 survived its own crash")
			return
		}
		defer func() {
			rec := recover()
			rf, ok := rec.(*RankFailedError)
			if !ok {
				t.Errorf("recovered %v, want *RankFailedError", rec)
				return
			}
			if rf.Rank != 1 {
				t.Errorf("failed rank = %d, want 1", rf.Rank)
			}
		}()
		c.Recv(1, 7)
		t.Error("Recv returned from a crashed peer")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !w.RankFailed(1) || w.RankFailed(0) {
		t.Errorf("failed flags: rank0=%v rank1=%v", w.RankFailed(0), w.RankFailed(1))
	}
	if got := w.FailedRanks(); len(got) != 1 || got[0] != 1 {
		t.Errorf("FailedRanks() = %v, want [1]", got)
	}
}

func TestFaultCrashReleasesFailedChan(t *testing.T) {
	plan := FaultPlan{Rules: []FaultRule{{Action: FaultCrash, Rank: 0, Tag: 4, OnRecv: true}}}
	w := NewWorld(2, WithFaultPlan(plan))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 4) // crashes before blocking
			t.Error("rank 0 survived its own crash")
			return
		}
		select {
		case <-w.FailedChan(0):
		case <-time.After(5 * time.Second):
			t.Error("FailedChan(0) never closed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSkipsCrashedRank(t *testing.T) {
	// After rank 2 crashes, the survivors' barrier must still complete.
	plan := FaultPlan{Rules: []FaultRule{{Action: FaultCrash, Rank: 2, Tag: 6}}}
	w := NewWorld(3, WithFaultPlan(plan), WithWatchdog(10*time.Second))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			c.Send(0, 6, nil)
			return
		}
		if c.Rank() == 0 {
			func() {
				defer func() {
					if _, ok := recover().(*RankFailedError); !ok {
						t.Error("rank 0 did not observe the crash")
					}
				}()
				c.Recv(2, 6)
			}()
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockErrorNamesBlockedPeer(t *testing.T) {
	// Both ranks block on receives nobody will satisfy; the watchdog report
	// must say who each rank was waiting for, and on what tag.
	err := Run(2, func(c *Comm) {
		peer := 1 - c.Rank()
		defer func() { recover() }() // aborted by the watchdog
		c.Recv(peer, 40+c.Rank())
	}, WithWatchdog(150*time.Millisecond))
	if err == nil {
		t.Fatal("deadlocked world returned nil error")
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("error %v does not unwrap to *DeadlockError", err)
	}
	if dl.Blocked != 2 || len(dl.Ranks) != 2 {
		t.Fatalf("Blocked=%d Ranks=%d, want 2/2", dl.Blocked, len(dl.Ranks))
	}
	for _, p := range dl.Ranks {
		if !p.Blocked {
			t.Errorf("rank %d not reported blocked", p.Rank)
			continue
		}
		wantSrc, wantTag := 1-p.Rank, 40+p.Rank
		if p.WaitSrc != wantSrc || p.WaitTag != wantTag {
			t.Errorf("rank %d waiting on src=%d tag=%d, want src=%d tag=%d",
				p.Rank, p.WaitSrc, p.WaitTag, wantSrc, wantTag)
		}
		if p.BlockedFor <= 0 {
			t.Errorf("rank %d BlockedFor = %v", p.Rank, p.BlockedFor)
		}
	}
}

func TestCleanPathDeliversByReference(t *testing.T) {
	// With a fault plan attached but no matching rule, the receiver must see
	// the sender's backing array — the clean path makes zero copies.
	plan := FaultPlan{Rules: []FaultRule{{Action: FaultDrop, Rank: 0, Tag: 99, Count: 1}}}
	sent := []byte("shared-backing")
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, sent)
		} else {
			data, _ := c.Recv(0, 5)
			if &data[0] != &sent[0] {
				t.Errorf("clean path copied the payload")
			}
		}
	}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
}

func TestCleanPathNoCopy(t *testing.T) {
	// A firing duplicate rule must alias the first delivery and copy only
	// the second (the no-rule clean path is covered by
	// TestCleanPathDeliversByReference).
	plan := FaultPlan{Rules: []FaultRule{{Action: FaultDuplicate, Rank: 0, Tag: 7, Count: 1}}}
	sent := []byte("zero-copy")
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, sent)
		} else {
			first, _ := c.Recv(0, 7)
			second, _ := c.Recv(0, 7)
			if &first[0] != &sent[0] {
				t.Errorf("duplicate rule copied the first delivery")
			}
			if &second[0] == &sent[0] {
				t.Errorf("duplicate rule aliased the second delivery")
			}
		}
	}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanRejectedAtAttach: a rule the layer cannot honour is rejected
// when the plan is attached — NewWorld panics with it (as with a bad size)
// and NewSockWorld returns it, before anything is dialled. Each case puts
// one bad rule behind a good one, so the error must name rule 1.
func TestFaultPlanRejectedAtAttach(t *testing.T) {
	good := FaultRule{Action: FaultDrop, Rank: AnyRank, Count: 1}
	cases := []struct {
		name string
		wire bool
		rule FaultRule
	}{
		{"message-reset", false, FaultRule{Action: FaultReset, Rank: 0}},
		{"message-unknown", false, FaultRule{Action: FaultAction(42), Rank: 0}},
		{"message-throttle-zero", false, FaultRule{Action: FaultThrottle, Rank: 0}},
		{"message-throttle-negative", false, FaultRule{Action: FaultThrottle, Rank: 0, Bandwidth: -1}},
		{"wire-duplicate", true, FaultRule{Action: FaultDuplicate, Rank: 0}},
		{"wire-crash", true, FaultRule{Action: FaultCrash, Rank: 0}},
		{"wire-hang", true, FaultRule{Action: FaultHang, Rank: 0}},
		{"wire-onrecv", true, FaultRule{Action: FaultDrop, Rank: 0, OnRecv: true}},
		{"wire-tag", true, FaultRule{Action: FaultDrop, Rank: 0, Tag: 3}},
		{"wire-anytag", true, FaultRule{Action: FaultDrop, Rank: 0, Tag: AnyTag}},
		{"wire-unknown", true, FaultRule{Action: FaultAction(42), Rank: 0}},
		{"wire-throttle-zero", true, FaultRule{Action: FaultThrottle, Rank: 0}},
	}
	check := func(t *testing.T, err error, want transport.Layer, rule FaultRule) {
		t.Helper()
		var re *transport.RuleError
		if !errors.As(err, &re) {
			t.Fatalf("err %v, want a *transport.RuleError", err)
		}
		if re.Layer != want || re.Index != 1 || re.Action != rule.Action || re.Reason == "" {
			t.Fatalf("got %+v, want rule 1 (%v) at the %v layer", re, rule.Action, want)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := FaultPlan{Seed: 1, Rules: []FaultRule{good, tc.rule}}
			cfg := SockWorldConfig{Network: "unix", Rank: 0, Size: 2}
			if tc.wire {
				cfg.Wire = &plan
				_, err := NewSockWorld(cfg)
				check(t, err, transport.Wire, tc.rule)
				return
			}
			_, err := NewSockWorld(cfg, WithFaultPlan(plan))
			check(t, err, transport.Messages, tc.rule)
			func() {
				defer func() {
					err, _ := recover().(error)
					check(t, err, transport.Messages, tc.rule)
				}()
				NewWorld(2, WithFaultPlan(plan))
			}()
		})
	}
	// Every other action attaches at the message layer.
	for a := FaultDelay; a <= FaultThrottle; a++ {
		NewWorld(2, WithFaultPlan(FaultPlan{Rules: []FaultRule{{Action: a, Bandwidth: 1}}}))
	}
}
