package mpi

import (
	"sync"
	"testing"

	"lowfive/internal/transport"
)

// TestIntactTruthTable pins which worlds report Intact: every world
// except one whose fault plan can flip payload bytes.
func TestIntactTruthTable(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want bool
	}{
		{"no-plan", nil, true},
		{"empty-plan", []Option{WithFaultPlan(FaultPlan{Seed: 1})}, true},
		{"drop-delay-duplicate", []Option{WithFaultPlan(FaultPlan{Seed: 1, Rules: []FaultRule{
			{Action: FaultDrop, Rank: AnyRank, Tag: AnyTag, Count: 1},
			{Action: FaultDelay, Rank: AnyRank, Tag: AnyTag},
			{Action: FaultDuplicate, Rank: AnyRank, Tag: AnyTag},
			{Action: FaultPartition, Rank: 0, Dst: DstRank(1), Tag: AnyTag},
			{Action: FaultThrottle, Rank: AnyRank, Tag: AnyTag, Bandwidth: 1 << 20},
			{Action: FaultCrash, Rank: 1, Tag: AnyTag, After: 1 << 30},
		}})}, true},
		{"corrupt-only", []Option{WithFaultPlan(FaultPlan{Seed: 1, Rules: []FaultRule{
			{Action: FaultCorrupt, Rank: AnyRank, Tag: AnyTag},
		}})}, false},
		// A corrupt rule that can never fire still makes the world
		// non-intact: the answer is a property of the plan, fixed at build
		// time, never of what has fired so far.
		{"corrupt-after-others-never-armed", []Option{WithFaultPlan(FaultPlan{Seed: 1, Rules: []FaultRule{
			{Action: FaultDrop, Rank: AnyRank, Tag: AnyTag, Count: 1},
			{Action: FaultCorrupt, Rank: 0, Tag: 71, After: 1 << 30},
		}})}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(2, tc.opts...)
			if got := w.Intact(); got != tc.want {
				t.Fatalf("World.Intact() = %v, want %v", got, tc.want)
			}
			ic := NewIntercomm(w, 7, []int{0}, []int{1}, 0, true)
			if got := ic.Intact(); got != tc.want {
				t.Fatalf("Intercomm.Intact() = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestDeliversOnceTruthTable pins which worlds report DeliversOnce: every
// world except one whose fault plan can deliver a message twice.
func TestDeliversOnceTruthTable(t *testing.T) {
	plan := func(rules ...FaultRule) []Option {
		return []Option{WithFaultPlan(FaultPlan{Seed: 1, Rules: rules})}
	}
	cases := []struct {
		name string
		opts []Option
		want bool
	}{
		{"no-plan", nil, true},
		{"empty-plan", plan(), true},
		{"drop", plan(FaultRule{Action: FaultDrop, Rank: AnyRank, Tag: AnyTag, Count: 1}), true},
		{"partition", plan(FaultRule{Action: FaultPartition, Rank: 0, Dst: DstRank(1), Tag: AnyTag}), true},
		{"corrupt", plan(FaultRule{Action: FaultCorrupt, Rank: AnyRank, Tag: AnyTag}), true},
		{"delay", plan(FaultRule{Action: FaultDelay, Rank: AnyRank, Tag: AnyTag}), true},
		{"duplicate", plan(FaultRule{Action: FaultDuplicate, Rank: AnyRank, Tag: AnyTag}), false},
		// Like Intact, the answer is a property of the plan fixed at build
		// time: a duplicate rule that can never fire still counts.
		{"duplicate-never-armed", plan(
			FaultRule{Action: FaultDrop, Rank: AnyRank, Tag: AnyTag, Count: 1},
			FaultRule{Action: FaultDuplicate, Rank: 0, Tag: 71, After: 1 << 30},
		), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(2, tc.opts...)
			if got := w.DeliversOnce(); got != tc.want {
				t.Fatalf("World.DeliversOnce() = %v, want %v", got, tc.want)
			}
			ic := NewIntercomm(w, 7, []int{0}, []int{1}, 0, true)
			if got := ic.DeliversOnce(); got != tc.want {
				t.Fatalf("Intercomm.DeliversOnce() = %v, want %v", got, tc.want)
			}
		})
	}
}

// sockWorlds forms a two-rank sock world over unix sockets, one World per
// rank, with wire as every rank's wire fault plan. The worlds close with
// the test.
func sockWorlds(t *testing.T, wire *FaultPlan) []*World {
	t.Helper()
	const size = 2
	coord, err := transport.NewCoordinator("unix", t.TempDir()+"/coord.sock", size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	worlds := make([]*World, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = NewSockWorld(SockWorldConfig{
				Network: "unix", Coord: coord.Addr(), Rank: r, Size: size, Wire: wire,
			})
		}(r)
	}
	wg.Wait()
	for r := range worlds {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		t.Cleanup(func() { worlds[r].Close() })
	}
	return worlds
}

// TestIntactSockWorldWithWireCorruption: wire corruption on a sock
// world is caught by the frame CRC-32C and resent by the session, so it
// leaves the world intact on every rank.
func TestIntactSockWorldWithWireCorruption(t *testing.T) {
	plan := &FaultPlan{Seed: 12, Rules: []FaultRule{{Action: FaultCorrupt, Rank: AnyRank}}}
	for r, w := range sockWorlds(t, plan) {
		if !w.Intact() {
			t.Errorf("rank %d: sock world with a corrupting wire plan reports not intact", r)
		}
	}
}

// TestDeliversOnceSockWorld: a sock session numbers its frames and drops
// any it has already delivered, so a sock world delivers once on every
// rank, also under a wire plan that corrupts or drops frames.
func TestDeliversOnceSockWorld(t *testing.T) {
	for _, tc := range []struct {
		name string
		wire *FaultPlan
	}{
		{"no-plan", nil},
		{"corrupt", &FaultPlan{Seed: 12, Rules: []FaultRule{{Action: FaultCorrupt, Rank: AnyRank}}}},
		{"drop", &FaultPlan{Seed: 12, Rules: []FaultRule{{Action: FaultDrop, Rank: AnyRank, Count: 1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for r, w := range sockWorlds(t, tc.wire) {
				if !w.DeliversOnce() {
					t.Errorf("rank %d: sock world reports it may deliver a message twice", r)
				}
			}
		})
	}
}
