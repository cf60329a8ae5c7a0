package rpc

import (
	"fmt"
	"testing"
	"time"

	"lowfive/internal/buf"
	"lowfive/mpi"
)

// TestDedupOnlyWhatCanBeDuplicated: clients without a Timeout never
// re-send, so the server dedups their requests only on a world that can
// copy a message. With every request duplicated, Call, CallAll, a one-frame
// stream and Notify each dispatch the handler exactly once, and each call
// returns its first and only dispatch's answer. A stream's request is held
// open across its duplicate, which gets a pending reply while the stream is
// in flight (once Close forgets the seq, a late duplicate re-dispatches by
// design; see TestStreamRecoversDuplicatedRequest). On a world that
// delivers once, the same traffic leaves the servers holding no dedup
// state at all.
func TestDedupOnlyWhatCanBeDuplicated(t *testing.T) {
	for _, world := range []struct {
		name string
		opts []mpi.Option
		dup  bool
	}{
		{"delivers-once", nil, false},
		{"duplicating", []mpi.Option{mpi.WithFaultPlan(mpi.FaultPlan{Seed: 3, Rules: []mpi.FaultRule{
			{Action: mpi.FaultDuplicate, Rank: mpi.AnyRank, Tag: TagRequest},
		}})}, true},
	} {
		t.Run(world.name, func(t *testing.T) {
			pool := buf.NewPool(1024, 4)
			dispatched := [2]map[string]int{{}, {}}
			tracked := [2]int{}
			serve := func(p *mpi.Proc) {
				rank := p.Task.Rank()
				s := &Server{IC: p.Intercomm("client")}
				var open *Stream
				for {
					src, seq, req := s.Recv()
					body := string(req)
					dispatched[rank][body]++
					if open != nil {
						// Close a held stream only now: its request's
						// duplicate, queued right behind it, has reached
						// Recv while the stream was in flight.
						open.Close()
						open = nil
					}
					switch body {
					case "stream":
						open = s.NewStream(src, seq, pool)
						copy(open.Grab(len(body)), body)
					case "end":
						s.mu.Lock()
						for _, m := range s.seen {
							tracked[rank] += len(m)
						}
						s.mu.Unlock()
						s.Respond(src, seq, nil)
						return
					default:
						s.Respond(src, seq, []byte(fmt.Sprintf("%s#%d", body, dispatched[rank][body])))
					}
				}
			}
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
					c := &Client{IC: p.Intercomm("server")}
					if resp, err := c.Call(0, []byte("call")); err != nil || string(resp) != "call#1" {
						t.Errorf("Call = %q, %v; want call#1", resp, err)
					}
					resps, err := c.CallAll([]int{0, 1}, []byte("all"))
					if err != nil {
						t.Errorf("CallAll: %v", err)
					}
					for i, resp := range resps {
						if string(resp) != "all#1" {
							t.Errorf("CallAll answer from rank %d = %q, want all#1", i, resp)
						}
					}
					sc := c.StartStream(0, []byte("stream"))
					c.Notify(0, []byte("notify"))
					var frames []string
					if err := sc.Drain(func(payload []byte) error {
						frames = append(frames, string(payload))
						return nil
					}); err != nil {
						t.Errorf("Drain: %v", err)
					}
					if len(frames) != 1 || frames[0] != "stream" {
						t.Errorf("stream frames = %q, want one \"stream\"", frames)
					}
					for _, d := range []int{0, 1} {
						if _, err := c.Call(d, []byte("end")); err != nil {
							t.Errorf("end call to rank %d: %v", d, err)
						}
					}
				}},
				{Name: "server", Procs: 2, Main: serve},
			}, world.opts...)
			if err != nil {
				t.Fatal(err)
			}
			want := [2]map[string]int{
				{"call": 1, "all": 1, "stream": 1, "notify": 1, "end": 1},
				{"all": 1, "end": 1},
			}
			for rank := range dispatched {
				if fmt.Sprint(dispatched[rank]) != fmt.Sprint(want[rank]) {
					t.Errorf("rank %d dispatched %v, want each request once: %v", rank, dispatched[rank], want[rank])
				}
			}
			if world.dup && tracked == [2]int{} {
				t.Error("no dedup state on a duplicating world: the server skipped dedup for requests the world copies")
			}
			if !world.dup && tracked != [2]int{} {
				t.Errorf("servers track %v requests from clients that never re-send on a world that delivers once", tracked)
			}
			if n := pool.Outstanding(); n != 0 {
				t.Errorf("%d stream frames still outstanding", n)
			}
		})
	}
}

// TestDedupBoundedAllocFree: the dedup that still runs, for a client with a
// Timeout, holds at most 2*dedupWindow+1 entries per source over 10⁴
// requests, and a steady-state register and answer allocate nothing.
func TestDedupBoundedAllocFree(t *testing.T) {
	const calls = 10000
	maxHeld := 0
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			c := &Client{IC: p.Intercomm("server"), Timeout: time.Minute}
			for i := 0; i < calls; i++ {
				if _, err := c.Call(0, []byte{1}); err != nil {
					t.Error(err)
					return
				}
			}
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			s := &Server{IC: p.Intercomm("client")}
			for i := 0; i < calls; i++ {
				src, seq, req := s.Recv()
				if !s.dedups(seq) {
					t.Error("a request from a client with a Timeout skipped dedup")
				}
				s.mu.Lock()
				maxHeld = max(maxHeld, len(s.seen[src]))
				s.mu.Unlock()
				s.Respond(src, seq, req)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxHeld > 2*dedupWindow+1 {
		t.Errorf("server held up to %d dedup entries for one source, want ≤ %d", maxHeld, 2*dedupWindow+1)
	}

	s := &Server{}
	resp := []byte("resp")
	seq := uint64(0)
	step := func() {
		seq++
		if _, dup := s.register(0, seq); dup {
			t.Fatalf("fresh seq %d flagged as duplicate", seq)
		}
		s.answer(0, seq, resp)
	}
	for i := 0; i < 4*dedupWindow; i++ {
		step()
	}
	if n := testing.AllocsPerRun(10*dedupWindow, step); n != 0 {
		t.Errorf("steady-state register and answer allocate %v times, want 0", n)
	}
}
