package rpc

import (
	"errors"
	"testing"
	"time"

	"lowfive/mpi"
)

func TestServerRejectsExpiredBudget(t *testing.T) {
	// A request whose end-to-end budget is already spent on arrival must be
	// rejected without dispatching the handler: nobody awaits the answer.
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			c := &Client{IC: p.Intercomm("server"), Timeout: 50 * time.Millisecond, Budget: time.Nanosecond}
			if _, err := c.Call(0, []byte("dead")); err == nil {
				t.Error("call with a spent budget succeeded")
			}
			// A later call with no budget must still be served: the expired
			// request was dropped, not registered.
			c.Budget = 0
			resp, err := c.Call(0, []byte("live"))
			if err != nil {
				t.Errorf("post-expiry call: %v", err)
			}
			if string(resp) != "ok" {
				t.Errorf("got %q", resp)
			}
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			dispatched := 0
			s := &Server{IC: p.Intercomm("client"), Handler: func(src int, req []byte) ([]byte, bool) {
				dispatched++
				if string(req) != "live" {
					t.Errorf("handler dispatched for %q", req)
				}
				return []byte("ok"), true
			}}
			s.ServeOne()
			if dispatched != 1 {
				t.Errorf("handler dispatched %d times, want 1", dispatched)
			}
			if s.Expired() != 1 {
				t.Errorf("Expired() = %d, want 1", s.Expired())
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBudgetCapsRetrySchedule(t *testing.T) {
	// With a Budget much shorter than Timeout×(Retries+1), a silent peer
	// fails the call at the budget, not the full retry schedule.
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("server")
			c := &Client{IC: ic, Timeout: 80 * time.Millisecond, Retries: 10, Budget: 150 * time.Millisecond}
			start := time.Now()
			_, err := c.Call(0, []byte("void"))
			took := time.Since(start)
			if err == nil {
				t.Error("call to a silent peer succeeded")
			}
			var ce *CallError
			if !errors.As(err, &ce) {
				t.Errorf("error %v is not a *CallError", err)
			} else if ce.Attempts < 1 || ce.Elapsed < 100*time.Millisecond {
				t.Errorf("CallError attempts=%d elapsed=%v", ce.Attempts, ce.Elapsed)
			}
			if took >= 500*time.Millisecond {
				t.Errorf("budgeted call ran %v — the flat retry schedule was used", took)
			}
			ic.Send(0, 99, nil) // release the parked server
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			p.Intercomm("client").Recv(0, 99) // never answer the RPC
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCallErrorCarriesAttemptsAndElapsed(t *testing.T) {
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("server")
			c := &Client{IC: ic, Timeout: 20 * time.Millisecond, Retries: 2}
			_, err := c.Call(0, []byte("void"))
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("error %v does not unwrap to *TimeoutError", err)
			}
			if te.Attempts != 3 {
				t.Errorf("attempts = %d, want 3 (1 send + 2 retries)", te.Attempts)
			}
			if te.Elapsed < 40*time.Millisecond {
				t.Errorf("elapsed = %v, want at least two timeouts' worth", te.Elapsed)
			}
			if c.Stats().Retries != 2 {
				t.Errorf("client retries = %d, want 2", c.Stats().Retries)
			}
			ic.Send(0, 99, nil)
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			p.Intercomm("client").Recv(0, 99)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCallHedgedWinsOnSlowPrimary(t *testing.T) {
	// Server rank 0 never answers; the hedge to rank 1 must win well before
	// the primary's timeout would expire.
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("server")
			c := &Client{IC: ic, Timeout: 400 * time.Millisecond, Retries: 2, HedgeDelay: 10 * time.Millisecond}
			start := time.Now()
			resp, winner, err := c.CallHedged(0, 1, []byte("q"))
			took := time.Since(start)
			if err != nil {
				t.Errorf("hedged call: %v", err)
			}
			if winner != 1 || string(resp) != "from-1" {
				t.Errorf("winner=%d resp=%q, want the hedge", winner, resp)
			}
			if took >= c.Timeout {
				t.Errorf("hedged call took %v — no better than the timeout path", took)
			}
			st := c.Stats()
			if st.HedgedCalls != 1 || st.HedgeWins != 1 {
				t.Errorf("stats = %+v, want one hedged call and one win", st)
			}
			ic.Send(0, 99, nil) // release the parked primary
		}},
		{Name: "server", Procs: 2, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("client")
			if p.Task.Rank() == 0 {
				ic.Recv(0, 99) // park: the primary stays silent
				return
			}
			s := &Server{IC: ic, Handler: func(src int, req []byte) ([]byte, bool) {
				return []byte("from-1"), true
			}}
			s.ServeOne()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCallHedgedFastPrimarySkipsHedge(t *testing.T) {
	// When the primary answers inside the hedge delay, no hedge is sent.
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			c := &Client{IC: p.Intercomm("server"), Timeout: 400 * time.Millisecond, Retries: 2,
				HedgeDelay: 300 * time.Millisecond}
			resp, winner, err := c.CallHedged(0, 1, []byte("q"))
			if err != nil {
				t.Errorf("hedged call: %v", err)
			}
			if winner != 0 || string(resp) != "from-0" {
				t.Errorf("winner=%d resp=%q, want the primary", winner, resp)
			}
			if st := c.Stats(); st.HedgedCalls != 0 || st.HedgeWins != 0 {
				t.Errorf("stats = %+v, want no hedge traffic", st)
			}
		}},
		{Name: "server", Procs: 2, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("client")
			if p.Task.Rank() != 0 {
				return // rank 1 must never be needed
			}
			s := &Server{IC: ic, Handler: func(src int, req []byte) ([]byte, bool) {
				return []byte("from-0"), true
			}}
			s.ServeOne()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDedupWindowAncientDuplicateSwallowed(t *testing.T) {
	// A duplicate older than the dedup window has had its state pruned: it
	// can only be a replay of a long-answered request, so it must be
	// swallowed — neither re-dispatched as fresh nor answered from a stale
	// cache.
	s := &Server{}
	if _, dup := s.register(0, 1); dup {
		t.Fatal("first sighting of seq 1 flagged as duplicate")
	}
	s.answer(0, 1, []byte("ancient"))
	for seq := uint64(2); seq <= dedupWindow+10; seq++ {
		if _, dup := s.register(0, seq); dup {
			t.Fatalf("fresh seq %d flagged as duplicate", seq)
		}
	}
	cached, dup := s.register(0, 1)
	if !dup {
		t.Fatal("ancient duplicate treated as fresh — it would re-dispatch the handler")
	}
	if cached.answered {
		t.Fatalf("ancient duplicate replayed a pruned response %q", cached.resp)
	}
	if cached.held {
		t.Fatal("ancient duplicate taken for a held request — it would get a pending reply")
	}
	// A duplicate still inside the window replays its cached response.
	s.answer(0, 200, []byte("recent"))
	cached, dup = s.register(0, 200)
	if !dup || !cached.answered || string(cached.resp) != "recent" {
		t.Fatalf("in-window duplicate: dup=%v cached=%v", dup, cached)
	}
}

func TestDedupWindowInterleavedSources(t *testing.T) {
	// Sequence numbers are per source: the same seq from two sources are two
	// distinct requests, and each duplicate replays its own response.
	s := &Server{}
	if _, dup := s.register(0, 5); dup {
		t.Fatal("src 0 seq 5 flagged as duplicate")
	}
	if _, dup := s.register(1, 5); dup {
		t.Fatal("src 1 seq 5 flagged as duplicate — cross-source collision")
	}
	s.answer(0, 5, []byte("for-src-0"))
	s.answer(1, 5, []byte("for-src-1"))
	if cached, dup := s.register(0, 5); !dup || !cached.answered || string(cached.resp) != "for-src-0" {
		t.Errorf("src 0 duplicate replayed %v", cached)
	}
	if cached, dup := s.register(1, 5); !dup || !cached.answered || string(cached.resp) != "for-src-1" {
		t.Errorf("src 1 duplicate replayed %v", cached)
	}
}
