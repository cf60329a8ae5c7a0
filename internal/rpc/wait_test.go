package rpc

import (
	"sync/atomic"
	"testing"
	"time"

	"lowfive/internal/buf"
	"lowfive/mpi"
)

// A stream that delivers one frame and then goes silent must fail at its
// Budget. Each accepted frame starts a fresh attempt, but that attempt is
// still clamped to the Budget, not a whole Timeout from the last frame.
func TestDrainFailsWithinBudgetAfterProgress(t *testing.T) {
	pool := buf.NewPool(64, 4)
	const budget = 150 * time.Millisecond
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("server")
			c := &Client{IC: ic, Timeout: 2 * time.Second, Budget: budget}
			frames := 0
			start := time.Now()
			err := c.StartStream(0, []byte("data")).Drain(func([]byte) error {
				frames++
				return nil
			})
			took := time.Since(start)
			if err == nil {
				t.Error("drain of a stalled stream succeeded")
			}
			if frames != 1 {
				t.Errorf("consumed %d frames, want the 1 sent before the stall", frames)
			}
			if took < budget || took > 4*budget {
				t.Errorf("drain failed after %v, want about its %v budget", took, budget)
			}
			ic.Send(0, 99, nil) // release the stalled server
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("client")
			s := &Server{IC: ic}
			src, seq, _ := s.Recv()
			st := s.NewStream(src, seq, pool)
			st.Grab(st.MaxSegment())
			st.Grab(1) // sends the first frame, not flagged last
			ic.Recv(0, 99)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// An OnRecv crash rule on the client's response tag fires at the client's
// receive whether or not the client has a Timeout: the wait is one receive
// operation either way.
func TestOnRecvCrashFiresWithAndWithoutTimeout(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
	}{
		{"fail-stop", 0},
		{"timeout", 500 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := mpi.FaultPlan{Rules: []mpi.FaultRule{
				{Action: mpi.FaultCrash, Rank: 0, Tag: TagResponse, OnRecv: true},
			}}
			var returned atomic.Bool
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
					c := &Client{IC: p.Intercomm("server"), Timeout: tc.timeout}
					c.Call(0, []byte("ping"))
					returned.Store(true)
				}},
				{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
					s := &Server{IC: p.Intercomm("client"), Handler: func(int, []byte) ([]byte, bool) {
						return []byte("pong"), true
					}}
					s.ServeOne()
				}},
			}, mpi.WithFaultPlan(plan))
			if err != nil {
				t.Fatal(err)
			}
			if returned.Load() {
				t.Error("Call returned: the client survived a crash rule on its receive")
			}
		})
	}
}

// The bench path — a fail-stop Call, and a one-frame Drain — allocates
// exactly the request and response envelopes, and for the stream its call
// handle, sender and frame. The two transport messages of each move by
// value and allocate nothing. The server keeps no dedup entry for a
// request its client never re-sends. A client with a
// Timeout allocates exactly as much: its blocked receive re-arms the
// mailbox's one deadline timer, and its dedup path stores entries by value.
func TestWaitLoopAllocs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		timeout     time.Duration
		call, frame float64
	}{
		{"fail-stop", 0, 2, 8},
		{"timeout", time.Minute, 2, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := buf.NewPool(4096, 8)
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
					c := &Client{IC: p.Intercomm("server"), Timeout: tc.timeout}
					req, sreq := []byte("c"), []byte("s")
					call := testing.AllocsPerRun(200, func() {
						if _, err := c.Call(0, req); err != nil {
							t.Error(err)
						}
					})
					frame := testing.AllocsPerRun(200, func() {
						if err := c.StartStream(0, sreq).Drain(func([]byte) error { return nil }); err != nil {
							t.Error(err)
						}
					})
					if call != tc.call {
						t.Errorf("Call allocates %v times, want %v", call, tc.call)
					}
					if frame != tc.frame {
						t.Errorf("one-frame stream allocates %v times, want %v", frame, tc.frame)
					}
					if _, err := c.Call(0, []byte("q")); err != nil {
						t.Error(err)
					}
				}},
				{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
					s := &Server{IC: p.Intercomm("client")}
					for {
						src, seq, req := s.Recv()
						switch req[0] {
						case 'q':
							s.Respond(src, seq, nil)
							return
						case 's':
							st := s.NewStream(src, seq, pool)
							st.Grab(8)
							st.Close()
						default:
							s.Respond(src, seq, req)
						}
					}
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Discard releases every frame of a stream it abandons; in timeout mode it
// gives up after one quiet attempt, without resending the request.
func TestDiscard(t *testing.T) {
	pool := buf.NewPool(64, 16)
	const timeout = 50 * time.Millisecond
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("server")
			c := &Client{IC: ic}
			c.StartStream(0, []byte("full")).Discard()
			if n := pool.Outstanding(); n != 0 {
				t.Errorf("%d frames still outstanding after a complete discard", n)
			}
			c.Timeout, c.Retries = timeout, 3
			start := time.Now()
			c.StartStream(0, []byte("stall")).Discard()
			if took := time.Since(start); took < timeout || took > 10*timeout {
				t.Errorf("discard of a stalled stream returned after %v, want one %v attempt", took, timeout)
			}
			ic.Send(0, 99, nil)
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("client")
			s := &Server{IC: ic}
			for i := 0; i < 2; i++ {
				src, seq, req := s.Recv()
				st := s.NewStream(src, seq, pool)
				for j := 0; j < 8; j++ {
					st.Grab(st.MaxSegment())
				}
				if string(req) == "full" {
					st.Close()
				}
			}
			ic.Recv(0, 99) // sent after the discard, so any resend is queued ahead of it
			if s.Pending() {
				t.Error("a quiet discard resent its request")
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}
