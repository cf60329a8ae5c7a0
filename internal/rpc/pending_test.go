package rpc

import (
	"errors"
	"testing"
	"time"

	"lowfive/mpi"
)

// holdServer answers "hold" after hold, from another goroutine, while its
// receive loop goes on, the way a producer answers a request it parked
// until the file is indexed; "end" is answered at once and ends the loop.
// It returns how many times each request was dispatched.
func holdServer(p *mpi.Proc, hold time.Duration) map[string]int {
	s := &Server{IC: p.Intercomm("client")}
	dispatched := map[string]int{}
	done := make(chan struct{})
	for {
		src, seq, req := s.Recv()
		dispatched[string(req)]++
		switch string(req) {
		case "hold":
			go func() {
				time.Sleep(hold)
				s.Respond(src, seq, []byte("held"))
				close(done)
			}()
		case "end":
			<-done
			s.Respond(src, seq, nil)
			return dispatched
		}
	}
}

// TestHeldRequestOutlivesRetries: a server holds a request for four times
// Timeout×(Retries+1), then answers. Each retry of the held request gets a
// pending reply, which starts a fresh attempt, so the call returns the
// answer with no timeout, and the handler runs once. A hedged call held by
// both ranks still sends its hedge on its timer and returns the first
// answer.
func TestHeldRequestOutlivesRetries(t *testing.T) {
	const timeout, retries = 10 * time.Millisecond, 1
	hold := 4 * timeout * (retries + 1)
	for _, hedged := range []bool{false, true} {
		name := map[bool]string{false: "call", true: "hedged"}[hedged]
		t.Run(name, func(t *testing.T) {
			servers := 1
			if hedged {
				servers = 2
			}
			counts := make([]map[string]int, servers)
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
					c := &Client{IC: p.Intercomm("server"), Timeout: timeout, Retries: retries, HedgeDelay: timeout / 2}
					t0 := time.Now()
					var resp []byte
					var err error
					if hedged {
						resp, _, err = c.CallHedged(0, 1, []byte("hold"))
					} else {
						resp, err = c.Call(0, []byte("hold"))
					}
					if err != nil || string(resp) != "held" {
						t.Errorf("held call: %q, %v", resp, err)
					}
					if el := time.Since(t0); el < hold {
						t.Errorf("answered after %v, before the server's %v hold", el, hold)
					}
					st := c.Stats()
					if st.Timeouts != 0 || st.Retries == 0 {
						t.Errorf("stats %+v: want retries answered as pending and no timeout", st)
					}
					if hedged && st.HedgedCalls != 1 {
						t.Errorf("%d hedges sent, want 1 on its timer", st.HedgedCalls)
					}
					for r := 0; r < servers; r++ {
						if _, err := c.Call(r, []byte("end")); err != nil {
							t.Error(err)
						}
					}
				}},
				{Name: "server", Procs: servers, Main: func(p *mpi.Proc) {
					counts[p.Task.Rank()] = holdServer(p, hold)
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, m := range counts {
				if m["hold"] != 1 {
					t.Errorf("server %d dispatched the held request %d times, want once", r, m["hold"])
				}
			}
		})
	}
}

// TestHeldRequestStaysInBudget: pending replies renew a call's attempts,
// never its Budget. A call held past its Budget fails with a timeout at the
// Budget, long before the server answers.
func TestHeldRequestStaysInBudget(t *testing.T) {
	const timeout, budget, hold = 10 * time.Millisecond, 60 * time.Millisecond, 400 * time.Millisecond
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			c := &Client{IC: p.Intercomm("server"), Timeout: timeout, Retries: 1, Budget: budget}
			t0 := time.Now()
			_, err := c.Call(0, []byte("hold"))
			el := time.Since(t0)
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Errorf("held past its budget: %v, want a timeout", err)
			}
			if el < budget || el >= hold {
				t.Errorf("failed after %v, want between the %v budget and the %v hold", el, budget, hold)
			}
			// The server ends its loop once its hold is over.
			c.Timeout, c.Budget = 0, 0
			if _, err := c.Call(0, []byte("end")); err != nil {
				t.Error(err)
			}
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			holdServer(p, hold)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}
