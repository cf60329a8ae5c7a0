package rpc

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lowfive/mpi"
)

// The fault tests launch a 1-proc client task (world rank 0) and a 1-proc
// server task (world rank 1) and perturb the RPC tags (71 request, 72
// response) with a seeded plan.

func faultyClient(p *mpi.Proc) *Client {
	return &Client{
		IC:      p.Intercomm("server"),
		Timeout: 50 * time.Millisecond,
		Retries: 5,
		Backoff: time.Millisecond,
	}
}

func TestCallRetriesAfterDroppedRequest(t *testing.T) {
	plan := mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{
		{Action: mpi.FaultDrop, Rank: 0, Tag: 71, Count: 1},
	}}
	var served atomic.Int64
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			resp, err := faultyClient(p).Call(0, []byte("ping"))
			if err != nil {
				t.Errorf("call: %v", err)
			}
			if string(resp) != "pong" {
				t.Errorf("got %q", resp)
			}
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			s := &Server{IC: p.Intercomm("client"), Handler: func(src int, req []byte) ([]byte, bool) {
				served.Add(1)
				if string(req) != "ping" {
					t.Errorf("request arrived as %q", req)
				}
				return []byte("pong"), true
			}}
			s.ServeOne()
		}},
	}, mpi.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if served.Load() != 1 {
		t.Errorf("handler ran %d times, want 1", served.Load())
	}
}

// lossyResponseTrial runs a call whose first response is perturbed by the
// given rule; the retry must be answered from the server's dedup cache, so
// the handler dispatches the request exactly once. It returns the client's
// counters.
func lossyResponseTrial(t *testing.T, rule mpi.FaultRule) ClientStats {
	t.Helper()
	plan := mpi.FaultPlan{Seed: 3, Rules: []mpi.FaultRule{rule}}
	var pings atomic.Int64
	var stats ClientStats
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			c := faultyClient(p)
			defer func() { stats = c.Stats() }()
			resp, err := c.Call(0, []byte("ping"))
			if err != nil {
				t.Errorf("call: %v", err)
			}
			if string(resp) != "pong" {
				t.Errorf("got %q", resp)
			}
			// A final fresh request lets the server's second ServeOne (which
			// first replays the duplicate) terminate.
			if _, err := c.Call(0, []byte("bye")); err != nil {
				t.Errorf("bye: %v", err)
			}
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			s := &Server{IC: p.Intercomm("client"), Handler: func(src int, req []byte) ([]byte, bool) {
				if string(req) == "ping" {
					pings.Add(1)
					return []byte("pong"), true
				}
				return []byte("ok"), true
			}}
			s.ServeOne()
			s.ServeOne()
		}},
	}, mpi.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if pings.Load() != 1 {
		t.Errorf("ping dispatched %d times, want 1 (dedup must replay, not re-dispatch)", pings.Load())
	}
	return stats
}

func TestCallRetriesAfterDroppedResponse(t *testing.T) {
	lossyResponseTrial(t, mpi.FaultRule{Action: mpi.FaultDrop, Rank: 1, Tag: 72, Count: 1})
}

func TestCallRetriesAfterCorruptResponse(t *testing.T) {
	// Wherever the flips land — body (CRC fails) or header (stale sequence)
	// — the client discards the envelope and the retry recovers.
	// The corrupting plan turns the CRC on, so the damaged response is
	// discarded and only the retry recovers the call.
	if st := lossyResponseTrial(t, mpi.FaultRule{Action: mpi.FaultCorrupt, Rank: 1, Tag: 72, Count: 1}); st.Retries == 0 {
		t.Error("a corrupted response was accepted without a retry")
	}
}

func TestDuplicatedRequestDispatchedOnce(t *testing.T) {
	lossyResponseTrial(t, mpi.FaultRule{Action: mpi.FaultDuplicate, Rank: 0, Tag: 71, Count: 1})
}

func TestCallTimeoutBudgetExhausted(t *testing.T) {
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			c := &Client{IC: p.Intercomm("server"), Timeout: 10 * time.Millisecond, Retries: 2}
			start := time.Now()
			_, err := c.Call(0, []byte("void"))
			var ce *CallError
			if !errors.As(err, &ce) || ce.Dest != 0 {
				t.Fatalf("err = %v, want *CallError for rank 0", err)
			}
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("err = %v does not unwrap to *TimeoutError", err)
			}
			// 1 attempt + 2 retries, each bounded by the timeout.
			if took := time.Since(start); took < 30*time.Millisecond {
				t.Errorf("gave up after %v, before the retry budget was spent", took)
			}
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			// Never answers; the requests age out in its mailbox.
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCallOnCrashedPeerReturnsRankFailedError(t *testing.T) {
	// The server rank (world rank 1) dies receiving its first request. The
	// blocked client must get a typed failure, not a hang — even in
	// fail-stop mode with no timeout configured.
	plan := mpi.FaultPlan{Rules: []mpi.FaultRule{
		{Action: mpi.FaultCrash, Rank: 1, Tag: 71, OnRecv: true},
	}}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			c := &Client{IC: p.Intercomm("server")}
			_, err := c.Call(0, []byte("ping"))
			var ce *CallError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CallError", err)
			}
			var rf *mpi.RankFailedError
			if !errors.As(err, &rf) || rf.Rank != 1 {
				t.Fatalf("err = %v does not name the crashed world rank", err)
			}
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			s := &Server{IC: p.Intercomm("client"), Handler: func(src int, req []byte) ([]byte, bool) {
				t.Error("handler ran on a crashed rank")
				return nil, false
			}}
			s.ServeOne()
			t.Error("ServeOne returned after an injected crash")
		}},
	}, mpi.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
}
