package core

import (
	"sync"
	"time"

	"lowfive/internal/rpc"
	"lowfive/mpi"
	"lowfive/trace"
)

// Tail-latency defense for queries that more than one producer rank can
// answer (metadata opens, and box queries across index replicas). The
// consumer tracks a response-time EWMA per producer rank; a query to a rank
// whose EWMA marks it a straggler is proactively demoted — re-routed to the
// healthiest replica before the straggler's timeout is paid, with the
// straggler kept as the hedge so its recovery is still observed. Queries to
// healthy ranks go out hedged (rpc.CallHedged): if the primary misses the
// hedge delay, a replica races it and the first answer wins.

// rankHealth holds per-producer-rank response-time EWMAs for one
// intercommunicator. Samples mix observed service times with censored
// penalties for ranks that failed to answer; the smoothing factor of 1/2
// adapts within a couple of queries, which is the horizon that matters when
// a partition opens mid-exchange.
type rankHealth struct {
	mu      sync.Mutex
	ewma    []time.Duration
	samples []int
}

func newRankHealth(n int) *rankHealth {
	return &rankHealth{ewma: make([]time.Duration, n), samples: make([]int, n)}
}

// observe folds one response-time sample into a rank's EWMA.
func (h *rankHealth) observe(rank int, d time.Duration) {
	if d <= 0 {
		d = time.Nanosecond
	}
	h.mu.Lock()
	if h.ewma[rank] == 0 {
		h.ewma[rank] = d
	} else {
		h.ewma[rank] = (h.ewma[rank] + d) / 2
	}
	h.samples[rank]++
	h.mu.Unlock()
}

// penalize records a censored sample for a rank that spent d without
// answering (the hedge or a replica won, or the call failed): its true
// service time is unknown but at least d, so it is charged double.
func (h *rankHealth) penalize(rank int, d time.Duration) {
	h.observe(rank, 2*d)
}

// route picks the primary and hedge ranks for a query whose candidate
// answerers are (owner+k) mod n for k < repl. The owner stays primary
// unless its EWMA marks it a straggler — at least the floor (queries
// faster than the hedge delay never need demotion), at least three times
// the best other candidate, and backed by at least two samples (a single
// slow sample is usually the exchange's cold start, not a link fault) —
// in which case the healthiest candidate becomes primary and the demoted
// owner the hedge, so its recovery is still probed. A candidate that has
// never been sampled is unknown, not infinitely fast: it can be hedged to,
// but nobody is demoted in its favor. demoted reports whether the owner
// lost its slot.
func (h *rankHealth) route(owner, repl, n int, floor time.Duration) (primary, hedge int, demoted bool) {
	if repl > n {
		repl = n
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	best, bestEwma := -1, time.Duration(0)
	for k := 1; k < repl; k++ {
		c := (owner + k) % n
		if best == -1 || h.ewma[c] < bestEwma {
			best, bestEwma = c, h.ewma[c]
		}
	}
	if best == -1 {
		return owner, owner, false // no replicas: nothing to route to
	}
	e := h.ewma[owner]
	if e >= floor && floor > 0 && h.samples[owner] >= 2 && bestEwma > 0 && e >= 3*bestEwma {
		return best, owner, true
	}
	return owner, best, false
}

// healthFor returns (creating on first use) the EWMA tracker for an
// intercommunicator's producer ranks.
func (v *DistMetadataVOL) healthFor(ic *mpi.Intercomm) *rankHealth {
	v.qmu.Lock()
	defer v.qmu.Unlock()
	if v.health == nil {
		v.health = map[*mpi.Intercomm]*rankHealth{}
	}
	h, ok := v.health[ic]
	if !ok {
		h = newRankHealth(ic.RemoteSize())
		v.health[ic] = h
	}
	return h
}

// hedging reports whether query hedging is enabled: it needs a hedge delay,
// bounded attempts, and more than one rank able to answer.
func (v *DistMetadataVOL) hedging() bool {
	return v.HedgeDelay > 0 && v.CallTimeout > 0 && v.ReplicationFactor > 1
}

// hedgeWait is the effective hedge delay of a client (mirroring the rpc
// default when HedgeDelay is unset).
func hedgeWait(client *rpc.Client) time.Duration {
	if client.HedgeDelay > 0 {
		return client.HedgeDelay
	}
	return client.Timeout / 4
}

// hedgedCall issues one query with the full tail-latency defense: EWMA
// routing (with straggler demotion), then a hedged call racing the chosen
// primary against the chosen hedge. Response times feed back into the
// EWMAs — a winner is credited its service time, a loser charged a
// censored penalty — so a rank that stops answering is demoted within a
// couple of queries and a healed one earns its slot back through hedge
// probes.
func (v *DistMetadataVOL) hedgedCall(client *rpc.Client, ic *mpi.Intercomm, owner, repl, n int, req []byte) ([]byte, error) {
	h := v.healthFor(ic)
	primary, hedge, demoted := h.route(owner, repl, n, hedgeWait(client))
	if demoted {
		v.qmu.Lock()
		v.qstats.StragglersDemoted++
		v.qmu.Unlock()
		v.instruments()
		v.mDemotions.Inc()
		if tr := v.track(); tr != nil {
			tr.Instant("core", "query.demote",
				trace.I64("owner", int64(owner)), trace.I64("primary", int64(primary)))
		}
	}
	t0 := time.Now()
	resp, winner, err := client.CallHedged(primary, hedge, req)
	elapsed := time.Since(t0)
	if err != nil {
		h.penalize(primary, elapsed)
		return nil, err
	}
	if winner == primary {
		h.observe(primary, elapsed)
	} else {
		// The hedge answered first. Its own service time excludes the hedge
		// delay spent waiting on the primary.
		d := elapsed - hedgeWait(client)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		h.observe(winner, d)
		if d >= hedgeWait(client) {
			// The winner was slow too: the delay was shared (a cold start,
			// congestion), not the primary's own fault — charge the primary
			// what was seen, without the censoring multiplier.
			h.observe(primary, elapsed)
		} else {
			// A fast winner proves the path was healthy while the primary
			// had the whole hedge window and stayed silent: a censored
			// penalty.
			h.penalize(primary, elapsed)
		}
	}
	return resp, nil
}
