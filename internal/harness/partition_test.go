package harness

import (
	"testing"
	"time"

	"lowfive/internal/rpc"
	"lowfive/mpi"
)

// partitionConfig is the sweep configuration shared by the partition
// trials: small chunks so every data response is a multi-frame stream (a
// partition window can then really cut a stream in half), quick scale.
func partitionConfig() Config {
	c := QuickConfig()
	c.ChunkBytes = 2 << 10
	return c
}

func TestPartitionTrialSweep(t *testing.T) {
	// The acceptance sweep: a straggling producer, an unhealed asymmetric
	// partition, a partition that heals mid-exchange, and a throttled link.
	// Every case must end bit-identical to the fault-free baseline, and
	// each case's defense assertions (hedge wins, straggler demotions, no
	// file fallbacks, wall-time bound) are folded into its Err.
	c := partitionConfig()
	spec := faultSpec(t)
	cases := DefaultPartitionCases(spec, 20250806)
	results, err := c.Sweep(spec, cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cases) {
		t.Fatalf("sweep produced %d results for %d cases", len(results), len(cases))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("case %s: %v", r.Name, r.Err)
			continue
		}
		if !r.Identical {
			t.Errorf("case %s: consumer data differs from the fault-free baseline", r.Name)
		}
	}
}

func TestPartitionTrialSlowProducerHedgeWins(t *testing.T) {
	// A single delayed response from the consumer's metadata partner must be
	// beaten by the hedge: the replica answers while the straggler's
	// response is still in flight, nothing falls back to the file, and the
	// exchange finishes in a small fraction of the timeout path.
	c := partitionConfig()
	spec := faultSpec(t)
	var slow []Case
	for _, pc := range DefaultPartitionCases(spec, 7) {
		if pc.Name == "slow-producer" {
			slow = append(slow, pc)
		}
	}
	if len(slow) != 1 {
		t.Fatal("slow-producer case missing from the default sweep")
	}
	results, err := c.Sweep(spec, slow)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Query.HedgeWins == 0 || r.Query.HedgedCalls == 0 {
		t.Errorf("hedged=%d wins=%d, want the hedge to fire and win", r.Query.HedgedCalls, r.Query.HedgeWins)
	}
	if r.Query.FileFallbacks != 0 {
		t.Errorf("%d file fallbacks for a pure delay fault", r.Query.FileFallbacks)
	}
}

func TestPartitionTrialSlowProducerRetried(t *testing.T) {
	// The retry path of a hedged call, driven on purpose: the primary's and
	// the hedge's first answers are both held past the per-attempt timeout,
	// so the metadata call times out with both in flight and re-sends to
	// both. Each rank answers the copy from its dedup cache at once, the
	// call ends on the first such answer, the held originals are dropped as
	// stale when they land, and the exchange stays in memory, bit-identical.
	c := partitionConfig()
	spec := faultSpec(t)
	held := faultCallTimeout + 100*time.Millisecond
	k := Case{Name: "slow-producer-retried", HedgeDelay: partitionHedgeDelay, CallBudget: partitionCallBudget,
		OpenWhenServed: true, Want: Want{NoFallbacks: true, MaxSeconds: 10},
		Plan: mpi.FaultPlan{Seed: 7, Rules: []mpi.FaultRule{
			// Producer task ranks are world ranks: 0 is the consumer's
			// metadata partner, 1 its hedge.
			{Action: mpi.FaultDelay, Rank: 0, Tag: rpc.TagResponse, Count: 1, Delay: held},
			{Action: mpi.FaultDelay, Rank: 1, Tag: rpc.TagResponse, Count: 1, Delay: held},
		}}}
	results, err := c.Sweep(spec, []Case{k})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Query.Retries == 0 {
		t.Error("no retries: the first attempt did not time out")
	}
	if r.Query.HedgedCalls == 0 {
		t.Error("the hedge never went out")
	}
}

func TestPartitionTrialAsymmetricDemotesStraggler(t *testing.T) {
	// An unhealed asymmetric partition: rank 0 hears requests but its
	// responses vanish. The EWMA must demote it (queries re-route before
	// paying its timeout), hedges must win, and the budgeted calls must keep
	// the exchange well under the flat timeout ladder — the sweep's
	// MaxSeconds assertion is a hard bound far below timeout×(retries+1)
	// per dead call chain.
	c := partitionConfig()
	spec := faultSpec(t)
	var part []Case
	for _, pc := range DefaultPartitionCases(spec, 11) {
		if pc.Name == "asymmetric-partition" {
			part = append(part, pc)
		}
	}
	if len(part) != 1 {
		t.Fatal("asymmetric-partition case missing from the default sweep")
	}
	results, err := c.Sweep(spec, part)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Query.StragglersDemoted == 0 {
		t.Error("no straggler demotions under a sustained partition")
	}
	if r.Query.HedgeWins == 0 {
		t.Error("no hedge wins under a sustained partition")
	}
	flat := (faultCallTimeout * time.Duration(faultCallRetries+1)).Seconds()
	if r.Seconds >= flat {
		t.Errorf("exchange ran %.2fs — no faster than one flat retry ladder (%.2fs)", r.Seconds, flat)
	}
}

func TestPartitionTrialHealedPartitionStaysInMemory(t *testing.T) {
	// A partition shorter than one per-attempt timeout: a stream caught in
	// the window recovers through its own retry after the heal, so no read
	// may degrade to the file transport.
	c := partitionConfig()
	spec := faultSpec(t)
	var heal []Case
	for _, pc := range DefaultPartitionCases(spec, 13) {
		if pc.Name == "healed-partition" {
			heal = append(heal, pc)
		}
	}
	if len(heal) != 1 {
		t.Fatal("healed-partition case missing from the default sweep")
	}
	results, err := c.Sweep(spec, heal)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Query.FileFallbacks != 0 {
		t.Errorf("%d file fallbacks — the healed partition should recover in-memory", r.Query.FileFallbacks)
	}
}

func TestPartitionTrialBudgetZeroKeepsLegacyPath(t *testing.T) {
	// Regression: the untuned exchange (no hedge delay, no budget) must
	// still run the legacy CallAll path and record no hedge traffic, so the
	// message-loss sweep's semantics are unchanged by the tuning refactor.
	c := partitionConfig()
	spec := faultSpec(t)
	data, res := c.faultExchange(spec, Case{Plan: mpi.FaultPlan{Seed: 3, Rules: []mpi.FaultRule{
		{Action: mpi.FaultDrop, Rank: mpi.AnyRank, Tag: rpc.TagRequest, Count: 2},
	}}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	qs := res.Query
	for r, b := range data {
		if len(b) == 0 {
			t.Errorf("consumer %d received no data", r)
		}
	}
	if qs.HedgedCalls != 0 || qs.HedgeWins != 0 || qs.StragglersDemoted != 0 {
		t.Errorf("untuned exchange recorded hedge traffic: %+v", qs)
	}
}
