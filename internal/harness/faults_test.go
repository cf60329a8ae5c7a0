package harness

import (
	"testing"

	"lowfive/internal/rpc"
	"lowfive/internal/workload"
	"lowfive/mpi"
)

func faultSpec(t *testing.T) workload.Spec {
	t.Helper()
	spec, err := QuickConfig().specFor(4, QuickConfig().ScaleFactor)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestFaultTrialSweepBitIdentical(t *testing.T) {
	// The acceptance sweep: drops, duplication, corruption, delay, a mixed
	// lossy plan, mid-stream chunk loss/corruption, and a producer-rank
	// crash — every case must deliver the consumers bit-identical data via
	// retries, replica failover and the file-transport fallback. Small
	// chunks make every data response a multi-frame stream, so the
	// *-stream-chunk cases really perturb a frame in the middle of one.
	c := QuickConfig()
	c.ChunkBytes = 2 << 10
	spec := faultSpec(t)
	cases := DefaultFaultCases(20240817)
	results, err := c.Sweep(spec, cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cases) {
		t.Fatalf("sweep produced %d results for %d cases", len(results), len(cases))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("case %s: %v", r.Name, r.Err)
			continue
		}
		if !r.Identical {
			t.Errorf("case %s: consumer data differs from the fault-free baseline", r.Name)
		}
		// Degraded (crash) cases may recover everything over the file
		// transport and issue no in-situ data queries at all.
		if !cases[i].Want.Degraded && r.Query.ChunksFetched <= r.Query.DataQueries {
			t.Errorf("case %s: %d chunks over %d data queries — streams were not multi-frame",
				r.Name, r.Query.ChunksFetched, r.Query.DataQueries)
		}
		// A FaultCorrupt rule makes the world non-intact, which turns the
		// rpc CRC on; the responses it discards come back only by retry.
		for _, rule := range cases[i].Plan.Rules {
			if rule.Action == mpi.FaultCorrupt && r.Query.Retries == 0 {
				t.Errorf("case %s: corrupting plan cost no retry — nothing was discarded", r.Name)
				break
			}
		}
	}
}

func TestFaultTrialCrashUsesRecoveryPaths(t *testing.T) {
	// A producer crash mid-serve must actually exercise the degraded paths:
	// either queries failed over to another rank, or reads fell back to the
	// file on the PFS (usually both). Small chunks make every data response
	// a multi-frame stream, so the crash-mid-stream case really kills the
	// producer in the middle of one.
	c := QuickConfig()
	c.ChunkBytes = 2 << 10
	spec := faultSpec(t)
	var crash []Case
	for _, fc := range DefaultFaultCases(99) {
		if fc.Want.Degraded {
			crash = append(crash, fc)
		}
	}
	if len(crash) == 0 {
		t.Fatal("no degraded cases in the default sweep")
	}
	results, err := c.Sweep(spec, crash)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("case %s: %v", r.Name, r.Err)
			continue
		}
		if !r.Identical {
			t.Errorf("case %s: data not bit-identical after crash recovery", r.Name)
		}
		if r.Query.Failovers == 0 && r.Query.FileFallbacks == 0 {
			t.Errorf("case %s: no failovers or file fallbacks recorded — the crash did not bite", r.Name)
		}
	}
}

func TestFaultTrialBaselineCleanCountersZero(t *testing.T) {
	// Without a plan the exchange must not touch any recovery path.
	c := QuickConfig()
	spec := faultSpec(t)
	data, res := c.faultExchange(spec, Case{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	qs := res.Query
	for r, b := range data {
		if len(b) == 0 {
			t.Errorf("consumer %d received no data", r)
		}
	}
	if qs.Failovers != 0 || qs.FileFallbacks != 0 {
		t.Errorf("fault-free run recorded failovers=%d fallbacks=%d", qs.Failovers, qs.FileFallbacks)
	}
}

func TestFaultTrialDoneAckLastAckRace(t *testing.T) {
	// Regression: with seed 1 this exact plan corrupts the acknowledgment of
	// the consumer's done to producer rank 0 — after the producer has counted
	// the done and exited its serve loop, so no retry can ever be answered.
	// Close used to give up on the first failed done call, stranding the
	// remaining producers' serve sessions in a whole-world deadlock. It must
	// instead treat the terminal ack timeout as a counted done and still
	// notify every other producer rank.
	c := QuickConfig()
	spec, err := c.specFor(4, c.ScaleFactor)
	if err != nil {
		t.Fatal(err)
	}
	plan := mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{
		{Action: mpi.FaultCorrupt, Rank: mpi.AnyRank, Tag: rpc.TagResponse, After: 5, Count: 2},
	}}
	data, res := c.faultExchange(spec, Case{Plan: plan})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for r, d := range data {
		if len(d) == 0 {
			t.Errorf("consumer %d received no data", r)
		}
	}
	t.Logf("exchange under done-ack corruption completed in %.3fs", res.Seconds)
}
