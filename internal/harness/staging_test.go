package harness

import (
	"testing"

	"lowfive/internal/workload"
)

func TestStagingTrialSweepBitIdentical(t *testing.T) {
	// The staged-log acceptance sweep: leader crash, follower crash, a rank
	// crash torn across its own epoch commit, and GC truncation racing the
	// restarted rank's replay. Every case must deliver the consumers
	// bit-identical data, with recovery going through log replay — the
	// Rejoin + Reindex re-serve path must never fire in staging mode.
	c := QuickConfig()
	cases := DefaultStagingCases()
	results, err := c.Sweep(workload.Spec{}, cases)
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
			t.Errorf("case %s: consumer data differs from the fault-free staging baseline", r.Name)
		}
		if r.Run.Reindexed != 0 {
			t.Errorf("case %s: %d files took the Rejoin re-serve path", r.Name, r.Run.Reindexed)
		}
		if cases[i].Want.Restarts > 0 {
			if r.Run.ReplayedFiles == 0 && r.Run.StageFallbacks == 0 {
				t.Errorf("case %s: restart recovered nothing (no replay, no fallback)", r.Name)
			}
			if len(r.Run.Failures) == 0 || r.Run.Failures[0].Task != "producer" {
				t.Errorf("case %s: failures %+v, want the producer task first", r.Name, r.Run.Failures)
			}
		}
	}
}

func TestStagingBaselineStoreAccounting(t *testing.T) {
	// A fault-free staging run publishes every epoch through the log: three
	// files by two producer ranks, each epoch one begin + chunks + commit,
	// and no failovers, supersessions, truncations or replays.
	c := QuickConfig()
	data, res := c.epochExchange(Case{Shape: Epochs, Policy: restartPolicy, Stage: &StageFault{}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	stats, ls := res.Run, res.Log
	for r, b := range data {
		if len(b) == 0 {
			t.Fatalf("consumer %d received no data", r)
		}
	}
	if stats.RestartCount != 0 {
		t.Fatalf("fault-free run restarted %d times", stats.RestartCount)
	}
	if ls.Shards != recoveryProducers*recoveryEpochs {
		t.Errorf("shards = %d, want %d (files x producer ranks)", ls.Shards, recoveryProducers*recoveryEpochs)
	}
	if ls.CommittedEpochs != int64(recoveryProducers*recoveryEpochs) {
		t.Errorf("committed epochs = %d, want %d", ls.CommittedEpochs, recoveryProducers*recoveryEpochs)
	}
	if ls.Failovers != 0 || ls.SupersededEpochs != 0 || ls.TruncatedEpochs != 0 || ls.Replays != 0 {
		t.Errorf("fault-free run has recovery activity: %+v", ls)
	}
	if ls.Appends < int64(recoveryProducers*recoveryEpochs*3) {
		t.Errorf("appends = %d, want at least 3 records per epoch per rank", ls.Appends)
	}
}
