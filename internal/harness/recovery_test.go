package harness

import (
	"errors"
	"testing"

	"lowfive/internal/rpc"
	"lowfive/internal/workload"
	"lowfive/mpi"
	"lowfive/workflow"
)

func TestRecoveryTrialSweepBitIdentical(t *testing.T) {
	// The acceptance sweep: a producer rank crashed mid-epoch, a producer
	// rank hung mid-epoch (heartbeat detection), and a crash under ambient
	// message loss. Every case must restart the task exactly once, recover
	// completed epochs from the checkpoint containers, and deliver the
	// consumers bit-identical data. Small chunks make data responses
	// multi-frame streams, so teardown also has in-flight frames to purge.
	c := QuickConfig()
	c.ChunkBytes = 2 << 10
	cases := DefaultRecoveryCases(20260806)
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
			t.Errorf("case %s: consumer data differs from the fault-free baseline", r.Name)
		}
		if r.Run.RestartCount != 1 {
			t.Errorf("case %s: %d restarts, want exactly 1", r.Name, r.Run.RestartCount)
		}
		if len(r.Run.Failures) == 0 || r.Run.Failures[0].Task != "producer" {
			t.Errorf("case %s: failures %+v, want the producer task first", r.Name, r.Run.Failures)
		}
		if cases[i].Want.Hung && r.Run.HungDetected == 0 {
			t.Errorf("case %s: hang not detected by heartbeat", r.Name)
		}
		if r.Run.RecoveredEpochs == 0 || r.Run.Reindexed == 0 {
			t.Errorf("case %s: recovered epochs=%d reindexed=%d — restart did not rejoin any checkpoint",
				r.Name, r.Run.RecoveredEpochs, r.Run.Reindexed)
		}
		// The torn-down incarnation's in-flight frames must have been
		// released back to the pool, not leaked.
		if r.Pool.Outstanding != 0 {
			t.Errorf("case %s: %d chunks still outstanding after the run (gets=%d high water=%d)",
				r.Name, r.Pool.Outstanding, r.Pool.Gets, r.Pool.HighWater)
		}
	}
}

func TestRecoveryTrialFailFastTypedFailure(t *testing.T) {
	// Under FailFast the same crash must surface as the run's error: a typed
	// *mpi.TaskFailure naming the task, rank and epoch.
	c := QuickConfig()
	plan := mpi.FaultPlan{Seed: 7, Rules: []mpi.FaultRule{
		{Action: mpi.FaultCrash, Rank: 0, Tag: rpc.TagResponse, After: 10, Count: 1},
	}}
	_, res := c.epochExchange(Case{Shape: Epochs, Plan: plan, Policy: workflow.Policy{Mode: workflow.FailFast}})
	var f *mpi.TaskFailure
	if !errors.As(res.Err, &f) {
		t.Fatalf("err = %v, want *mpi.TaskFailure", res.Err)
	}
	if f.Task != "producer" || f.Rank != 0 {
		t.Fatalf("TaskFailure %+v, want task producer rank 0", f)
	}
	if f.Epoch < 0 || f.Epoch >= recoveryEpochs {
		t.Fatalf("TaskFailure epoch = %d, want within [0,%d)", f.Epoch, recoveryEpochs)
	}
}
