package mpi

import (
	"errors"
	"testing"
	"time"
)

// pingSpecs is a single two-rank task: rank 0 sends one tagged message,
// rank 1 receives it. With a crash rule on the tag, the first attempt dies
// and a restarted attempt completes.
func pingSpecs(t *testing.T, completed *int32) []TaskSpec {
	t.Helper()
	return []TaskSpec{{
		Name:  "worker",
		Procs: 2,
		Main: func(p *Proc) {
			if p.Task.Rank() == 0 {
				p.Task.Send(1, 5, []byte("payload"))
			} else {
				data, _ := p.Task.Recv(0, 5)
				if string(data) != "payload" {
					t.Errorf("got %q", data)
				}
				*completed++
			}
		},
	}}
}

func TestSupervisedRestartAfterCrash(t *testing.T) {
	var completed int32
	plan := FaultPlan{Seed: 1, Rules: []FaultRule{
		{Action: FaultCrash, Rank: 0, Tag: 5, Count: 1},
	}}
	stats, err := RunWorkflowSupervised(pingSpecs(t, &completed),
		Supervisor{
			OnFailure: func(f TaskFailure) Decision { return RestartTask },
		},
		WithFaultPlan(plan))
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if stats.Restarts["worker"] != 1 {
		t.Fatalf("Restarts[worker] = %d, want 1", stats.Restarts["worker"])
	}
	if completed != 1 {
		t.Fatalf("consumer completed %d times, want 1", completed)
	}
	if len(stats.Failures) == 0 {
		t.Fatal("no failure events recorded")
	}
	f := stats.Failures[0]
	if f.Task != "worker" || f.Hung {
		t.Fatalf("unexpected failure event %+v", f)
	}
}

func TestSupervisedFailFastTypedError(t *testing.T) {
	specs := []TaskSpec{{
		Name:  "sim",
		Procs: 2,
		Main: func(p *Proc) {
			if p.Task.Rank() == 0 {
				p.SetEpoch(3)
				p.Task.Send(1, 5, []byte("x"))
			} else {
				p.Task.Recv(0, 5)
			}
		},
	}}
	plan := FaultPlan{Seed: 1, Rules: []FaultRule{
		{Action: FaultCrash, Rank: 0, Tag: 5, Count: 1},
	}}
	_, err := RunWorkflowSupervised(specs, Supervisor{}, WithFaultPlan(plan))
	var f *TaskFailure
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *TaskFailure", err)
	}
	if f.Task != "sim" || f.Rank != 0 || f.Epoch != 3 {
		t.Fatalf("TaskFailure = %+v, want task sim rank 0 epoch 3", f)
	}
}

func TestSupervisedHangDetectedByHeartbeat(t *testing.T) {
	var completed int32
	plan := FaultPlan{Seed: 1, Rules: []FaultRule{
		{Action: FaultHang, Rank: 0, Tag: 5, Count: 1},
	}}
	stats, err := RunWorkflowSupervised(pingSpecs(t, &completed),
		Supervisor{
			Heartbeat: 120 * time.Millisecond,
			OnFailure: func(f TaskFailure) Decision { return RestartTask },
		},
		WithFaultPlan(plan))
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if stats.HungDetected == 0 {
		t.Fatal("heartbeat never fired")
	}
	if stats.Restarts["worker"] != 1 {
		t.Fatalf("Restarts[worker] = %d, want 1", stats.Restarts["worker"])
	}
	if completed != 1 {
		t.Fatalf("consumer completed %d times, want 1", completed)
	}
	hung := false
	for _, f := range stats.Failures {
		if f.Hung {
			hung = true
		}
	}
	if !hung {
		t.Fatalf("no hung failure event in %+v", stats.Failures)
	}
}

func TestSupervisedDegrade(t *testing.T) {
	var completed int32
	plan := FaultPlan{Seed: 1, Rules: []FaultRule{
		{Action: FaultCrash, Rank: 0, Tag: 5, Count: 1},
	}}
	stats, err := RunWorkflowSupervised(pingSpecs(t, &completed),
		Supervisor{
			OnFailure: func(f TaskFailure) Decision { return DegradeTask },
		},
		WithFaultPlan(plan))
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if got := stats.RestartCount(); got != 0 {
		t.Fatalf("RestartCount = %d, want 0 in degraded mode", got)
	}
	if len(stats.Failures) == 0 {
		t.Fatal("no failure events recorded")
	}
	if completed != 0 {
		t.Fatalf("consumer completed %d times, want 0 (producer died, no restart)", completed)
	}
}

func TestSupervisedBackoffAndAttempts(t *testing.T) {
	// Crash the sender's first two attempts; third succeeds. Policy restarts
	// with a recorded backoff schedule.
	var completed int32
	var backoffs []int
	plan := FaultPlan{Seed: 1, Rules: []FaultRule{
		{Action: FaultCrash, Rank: 0, Tag: 5, Count: 2},
	}}
	stats, err := RunWorkflowSupervised(pingSpecs(t, &completed),
		Supervisor{
			OnFailure: func(f TaskFailure) Decision { return RestartTask },
			Backoff: func(task string, attempt int) time.Duration {
				backoffs = append(backoffs, attempt)
				return time.Duration(attempt) * time.Millisecond
			},
		},
		WithFaultPlan(plan))
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if stats.Restarts["worker"] != 2 {
		t.Fatalf("Restarts[worker] = %d, want 2", stats.Restarts["worker"])
	}
	if len(backoffs) != 2 || backoffs[0] != 1 || backoffs[1] != 2 {
		t.Fatalf("backoff attempts = %v, want [1 2]", backoffs)
	}
	if completed != 1 {
		t.Fatalf("consumer completed %d times, want 1", completed)
	}
}

// exitEarlySpecs is one two-rank task whose rank 0 returns at once, the
// way a rank quits its epoch loop on an error, while rank 1 enters a
// collective that needs rank 0.
func exitEarlySpecs() []TaskSpec {
	return []TaskSpec{{
		Name:  "producer",
		Procs: 2,
		Main: func(p *Proc) {
			if p.Task.Rank() == 1 {
				p.Task.Allgather([]byte{1})
			}
		},
	}}
}

// runBounded runs f and fails the test if it has not returned in time.
func runBounded(t *testing.T, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("a collective whose peer had exited never returned")
		return nil
	}
}

// TestCollectiveFailsOncePeerExited: a rank blocked in a collective on a
// peer whose main has returned gets RankFailedError instead of waiting
// forever, supervised or not.
func TestCollectiveFailsOncePeerExited(t *testing.T) {
	t.Run("supervised", func(t *testing.T) {
		stats, err := runBoundedStats(t, func() (*WorkflowStats, error) {
			return RunWorkflowSupervised(exitEarlySpecs(), Supervisor{})
		})
		var tf *TaskFailure
		if !errors.As(err, &tf) || tf.Task != "producer" || tf.Rank != 1 {
			t.Fatalf("got %v, want the stranded rank 1 reported as a task failure", err)
		}
		if len(stats.Failures) != 1 {
			t.Fatalf("failures %+v, want exactly the stranded rank", stats.Failures)
		}
	})
	t.Run("unsupervised", func(t *testing.T) {
		err := runBounded(t, func() error { return RunWorkflow(exitEarlySpecs()) })
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 0 {
			t.Fatalf("got %v, want *RankFailedError{Rank: 0}", err)
		}
	})
}

func runBoundedStats(t *testing.T, f func() (*WorkflowStats, error)) (*WorkflowStats, error) {
	t.Helper()
	var stats *WorkflowStats
	err := runBounded(t, func() error {
		var err error
		stats, err = f()
		return err
	})
	return stats, err
}

// TestCollectiveCompletesFromExitedPeer: a peer that did its part and
// returned has left its messages queued, so a late rank still completes
// the collective from them.
func TestCollectiveCompletesFromExitedPeer(t *testing.T) {
	err := runBounded(t, func() error {
		return RunWorkflow([]TaskSpec{{
			Name:  "t",
			Procs: 3,
			Main: func(p *Proc) {
				if p.Task.Rank() != 0 {
					time.Sleep(20 * time.Millisecond) // root has long returned
				}
				if got := p.Task.Bcast(0, []byte("root")); string(got) != "root" {
					t.Errorf("rank %d: Bcast = %q", p.Task.Rank(), got)
				}
			},
		}})
	})
	if err != nil {
		t.Fatal(err)
	}
}
