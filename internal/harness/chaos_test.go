package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lowfive/internal/core"
	"lowfive/internal/stage"
	"lowfive/workflow"
)

// fakeRun is a runCases exchange that returns good for the baseline (the
// first call) and then, for every case, the bytes and result the case's
// name picks from cases.
func fakeRun(good [][]byte, cases map[string]func() ([][]byte, Result)) func(Case) ([][]byte, Result) {
	calls := 0
	return func(k Case) ([][]byte, Result) {
		calls++
		if calls == 1 {
			return good, Result{}
		}
		return cases[k.Name]()
	}
}

func TestChaosRunnerWrongBytesAreAnError(t *testing.T) {
	// Data that differ from the baseline fail the case in the runner, so
	// every caller that only looks at Err (the bench report's recovery
	// entries among them) sees the failure.
	good := [][]byte{{1, 2, 3}, {4, 5}}
	run := fakeRun(good, map[string]func() ([][]byte, Result){
		"same":    func() ([][]byte, Result) { return [][]byte{{1, 2, 3}, {4, 5}}, Result{} },
		"altered": func() ([][]byte, Result) { return [][]byte{{1, 2, 3}, {4, 6}}, Result{} },
		"short":   func() ([][]byte, Result) { return [][]byte{{1, 2, 3}}, Result{} },
	})
	results, err := QuickConfig().runCases([]Case{{Name: "same"}, {Name: "altered"}, {Name: "short"}}, run)
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; !r.Identical || r.Err != nil {
		t.Errorf("unchanged data: identical=%v err=%v, want a pass", r.Identical, r.Err)
	}
	for _, r := range results[1:] {
		if r.Identical || r.Err == nil {
			t.Errorf("case %s: identical=%v err=%v, want wrong bytes to be an error", r.Name, r.Identical, r.Err)
		}
	}
}

func TestChaosRunnerWantChecks(t *testing.T) {
	// Each Want field fails a result that falls short of it and passes one
	// that meets it; a rank error is kept as the case's Err.
	good := [][]byte{{7}}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name      string
		want      Want
		miss, hit Result
	}{
		{"degraded", Want{Degraded: true}, Result{}, Result{Query: core.QueryStats{FileFallbacks: 1}}},
		{"restarts", Want{Restarts: 1}, Result{}, Result{Run: workflow.RunStats{RestartCount: 1}}},
		{"hung", Want{Restarts: 1, Hung: true}, Result{Run: workflow.RunStats{RestartCount: 1}},
			Result{Run: workflow.RunStats{RestartCount: 1, HungDetected: 1}}},
		{"no-reindex", Want{NoReindex: true}, Result{Run: workflow.RunStats{Reindexed: 1}}, Result{}},
		{"hedge-wins", Want{HedgeWins: true}, Result{}, Result{Query: core.QueryStats{HedgeWins: 1}}},
		{"demotions", Want{Demotions: true}, Result{}, Result{Query: core.QueryStats{StragglersDemoted: 1}}},
		{"no-fallbacks", Want{NoFallbacks: true}, Result{Query: core.QueryStats{FileFallbacks: 1}}, Result{}},
		{"max-seconds", Want{MaxSeconds: 1}, Result{Seconds: 2}, Result{Seconds: 0.5}},
		{"check", Want{Check: func(r *Result) error {
			if r.Log.Failovers == 0 {
				return errors.New("no failover")
			}
			return nil
		}}, Result{}, Result{Log: stage.StoreStats{Failovers: 1}}},
	} {
		for _, v := range []struct {
			res  Result
			pass bool
		}{{tc.miss, false}, {tc.hit, true}, {Result{Err: boom}, false}} {
			res := v.res
			run := fakeRun(good, map[string]func() ([][]byte, Result){
				tc.name: func() ([][]byte, Result) { return [][]byte{{7}}, res },
			})
			results, err := QuickConfig().runCases([]Case{{Name: tc.name, Want: tc.want}}, run)
			if err != nil {
				t.Fatal(err)
			}
			if got := results[0].Err == nil; got != v.pass {
				t.Errorf("%s on %+v: err=%v, want pass=%v", tc.name, res, results[0].Err, v.pass)
			}
		}
	}
}

func TestChaosRunnerRejectsBadBaseline(t *testing.T) {
	// A baseline that errs, leaves a consumer empty, or fell back to the
	// file is no reference to compare against: the sweep fails outright.
	for name, base := range map[string]func() ([][]byte, Result){
		"error":    func() ([][]byte, Result) { return [][]byte{{1}}, Result{Err: errors.New("boom")} },
		"empty":    func() ([][]byte, Result) { return [][]byte{{1}, nil}, Result{} },
		"fallback": func() ([][]byte, Result) { return [][]byte{{1}}, Result{Query: core.QueryStats{FileFallbacks: 1}} },
	} {
		ran := 0
		run := func(k Case) ([][]byte, Result) {
			if ran++; ran == 1 {
				return base()
			}
			return [][]byte{{1}}, Result{}
		}
		if _, err := QuickConfig().runCases([]Case{{Name: "c"}}, run); err == nil {
			t.Errorf("baseline %s: sweep ran, want it rejected", name)
		}
		if ran != 1 {
			t.Errorf("baseline %s: %d exchanges ran, want only the baseline", name, ran)
		}
	}
}

func TestChaosTableLayout(t *testing.T) {
	// Each table prints the title, header and row layout its sweep has
	// always had, with every counter in its own column; only the numbers
	// change between runs.
	r := Result{Name: "c", Seconds: 1.5, Identical: true, Err: errors.New("e"),
		Query: core.QueryStats{Failovers: 1, FileFallbacks: 2, HedgedCalls: 3, HedgeWins: 4, StragglersDemoted: 5},
		Run: workflow.RunStats{RestartCount: 6, HungDetected: 7, RecoveredEpochs: 8, Reindexed: 9,
			ReplayedFiles: 10, StageFallbacks: 11},
		Log: stage.StoreStats{Failovers: 12, TruncatedEpochs: 13}}
	for _, tc := range []struct {
		t               Table
		title, hdr, row string
		heads, vals     []any
	}{
		{FaultTable, "Fault injection sweep: consumer data vs fault-free baseline",
			"%-20s %10s %10s %10s %10s  %s\n", "%-20s %9.4fs %10v %10d %10d  %s\n",
			[]any{"failovers", "fallbacks"}, []any{1, 2}},
		{PartitionTable, "Partition & straggler sweep: hedged queries vs link faults",
			"%-22s %9s %9s %7s %6s %8s %9s  %s\n", "%-22s %8.4fs %9v %7d %6d %8d %9d  %s\n",
			[]any{"hedged", "wins", "demoted", "fallbacks"}, []any{3, 4, 5, 2}},
		{RecoveryTable, "Supervised recovery sweep: restart + rejoin vs fault-free baseline",
			"%-20s %10s %10s %9s %5s %7s %10s  %s\n", "%-20s %9.4fs %10v %9d %5d %7d %10d  %s\n",
			[]any{"restarts", "hung", "epochs", "reindexed"}, []any{6, 7, 8, 9}},
		{StagingTable, "Staged-log fault sweep: replay recovery vs fault-free staging baseline",
			"%-20s %10s %10s %9s %8s %10s %10s %10s  %s\n", "%-20s %9.4fs %10v %9d %8d %10d %10d %10d  %s\n",
			[]any{"restarts", "replays", "fallbacks", "failovers", "truncated"}, []any{6, 10, 11, 12, 13}},
	} {
		var got bytes.Buffer
		tc.t.Print(&got, []Result{r})
		hdr := append(append([]any{"case", "seconds", "identical"}, tc.heads...), "error")
		row := append(append([]any{"c", 1.5, true}, tc.vals...), "e")
		want := tc.title + "\n" + fmt.Sprintf(tc.hdr, hdr...) + fmt.Sprintf(tc.row, row...)
		if got.String() != want {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", strings.SplitN(tc.title, ":", 2)[0], got.String(), want)
		}
	}
}
