package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"lowfive/internal/buf"
	"lowfive/internal/core"
	"lowfive/internal/stage"
	"lowfive/internal/workload"
	"lowfive/mpi"
	"lowfive/workflow"
)

// Chaos trials run a producer–consumer exchange under a seeded fault and
// check that the consumers still end up with data bit-identical to a
// fault-free run. Every trial is a Case; one runner (Sweep) runs a table of
// them and decides pass or fail for each in one place, so a defense that
// silently stopped firing fails its case instead of hiding behind another
// recovery path.

// Shape is the exchange a case runs.
type Shape int

const (
	// Synthetic is the paper's grid+particle exchange sized by a
	// workload.Spec. Producers also write the file through to the PFS
	// (passthru), so data that dies with a crashed rank is recovered over
	// the paper's file transport.
	Synthetic Shape = iota
	// Epochs is a supervised three-epoch coupling (workflow.RunSupervised):
	// a failed task is relaunched and resumes from its last completed
	// epoch, rejoining published files from their checkpoint containers —
	// or, with Case.Stage set, replaying them from a staging log.
	Epochs
)

// Case is one chaos scenario: a seeded plan, the shape it runs with that
// shape's inputs, and what the run must show.
type Case struct {
	// Name labels the case in reports.
	Name string
	// Plan is the seeded fault plan injected into the world; a plan with
	// no rules injects nothing.
	Plan mpi.FaultPlan
	// Shape picks the exchange.
	Shape Shape
	// HedgeDelay enables hedged queries with EWMA straggler demotion on a
	// Synthetic case's consumers when nonzero; CallBudget is the
	// end-to-end deadline of each consumer call chain. Zero leaves both
	// defenses off.
	HedgeDelay, CallBudget time.Duration
	// OpenWhenServed makes a Synthetic case's consumers open the file only
	// once every producer serves it. Otherwise they open at once and their
	// first requests park until the file is indexed, so whether a first
	// attempt outlives its timeout depends on how long the producers take
	// to write.
	OpenWhenServed bool
	// Policy supervises an Epochs case.
	Policy workflow.Policy
	// Stage, when set, runs an Epochs case through a staging store.
	Stage *StageFault
	// Want is what the case must show beyond bit-identical data.
	Want Want
}

// StageFault is the staging store of an Epochs case and the fault injected
// through its commit hook.
type StageFault struct {
	// Replicas is the store's replication factor (0 means 1).
	Replicas int
	// AutoGC truncates acked epochs eagerly.
	AutoGC bool
	// File and Rank pick the commit the fault fires in: the first commit
	// of File by producer rank Rank (mpi.AnyRank: by any rank).
	File string
	Rank int
	// Fire runs once, inside that commit. It may fail replicas or panic a
	// rank crash. Nil injects nothing.
	Fire func(st *stage.Store, file string, rank int)
}

// Want is what a case must show. The runner checks every field; a miss
// becomes the case's Err.
type Want struct {
	// Degraded: the plan kills a rank, so failovers or file fallbacks must
	// be nonzero.
	Degraded bool
	// Restarts is the exact number of task restarts the fault must force.
	Restarts int
	// Hung: the fault is a hang, so the heartbeat must have detected it.
	Hung bool
	// HedgeWins: a hedge must have been answered by the replica first.
	HedgeWins bool
	// Demotions: the EWMA must have demoted a straggling rank.
	Demotions bool
	// NoFallbacks: no read may degrade to the file transport.
	NoFallbacks bool
	// NoReindex: recovery must never take the Rejoin + Reindex re-serve
	// path (staging mode recovers by log replay).
	NoReindex bool
	// MaxSeconds, when positive, bounds the exchange wall time.
	MaxSeconds float64
	// Check runs case-specific assertions over the result.
	Check func(r *Result) error
}

// Result is the outcome of one case.
type Result struct {
	// Name is the case label.
	Name string
	// Seconds is the exchange wall time under injection, including any
	// detection, restart and recovery.
	Seconds float64
	// Identical reports whether every consumer's data matched the
	// fault-free baseline bit for bit.
	Identical bool
	// Query is the summed consumer-side query counters (Synthetic).
	Query core.QueryStats
	// Run is the supervised run's restart and recovery accounting (Epochs).
	Run workflow.RunStats
	// Log is the staging store's accounting after the run (staged Epochs).
	Log stage.StoreStats
	// Pool is the trial's chunk pool after the run (Rejoin Epochs);
	// Outstanding must be back to zero.
	Pool buf.PoolStats
	// ReplayMs is the wall time restarted ranks spent in log replay
	// (including PFS fallbacks), in milliseconds.
	ReplayMs float64
	// Err is the first error any rank raised, or the first check the case
	// failed: wrong data or a Want miss.
	Err error
}

// restartPolicy supervises the Epochs baselines and most Epochs cases.
var restartPolicy = workflow.Policy{Mode: workflow.Restart, Backoff: time.Millisecond}

// baseline is the fault-free run k's data are compared with: the same shape
// and consumer tuning, no plan, the restart policy, and a staged case's
// store with one replica and no fault.
func (k Case) baseline() Case {
	b := Case{Name: "baseline", Shape: k.Shape, HedgeDelay: k.HedgeDelay, CallBudget: k.CallBudget, Policy: restartPolicy}
	if k.Stage != nil {
		b.Stage = &StageFault{}
	}
	return b
}

// Sweep runs the fault-free baseline of cases[0] and then every case, and
// returns one result per case. spec sizes the Synthetic shape; Epochs has
// fixed dims. The cases of one sweep share cases[0]'s baseline, so they
// should share its shape, tuning and store kind.
func (c Config) Sweep(spec workload.Spec, cases []Case) ([]Result, error) {
	return c.runCases(cases, func(k Case) ([][]byte, Result) {
		if k.Shape == Epochs {
			return c.epochExchange(k)
		}
		return c.faultExchange(spec, k)
	})
}

// runCases is the one chaos loop; run executes one case and returns each
// consumer rank's bytes.
func (c Config) runCases(cases []Case, run func(Case) ([][]byte, Result)) ([]Result, error) {
	if len(cases) == 0 {
		return nil, nil
	}
	baseline, b := run(cases[0].baseline())
	if b.Err != nil {
		return nil, fmt.Errorf("harness: fault-free baseline failed: %w", b.Err)
	}
	for r, d := range baseline {
		if len(d) == 0 {
			return nil, fmt.Errorf("harness: baseline consumer %d received no data", r)
		}
	}
	// Demotions are deliberately not checked here: on a loaded host the
	// exchange's cold start can make a rank genuinely slow for its first
	// couple of queries, and demoting it is the EWMA doing its job (it
	// earns the slot back through hedge probes). A fallback, though, means
	// the in-memory transport failed outright — never acceptable fault-free.
	if b.Query.FileFallbacks != 0 {
		return nil, fmt.Errorf("harness: fault-free baseline degraded: %d file fallbacks", b.Query.FileFallbacks)
	}
	out := make([]Result, 0, len(cases))
	for _, k := range cases {
		c.setStatus("sweep", k.Name)
		data, res := run(k)
		res.Name = k.Name
		if res.Err == nil {
			res.Identical = slices.EqualFunc(baseline, data, bytes.Equal)
			res.Err = k.Want.check(&res)
		}
		q, st := res.Query, res.Run
		c.logf("case %-22s identical=%v failovers=%d fallbacks=%d hedged=%d wins=%d demoted=%d restarts=%d hung=%d replays=%d %.2fs err=%v\n",
			k.Name, res.Identical, q.Failovers, q.FileFallbacks, q.HedgedCalls, q.HedgeWins, q.StragglersDemoted,
			st.RestartCount, st.HungDetected, st.ReplayedFiles, res.Seconds, res.Err)
		out = append(out, res)
	}
	return out, nil
}

// check returns the first way r falls short of w, or nil.
func (w Want) check(r *Result) error {
	q, st := r.Query, r.Run
	switch {
	case !r.Identical:
		return errors.New("harness: consumer data differ from the fault-free baseline")
	case st.RestartCount != w.Restarts:
		return fmt.Errorf("harness: %d restarts, want %d (the fault did not bite)", st.RestartCount, w.Restarts)
	case w.Hung && st.HungDetected == 0:
		return errors.New("harness: hang was not detected by the heartbeat")
	case w.NoReindex && st.Reindexed != 0:
		return fmt.Errorf("harness: recovery took the Rejoin re-serve path (%d reindexed files) in staging mode", st.Reindexed)
	case w.Degraded && q.Failovers == 0 && q.FileFallbacks == 0:
		return errors.New("harness: no failovers or file fallbacks — the crash did not bite")
	case w.HedgeWins && q.HedgeWins == 0:
		return errors.New("harness: no hedge wins — the replica race never fired")
	case w.Demotions && q.StragglersDemoted == 0:
		return errors.New("harness: no straggler demotions — queries kept waiting on the partitioned rank")
	case w.NoFallbacks && q.FileFallbacks != 0:
		return fmt.Errorf("harness: %d file fallbacks — the case should have been absorbed in-memory", q.FileFallbacks)
	case w.MaxSeconds > 0 && r.Seconds > w.MaxSeconds:
		return fmt.Errorf("harness: exchange ran %.2fs, bound %.2fs — hedging did not beat the timeout ladder", r.Seconds, w.MaxSeconds)
	case w.Check != nil:
		return w.Check(r)
	}
	return nil
}

// Table is the report layout of one sweep: a title, the widths of the
// case, seconds and identical columns, and the counter columns.
type Table struct {
	title       string
	nameW, secW int
	cols        []column
}

type column struct {
	head  string
	width int
	val   func(r *Result) int64
}

// The four sweep tables.
var (
	FaultTable = Table{"Fault injection sweep: consumer data vs fault-free baseline", 20, 10, []column{
		{"failovers", 10, func(r *Result) int64 { return r.Query.Failovers }},
		{"fallbacks", 10, func(r *Result) int64 { return r.Query.FileFallbacks }},
	}}
	PartitionTable = Table{"Partition & straggler sweep: hedged queries vs link faults", 22, 9, []column{
		{"hedged", 7, func(r *Result) int64 { return r.Query.HedgedCalls }},
		{"wins", 6, func(r *Result) int64 { return r.Query.HedgeWins }},
		{"demoted", 8, func(r *Result) int64 { return r.Query.StragglersDemoted }},
		{"fallbacks", 9, func(r *Result) int64 { return r.Query.FileFallbacks }},
	}}
	RecoveryTable = Table{"Supervised recovery sweep: restart + rejoin vs fault-free baseline", 20, 10, []column{
		{"restarts", 9, func(r *Result) int64 { return int64(r.Run.RestartCount) }},
		{"hung", 5, func(r *Result) int64 { return int64(r.Run.HungDetected) }},
		{"epochs", 7, func(r *Result) int64 { return int64(r.Run.RecoveredEpochs) }},
		{"reindexed", 10, func(r *Result) int64 { return int64(r.Run.Reindexed) }},
	}}
	StagingTable = Table{"Staged-log fault sweep: replay recovery vs fault-free staging baseline", 20, 10, []column{
		{"restarts", 9, func(r *Result) int64 { return int64(r.Run.RestartCount) }},
		{"replays", 8, func(r *Result) int64 { return int64(r.Run.ReplayedFiles) }},
		{"fallbacks", 10, func(r *Result) int64 { return int64(r.Run.StageFallbacks) }},
		{"failovers", 10, func(r *Result) int64 { return r.Log.Failovers }},
		{"truncated", 10, func(r *Result) int64 { return r.Log.TruncatedEpochs }},
	}}
)

// Print renders a sweep's results as an aligned text table.
func (t Table) Print(w io.Writer, results []Result) {
	fmt.Fprintln(w, t.title)
	fmt.Fprintf(w, "%-*s %*s %*s", t.nameW, "case", t.secW, "seconds", t.secW, "identical")
	for _, col := range t.cols {
		fmt.Fprintf(w, " %*s", col.width, col.head)
	}
	fmt.Fprintln(w, "  error")
	for i := range results {
		r := &results[i]
		fmt.Fprintf(w, "%-*s %*.4fs %*v", t.nameW, r.Name, t.secW-1, r.Seconds, t.secW, r.Identical)
		for _, col := range t.cols {
			fmt.Fprintf(w, " %*d", col.width, col.val(r))
		}
		errStr := ""
		if r.Err != nil {
			errStr = r.Err.Error()
		}
		fmt.Fprintf(w, "  %s\n", errStr)
	}
}
