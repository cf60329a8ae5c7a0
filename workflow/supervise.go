// Supervised workflows: RunSupervised runs the same declarative task graph
// as Run, but under a failure Policy. The mpi layer supplies the mechanism
// (heartbeat detection, task teardown, communicator reincarnation); this
// layer supplies the recovery semantics: epoch-aware entry points that
// resume a restarted task from its last completed epoch, automatic
// checkpointing of published files through the base connector (passthru),
// and Rejoin/Reindex of files a previous incarnation had already served.
//
// Epoch contract for restartable tasks:
//
//   - The task publishes (or consumes) one file set per epoch, starting at
//     ctx.Epoch, and calls ctx.EpochDone(e) after the epoch's files are
//     fully closed on this rank.
//   - A restarted attempt receives ctx.Epoch = the first epoch not
//     completed by every rank; files of completed epochs are rebuilt from
//     the checkpoint container and re-served, while the interrupted epoch
//     is re-produced from scratch (file creation truncates its partial
//     container).
//   - Restartable tasks must not use World-spanning collectives (see
//     mpi.RunWorkflowSupervised); cross-task synchronization goes through
//     file opens and closes.
package workflow

import (
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"lowfive"
	"lowfive/h5"
	"lowfive/mpi"
)

// Mode is a Policy's reaction to a task failure.
type Mode uint8

const (
	// FailFast aborts the workflow on the first failure; the run returns
	// the typed *mpi.TaskFailure naming the task, rank and epoch.
	FailFast Mode = iota
	// Degrade leaves failed ranks dead and relies on the fault-tolerant
	// query paths (replica failover, file fallback) of the surviving ranks.
	Degrade
	// Restart tears down and relaunches a failed task with fresh
	// communicators, resuming from its last completed epoch.
	Restart
)

// Policy configures how a supervised run treats task failures.
type Policy struct {
	// Mode selects the reaction; the remaining knobs apply to Restart.
	Mode Mode
	// MaxRestarts caps restarts per task before the workflow fails anyway.
	// 0 defaults to 3.
	MaxRestarts int
	// Backoff is the delay before the first relaunch, doubling with every
	// further restart of the same task. 0 relaunches immediately.
	Backoff time.Duration
	// Heartbeat is the hang-detection deadline: a rank that is neither
	// blocked in a receive nor making message-passing progress for this
	// long is failed like a crash. 0 disables hang detection.
	Heartbeat time.Duration
	// EpochDeadline fails a rank whose last ctx.EpochDone (or launch) lies
	// further back than this — an application-level progress deadline on
	// top of the transport heartbeat. 0 disables it. Only meaningful for
	// tasks bound with BindEpoch.
	EpochDeadline time.Duration
}

// String returns the mode's JSON name.
func (m Mode) String() string {
	switch m {
	case FailFast:
		return "failfast"
	case Degrade:
		return "degrade"
	case Restart:
		return "restart"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// MarshalJSON writes the mode as its name.
func (m Mode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON reads a mode name ("failfast", "degrade", "restart").
func (m *Mode) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("workflow: policy mode: %w", err)
	}
	switch strings.ToLower(s) {
	case "failfast", "fail-fast":
		*m = FailFast
	case "degrade":
		*m = Degrade
	case "restart":
		*m = Restart
	default:
		return fmt.Errorf("workflow: unknown policy mode %q", s)
	}
	return nil
}

// policyJSON is the wire form of Policy: mode by name, durations as Go
// duration strings ("100ms", "2s").
type policyJSON struct {
	Mode          Mode   `json:"mode"`
	MaxRestarts   int    `json:"max_restarts,omitempty"`
	Backoff       string `json:"backoff,omitempty"`
	Heartbeat     string `json:"heartbeat,omitempty"`
	EpochDeadline string `json:"epoch_deadline,omitempty"`
}

// MarshalJSON writes the policy with durations as strings.
func (p Policy) MarshalJSON() ([]byte, error) {
	j := policyJSON{Mode: p.Mode, MaxRestarts: p.MaxRestarts}
	if p.Backoff > 0 {
		j.Backoff = p.Backoff.String()
	}
	if p.Heartbeat > 0 {
		j.Heartbeat = p.Heartbeat.String()
	}
	if p.EpochDeadline > 0 {
		j.EpochDeadline = p.EpochDeadline.String()
	}
	return json.Marshal(j)
}

// UnmarshalJSON reads the policy, parsing duration strings.
func (p *Policy) UnmarshalJSON(b []byte) error {
	var j policyJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*p = Policy{Mode: j.Mode, MaxRestarts: j.MaxRestarts}
	for _, f := range []struct {
		name string
		src  string
		dst  *time.Duration
	}{
		{"backoff", j.Backoff, &p.Backoff},
		{"heartbeat", j.Heartbeat, &p.Heartbeat},
		{"epoch_deadline", j.EpochDeadline, &p.EpochDeadline},
	} {
		if f.src == "" {
			continue
		}
		d, err := time.ParseDuration(f.src)
		if err != nil {
			return fmt.Errorf("workflow: policy %s: %w", f.name, err)
		}
		*f.dst = d
	}
	return nil
}

// TaskCtx is the per-rank recovery context an epoch-aware entry point
// receives.
type TaskCtx struct {
	// Epoch is the first epoch this attempt must produce or consume
	// (0 on a fresh launch).
	Epoch int64
	// Attempt counts restarts of this task (0 on a fresh launch).
	Attempt int

	r        *runner
	task     string
	taskRank int
	world    int
	p        *mpi.Proc
}

// EpochDone records that this rank fully completed epoch e (its files are
// closed), advancing the restart resume point and the epoch-deadline clock.
func (c *TaskCtx) EpochDone(e int64) {
	c.p.SetEpoch(e)
	c.r.epochDone(c.task, c.taskRank, c.world, e)
}

// EpochFn is an epoch-aware task entry point (see the package comment for
// the restart contract).
type EpochFn func(p *mpi.Proc, vol *lowfive.DistMetadataVOL, fapl *h5.FileAccessProps, ctx *TaskCtx)

// RunStats is what a supervised run observed and recovered.
type RunStats struct {
	// RestartCount is the total number of task restarts.
	RestartCount int
	// Restarts counts restarts per task.
	Restarts map[string]int
	// Failures are the failure events in detection order.
	Failures []mpi.TaskFailure
	// HungDetected counts ranks failed by heartbeat or epoch deadline.
	HungDetected int
	// RecoveredEpochs is the total number of completed epochs restarted
	// tasks resumed past (recovered from checkpoint instead of recomputed).
	RecoveredEpochs int
	// Reindexed counts files rebuilt and reindexed (Rejoin) on restart.
	Reindexed int
	// RejoinedBytes is the data volume re-read from checkpoint containers.
	RejoinedBytes int64
	// ReplayedFiles counts per-rank file recoveries done by staging-log
	// replay (staging mode's replacement for Rejoin + re-serve).
	ReplayedFiles int
	// ReplayedRecords is the total log records scanned across replays —
	// proportional to the last committed spans, not to every epoch served.
	ReplayedRecords int
	// ReplayedBytes is the payload scanned across replays (ReplayStats.Bytes).
	ReplayedBytes int64
	// StageFallbacks counts replays that found their span truncated and
	// degraded to the PFS container file.
	StageFallbacks int
	// ReplayTime is the total wall time restarted ranks spent in replay
	// (including PFS fallbacks), at full clock resolution — the store's
	// replay histogram rounds to microseconds, too coarse for tiny spans.
	ReplayTime time.Duration
}

// Consumer-side RPC defaults applied in Restart mode (a task's entry point
// may override them on the vol before opening files). The total retry
// budget must comfortably cover teardown + backoff + rejoin of a restarted
// producer.
const (
	restartCallTimeout = 250 * time.Millisecond
	restartCallRetries = 12
	restartCallBackoff = time.Millisecond
)

// ackKey identifies one consumer-side done acknowledgment: file name and
// the producer rank that acked, per task pair.
type ackKey struct {
	from, to, file string
	prodRank       int
}

// runner is the process-global recovery ledger shared by every rank of a
// supervised run (the supervisor's analogue of a resource manager's state
// store).
type runner struct {
	mu       sync.Mutex
	served   map[string]map[string]int64 // task -> file -> epoch it was first served in
	acks     map[ackKey]int              // consumer dones acked per producer rank
	epochs   map[string][]int64          // task -> per-rank last completed epoch (-1 = none)
	progress map[int]int64               // world rank -> unixnano of last app progress

	recoveredEpochs int
	reindexed       int
	rejoinedBytes   int64
	replayedFiles   int
	replayedRecords int
	replayedBytes   int64
	stageFallbacks  int
	replayTime      time.Duration
}

func newRunner(g Graph) *runner {
	r := &runner{
		served:   map[string]map[string]int64{},
		acks:     map[ackKey]int{},
		epochs:   map[string][]int64{},
		progress: map[int]int64{},
	}
	for _, t := range g.Tasks {
		e := make([]int64, t.Procs)
		for i := range e {
			e[i] = -1
		}
		r.epochs[t.Name] = e
	}
	return r
}

func (r *runner) epochDone(task string, taskRank, worldRank int, e int64) {
	r.mu.Lock()
	if e > r.epochs[task][taskRank] {
		r.epochs[task][taskRank] = e
	}
	r.progress[worldRank] = time.Now().UnixNano()
	r.mu.Unlock()
}

func (r *runner) touch(worldRank int) {
	r.mu.Lock()
	r.progress[worldRank] = time.Now().UnixNano()
	r.mu.Unlock()
}

func (r *runner) stalled(worldRank int, deadline time.Duration) bool {
	r.mu.Lock()
	last, ok := r.progress[worldRank]
	r.mu.Unlock()
	return ok && time.Now().UnixNano()-last > int64(deadline)
}

// recordServe notes a file served by a task, tagged with the epoch it was
// produced in (last completed + 1). The first epoch wins: a re-serve after
// restart must not lift the file past a later crash's resume point, or it
// would never be rejoined again.
func (r *runner) recordServe(task string, taskRank int, file string) {
	r.mu.Lock()
	epoch := r.epochs[task][taskRank] + 1
	m := r.served[task]
	if m == nil {
		m = map[string]int64{}
		r.served[task] = m
	}
	if old, ok := m[file]; !ok || epoch < old {
		m[file] = epoch
	}
	r.mu.Unlock()
}

func (r *runner) recordAck(from, to, file string, prodRank int) {
	r.mu.Lock()
	r.acks[ackKey{from: from, to: to, file: file, prodRank: prodRank}]++
	r.mu.Unlock()
}

func (r *runner) ackCount(from, to, file string, prodRank int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acks[ackKey{from: from, to: to, file: file, prodRank: prodRank}]
}

// resumeEpoch is the first epoch not completed by every rank of the task.
func (r *runner) resumeEpoch(task string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	min := int64(-1)
	for i, e := range r.epochs[task] {
		if i == 0 || e < min {
			min = e
		}
	}
	return min + 1
}

// servedFiles returns the task's served files, sorted; withEpochBelow
// limits to files produced in epochs before the bound (the rejoin set —
// the interrupted epoch itself is re-produced, not rejoined).
func (r *runner) servedFiles(task string, withEpochBelow int64) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for f, e := range r.served[task] {
		if e < withEpochBelow {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

func (r *runner) addRecovery(epochs int, rs lowfive.RejoinStats, files int) {
	r.mu.Lock()
	r.recoveredEpochs += epochs
	r.reindexed += files
	r.rejoinedBytes += rs.Bytes
	r.mu.Unlock()
}

func (r *runner) addReplay(rs lowfive.ReplayStats, d time.Duration) {
	r.mu.Lock()
	r.replayedFiles++
	r.replayedRecords += rs.Records
	r.replayedBytes += rs.Bytes
	if rs.PFSFallback {
		r.stageFallbacks++
	}
	r.replayTime += d
	r.mu.Unlock()
}

// RunSupervised validates the graph and runs it like Run, but under pol:
// failures (crashes, heartbeat-expired hangs, epoch-deadline stalls) are
// detected and handled per the policy instead of aborting the world. In
// Restart mode every producing edge's files are automatically passed
// through to the base connector (base is required — it is the checkpoint
// store), and a restarted task resumes from its last completed epoch.
func RunSupervised(g Graph, base func() h5.Connector, pol Policy, opts ...mpi.Option) (*RunStats, error) {
	stats := &RunStats{Restarts: map[string]int{}}
	if err := g.Validate(); err != nil {
		return stats, err
	}
	for _, t := range g.Tasks {
		if t.Fn == nil && t.EpochFn == nil {
			return stats, fmt.Errorf("workflow: task %q has no entry point (use Bind or BindEpoch)", t.Name)
		}
	}
	if pol.Mode == Restart && base == nil {
		return stats, fmt.Errorf("workflow: Restart policy requires a base connector (the checkpoint store)")
	}
	run := newRunner(g)

	specs := make([]mpi.TaskSpec, len(g.Tasks))
	for i, t := range g.Tasks {
		t := t
		outs := g.Producers(t.Name)
		ins := g.Consumers(t.Name)
		specs[i] = mpi.TaskSpec{
			Name:  t.Name,
			Procs: t.Procs,
			Main: func(p *mpi.Proc) {
				var b h5.Connector
				if base != nil {
					b = base()
				}
				vol := lowfive.NewDistMetadataVOL(p.Task, b)
				if g.Stage != nil {
					vol.Stage = g.Stage
					if len(ins) > 0 {
						vol.StageSubscriber = fmt.Sprintf("%s/%d", t.Name, p.Task.Rank())
					}
				}
				icTo := map[string]*mpi.Intercomm{}
				for _, e := range outs {
					ic := p.Intercomm(e.To)
					icTo[e.To] = ic
					vol.SetIntercommRole(e.Pattern, lowfive.RoleProduce, ic)
					if pol.Mode == Restart {
						// Published files double as checkpoints: the base
						// connector is the durable store a restarted
						// incarnation rejoins from.
						vol.SetPassthru(e.Pattern, true)
					}
				}
				icFrom := map[*mpi.Intercomm]string{}
				for _, e := range ins {
					ic := p.Intercomm(e.From)
					icFrom[ic] = e.From
					vol.SetIntercommRole(e.Pattern, lowfive.RoleConsume, ic)
				}
				taskRank := p.Task.Rank()
				world := p.World.Rank()
				if pol.Mode == Restart {
					vol.PersistOwnership = true
					vol.WaitForRestart = true
					vol.CallTimeout = restartCallTimeout
					vol.CallRetries = restartCallRetries
					vol.CallBackoff = restartCallBackoff
					vol.OnServe = func(name string) { run.recordServe(t.Name, taskRank, name) }
					vol.OnDoneAcked = func(ic *mpi.Intercomm, name string, prodRank int) {
						run.recordAck(icFrom[ic], t.Name, name, prodRank)
					}
				}
				run.touch(world)
				ctx := &TaskCtx{
					Attempt: p.Attempt,
					r:       run, task: t.Name, taskRank: taskRank, world: world, p: p,
				}
				var handles []*lowfive.ServeHandle
				if p.Attempt > 0 && pol.Mode == Restart && g.Stage != nil {
					ctx.Epoch = run.resumeEpoch(t.Name)
					p.SetEpoch(ctx.Epoch)
					// Staging mode: recovery is log replay. There are no
					// serve sessions to credit dones on and nothing to
					// re-serve — completed epochs live in the log, and the
					// replay rebuilds this rank's tree from its shard's
					// last committed span (PFS container only if the span
					// was GC-truncated). The interrupted epoch itself is
					// re-produced by the entry point, superseding any torn
					// commit in the log.
					for _, fname := range run.servedFiles(t.Name, ctx.Epoch) {
						t0 := time.Now()
						rs, err := vol.StageReplay(fname)
						if err != nil {
							panic(fmt.Errorf("workflow: task %q attempt %d: replay %q: %w",
								t.Name, p.Attempt, fname, err))
						}
						run.addReplay(rs, time.Since(t0))
					}
					if taskRank == 0 {
						run.addRecovery(int(ctx.Epoch), lowfive.RejoinStats{}, 0)
					}
				} else if p.Attempt > 0 && pol.Mode == Restart {
					ctx.Epoch = run.resumeEpoch(t.Name)
					p.SetEpoch(ctx.Epoch)
					// Credit dones the previous incarnation already collected:
					// consumers that fully acked a file will never resend.
					for _, fname := range run.servedFiles(t.Name, int64(1)<<62) {
						for _, e := range outs {
							if ok, _ := path.Match(e.Pattern, fname); ok {
								vol.CreditDone(icTo[e.To], fname, run.ackCount(t.Name, e.To, fname, taskRank))
							}
						}
					}
					// Rebuild and re-serve completed epochs' files from the
					// checkpoint containers; the interrupted epoch is
					// re-produced by the entry point below.
					rejoin := run.servedFiles(t.Name, ctx.Epoch)
					var rsum lowfive.RejoinStats
					for _, fname := range rejoin {
						rs, err := vol.Rejoin(fname)
						if err != nil {
							panic(fmt.Errorf("workflow: task %q attempt %d: rejoin %q: %w",
								t.Name, p.Attempt, fname, err))
						}
						rsum.Bytes += rs.Bytes
						h, err := vol.ServeAsync(fname)
						if err != nil {
							panic(fmt.Errorf("workflow: task %q attempt %d: re-serve %q: %w",
								t.Name, p.Attempt, fname, err))
						}
						handles = append(handles, h)
					}
					if taskRank == 0 {
						run.addRecovery(int(ctx.Epoch), rsum, len(rejoin))
					}
				}
				fapl := h5.NewFileAccessProps(vol)
				if t.EpochFn != nil {
					t.EpochFn(p, vol, fapl, ctx)
				} else {
					t.Fn(p, vol, fapl)
				}
				for _, h := range handles {
					if err := h.Wait(); err != nil {
						// A consumer that died mid-read is its own supervised
						// failure; only non-failure serve errors are fatal here.
						var rf *mpi.RankFailedError
						if !errors.As(err, &rf) {
							panic(err)
						}
					}
				}
			},
		}
	}

	maxRestarts := pol.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 3
	}
	sup := mpi.Supervisor{
		Heartbeat: pol.Heartbeat,
		OnFailure: func(f mpi.TaskFailure) mpi.Decision {
			switch pol.Mode {
			case Degrade:
				return mpi.DegradeTask
			case Restart:
				if f.Attempt >= maxRestarts {
					return mpi.FailWorkflow
				}
				return mpi.RestartTask
			default:
				return mpi.FailWorkflow
			}
		},
		Backoff: func(task string, attempt int) time.Duration {
			if pol.Backoff <= 0 {
				return 0
			}
			return pol.Backoff << (attempt - 1)
		},
	}
	if pol.EpochDeadline > 0 {
		sup.StallCheck = func(worldRank int) bool {
			return run.stalled(worldRank, pol.EpochDeadline)
		}
	}

	ws, err := mpi.RunWorkflowSupervised(specs, sup, opts...)
	stats.RestartCount = ws.RestartCount()
	for k, v := range ws.Restarts {
		stats.Restarts[k] = v
	}
	stats.Failures = ws.Failures
	stats.HungDetected = ws.HungDetected
	run.mu.Lock()
	stats.RecoveredEpochs = run.recoveredEpochs
	stats.Reindexed = run.reindexed
	stats.RejoinedBytes = run.rejoinedBytes
	stats.ReplayedFiles = run.replayedFiles
	stats.ReplayedRecords = run.replayedRecords
	stats.ReplayedBytes = run.replayedBytes
	stats.StageFallbacks = run.stageFallbacks
	stats.ReplayTime = run.replayTime
	run.mu.Unlock()
	return stats, err
}
