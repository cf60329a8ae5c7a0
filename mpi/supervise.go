package mpi

import (
	"fmt"
	"sync"
	"time"

	"lowfive/trace"
)

// Workflow supervision: RunWorkflowSupervised launches the same MPMD task
// graph as RunWorkflow, but failures stop being terminal. A per-world
// monitor turns injected crashes (rankCrashPanic) and heartbeat-expired
// hangs into typed TaskFailure events, asks the Supervisor's policy what to
// do, and can tear down and relaunch a single task's ranks with fresh
// communicator incarnations while the rest of the world keeps running.
//
// The mpi layer provides mechanism only: detection, teardown, revival,
// incarnation fencing. Policy (how many restarts, backoff schedules, what
// state a restarted task resumes from) belongs to the workflow layer built
// on top.
//
// Contract for supervised tasks: a task that may be restarted must not
// participate in World-spanning collectives (its peers would deadlock at
// the barrier with a dead member); cross-task synchronization goes through
// the serve/done protocol of the VOL layers, whose RPC clients poll through
// a restart window.

// TaskFailure is the typed failure event the supervisor emits when a task
// rank crashes or its heartbeat expires. It implements error, so FailFast
// policies surface it directly from the run.
type TaskFailure struct {
	// Task is the name of the failed task.
	Task string
	// Rank is the task-local rank that failed; WorldRank its world rank.
	Rank, WorldRank int
	// Epoch is the application epoch the rank last published with
	// Proc.SetEpoch before failing (0 if it never did).
	Epoch int64
	// Attempt is how many restarts the task had already had when this
	// failure happened.
	Attempt int
	// Hung marks a heartbeat-deadline detection (a silent rank) rather
	// than a crash.
	Hung bool
}

func (f *TaskFailure) Error() string {
	kind := "crashed"
	if f.Hung {
		kind = "hung (heartbeat expired)"
	}
	return fmt.Sprintf("mpi: task %q rank %d (world rank %d) %s at epoch %d, attempt %d",
		f.Task, f.Rank, f.WorldRank, kind, f.Epoch, f.Attempt)
}

// Decision is a supervisor policy's answer to a TaskFailure.
type Decision uint8

const (
	// FailWorkflow aborts the whole world; the run returns the TaskFailure.
	FailWorkflow Decision = iota
	// DegradeTask leaves the failed rank dead and lets the rest of the
	// workflow continue on the fault-tolerant paths (replica failover, file
	// fallback). Further failures of the same task are recorded but no
	// longer consulted.
	DegradeTask
	// RestartTask tears down every rank of the failed task and relaunches
	// the task with fresh communicator incarnations.
	RestartTask
)

// Supervisor configures the failure monitor of a supervised workflow run.
// All callbacks are invoked from the single supervisor goroutine, never
// concurrently.
type Supervisor struct {
	// Heartbeat is the deadline after which a rank that is neither blocked
	// in a receive nor making message-passing progress is declared hung and
	// treated as failed. Zero disables hang detection (crashes are still
	// detected). It must exceed the longest pure-compute gap between a
	// task's MPI operations.
	Heartbeat time.Duration
	// OnFailure decides what to do about a failure. Nil means FailWorkflow.
	OnFailure func(f TaskFailure) Decision
	// Backoff returns how long to wait before relaunching a task after its
	// attempt-th restart was decided (attempt counts from 1). Nil means no
	// delay.
	Backoff func(task string, attempt int) time.Duration
	// StallCheck, when set, is an additional per-rank hang predicate
	// consulted on every heartbeat poll (e.g. an application-level
	// per-epoch deadline). Returning true fails the rank like an expired
	// heartbeat.
	StallCheck func(worldRank int) bool
}

// WorkflowStats is what a supervised run observed.
type WorkflowStats struct {
	// Restarts counts restarts per task name.
	Restarts map[string]int
	// Failures are the failure events policy was consulted about, in
	// detection order (teardown casualties are not separate events).
	Failures []TaskFailure
	// HungDetected counts ranks failed by heartbeat deadline or StallCheck.
	HungDetected int
}

// RestartCount is the total number of task restarts across the run.
func (s *WorkflowStats) RestartCount() int {
	n := 0
	for _, c := range s.Restarts {
		n += c
	}
	return n
}

// task lifecycle states of the supervisor loop
const (
	tsRunning     = iota // ranks live, failures consulted
	tsTearingDown        // restart decided; waiting for all ranks to die
	tsWaitBackoff        // all ranks dead; relaunch timer pending
	tsDegraded           // failures no longer consulted; survivors run on
	tsDone               // all ranks exited (possibly degraded)
	tsFailed             // terminal after an abort
)

type taskState struct {
	state    int
	gen      int // launch generation; exits carry it so stale ones are ignored
	live     int // launched goroutines not yet exited
	decided  bool
	restarts int
}

type rankExit struct {
	ti, taskRank int
	gen          int
	crashed      bool
	peer         int // world rank whose failure killed this one, or -1
	err          error
}

// RunWorkflowSupervised launches the tasks like RunWorkflow, supervised by
// sup. It returns the stats the monitor gathered and the first terminal
// error (a *TaskFailure under a FailFast policy), or nil if the workflow
// completed.
func RunWorkflowSupervised(specs []TaskSpec, sup Supervisor, opts ...Option) (*WorkflowStats, error) {
	stats := &WorkflowStats{Restarts: map[string]int{}}
	ranges, total, err := layoutWorkflow(specs)
	if err != nil {
		return stats, err
	}
	w := NewWorld(total, opts...)
	w.enableSupervision()
	labelTracks(w, specs, ranges)
	if w.tracks != nil {
		for r := range w.tracks {
			if w.tracks[r] == nil {
				w.tracks[r] = w.tracer.NewTrack("world", 0, fmt.Sprintf("rank %d", r), r)
			}
		}
	}

	stopWatch := make(chan struct{})
	if w.watchdog > 0 {
		go w.watch(stopWatch)
	}
	defer close(stopWatch)

	tasks := make([]*taskState, len(specs))
	for ti := range tasks {
		tasks[ti] = &taskState{}
	}
	running := make([]bool, total)  // launched and not yet exited
	hungRanks := make(map[int]bool) // failed by heartbeat, for event labeling

	exits := make(chan rankExit, total+16)
	relaunch := make(chan int, len(specs))
	var wg sync.WaitGroup
	liveTotal := 0
	pendingTimers := 0
	aborting := false
	var finalErr error

	launch := func(ti, taskRank int) {
		ts := tasks[ti]
		wr := ranges[ti][taskRank]
		inc := w.incs[wr].Load()
		p := buildProc(w, specs, ranges, ti, taskRank, inc, ts.restarts)
		gen := ts.gen
		running[wr] = true
		ts.live++
		liveTotal++
		wg.Add(1)
		go func() {
			e := rankExit{ti: ti, taskRank: taskRank, gen: gen, peer: -1}
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					switch r := rec.(type) {
					case rankCrashPanic:
						e.crashed = true
					case *RankFailedError:
						// The rank died blocked on a crashed peer it had no
						// recovery for; under supervision that is a cascading
						// task failure for policy, not a world abort.
						e.crashed = true
						e.peer = r.Rank
					case *AbortedError:
						// World going down; nothing to report per rank.
					default:
						err, ok := rec.(error)
						if !ok {
							err = fmt.Errorf("rank %d panicked: %v", wr, rec)
						}
						e.err = err
						w.Abort(fmt.Errorf("rank %d: %v", wr, rec))
					}
				} else if w.RankFailed(wr) {
					// Fn returned normally but the rank was marked failed in
					// a helper goroutine mid-run: treat as a crash so the
					// supervisor still consults policy.
					e.crashed = true
				}
				w.markExited(wr)
				exits <- e
			}()
			specs[ti].Main(p)
		}()
	}

	detect := func(wr int, hung bool, attempt int) *TaskFailure {
		ti := taskOfRank(ranges, wr)
		f := &TaskFailure{
			Task:      specs[ti].Name,
			Rank:      wr - ranges[ti][0],
			WorldRank: wr,
			Epoch:     w.Epoch(wr),
			Attempt:   attempt,
			Hung:      hung,
		}
		if tr := w.tracks; tr != nil && tr[wr] != nil {
			kind := "crash"
			if hung {
				kind = "hang"
			}
			tr[wr].Instant("supervisor", "supervisor.detect",
				trace.Str("task", f.Task), trace.I64("rank", int64(f.Rank)),
				trace.I64("epoch", f.Epoch), trace.Str("kind", kind))
		}
		return f
	}

	handleFail := func(wr int) {
		if aborting {
			return
		}
		ti := taskOfRank(ranges, wr)
		ts := tasks[ti]
		if ts.state != tsRunning && ts.state != tsDegraded {
			return // teardown casualty or stale event
		}
		if ts.decided {
			return
		}
		f := detect(wr, hungRanks[wr], ts.restarts)
		stats.Failures = append(stats.Failures, *f)
		if ts.state == tsDegraded {
			return // recorded, but policy no longer consulted
		}
		decision := FailWorkflow
		if sup.OnFailure != nil {
			decision = sup.OnFailure(*f)
		}
		switch decision {
		case DegradeTask:
			ts.state = tsDegraded
		case RestartTask:
			ts.decided = true
			ts.state = tsTearingDown
			// Mark every rank of the task — including ones that already
			// exited — so revival purges all mailboxes and bumps every
			// incarnation: queued pre-crash messages must never alias into
			// the relaunched generation's identically-derived comm IDs.
			for _, r := range ranges[ti] {
				w.markFailed(r)
			}
		default: // FailWorkflow
			aborting = true
			finalErr = f
			w.Abort(f)
		}
	}

	scheduleRelaunch := func(ti int) {
		ts := tasks[ti]
		ts.state = tsWaitBackoff
		attempt := ts.restarts + 1
		var d time.Duration
		if sup.Backoff != nil {
			d = sup.Backoff(specs[ti].Name, attempt)
		}
		pendingTimers++
		if d <= 0 {
			relaunch <- ti
			return
		}
		time.AfterFunc(d, func() { relaunch <- ti })
	}

	doRelaunch := func(ti int) {
		ts := tasks[ti]
		if aborting {
			ts.state = tsFailed
			return
		}
		ts.restarts++
		stats.Restarts[specs[ti].Name]++
		for _, wr := range ranges[ti] {
			w.reviveRank(wr)
			delete(hungRanks, wr)
		}
		ts.gen++
		ts.state = tsRunning
		ts.decided = false
		wr0 := ranges[ti][0]
		if tr := w.tracks; tr != nil && tr[wr0] != nil {
			tr[wr0].Instant("supervisor", "supervisor.restart",
				trace.Str("task", specs[ti].Name), trace.I64("attempt", int64(ts.restarts)))
		}
		for j := range ranges[ti] {
			launch(ti, j)
		}
	}

	handleExit := func(e rankExit) {
		ts := tasks[e.ti]
		if e.gen != ts.gen {
			return // a previous generation's goroutine (already accounted)
		}
		wr := ranges[e.ti][e.taskRank]
		running[wr] = false
		ts.live--
		liveTotal--
		if e.err != nil && finalErr == nil {
			aborting = true
			finalErr = e.err
		}
		if e.crashed {
			// A casualty of a failed peer can exit before the peer's failure
			// event arrives. The peer is the root cause: while its task is
			// still undecided, it decides the policy (and, failing fast, is
			// the failure the run returns).
			if p := e.peer; p >= 0 && w.RankFailed(p) {
				if pts := tasks[taskOfRank(ranges, p)]; pts.state == tsRunning && !pts.decided {
					handleFail(p)
				}
			}
			handleFail(wr)
		}
		if ts.live > 0 {
			return
		}
		switch ts.state {
		case tsTearingDown:
			scheduleRelaunch(e.ti)
		case tsRunning, tsDegraded:
			ts.state = tsDone
		}
	}

	checkBeats := func() {
		if sup.Heartbeat <= 0 && sup.StallCheck == nil {
			return
		}
		now := time.Now().UnixNano()
		for wr := 0; wr < total; wr++ {
			ts := tasks[taskOfRank(ranges, wr)]
			if ts.state != tsRunning || !running[wr] || w.RankFailed(wr) {
				continue
			}
			stale := sup.Heartbeat > 0 && now-w.lastBeat(wr) > int64(sup.Heartbeat)
			if stale {
				// A rank legitimately blocked in a receive is not hung: it
				// wakes on delivery, peer failure, or abort. Hang detection
				// is for silent ranks the mailbox cannot see.
				if p := w.RankProgress(wr); p.Blocked {
					continue
				}
			}
			if !stale && (sup.StallCheck == nil || !sup.StallCheck(wr)) {
				continue
			}
			hungRanks[wr] = true
			stats.HungDetected++
			w.markFailed(wr)
		}
	}

	for ti := range specs {
		for j := range ranges[ti] {
			launch(ti, j)
		}
	}

	poll := 50 * time.Millisecond
	if sup.Heartbeat > 0 {
		poll = sup.Heartbeat / 4
	}
	beatTick := time.NewTicker(poll)
	defer beatTick.Stop()

	for liveTotal > 0 || pendingTimers > 0 {
		select {
		case e := <-exits:
			handleExit(e)
		case wr := <-w.failEvents:
			// Fence stale events: markFailed queues the rank before the
			// supervisor decides anything, and the select may service the
			// relaunch channel first. Only this goroutine revives ranks, so
			// an event for a rank that is no longer failed must predate its
			// revival — acting on it would double-count one incident as a
			// fresh failure of the relaunched generation.
			if w.RankFailed(wr) {
				handleFail(wr)
			}
		case ti := <-relaunch:
			pendingTimers--
			doRelaunch(ti)
		case <-beatTick.C:
			checkBeats()
		}
	}
	wg.Wait()
	if finalErr == nil && w.aborted.Load() {
		finalErr = &AbortedError{Err: w.abortReason()}
	}
	return stats, finalErr
}
