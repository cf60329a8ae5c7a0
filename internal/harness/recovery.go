package harness

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lowfive"
	"lowfive/h5"
	"lowfive/internal/buf"
	"lowfive/internal/native"
	"lowfive/internal/pfs"
	"lowfive/internal/rpc"
	"lowfive/internal/stage"
	"lowfive/metrics"
	"lowfive/mpi"
	"lowfive/workflow"
)

// The fixed coupling shape of every Epochs case: two producer ranks
// publish one row-decomposed uint64 grid per epoch, two consumer ranks read
// column slabs of it. Element values encode (epoch, global index), so the
// bit-compare against the baseline is also a value check.
const (
	recoveryProducers = 2
	recoveryConsumers = 2
	recoveryEpochs    = 3
	// recoveryHeartbeat is the hang-detection deadline of the hang case:
	// generous against cost-modeled PFS and network delays (a few ms per
	// op), tiny against the watchdog.
	recoveryHeartbeat = 300 * time.Millisecond
	// recoveryPoolLimit bounds the trial's private chunk pool; small enough
	// that leaked frames from a torn-down incarnation would show up as
	// overflow on the restarted one.
	recoveryPoolLimit = 16
)

var recoveryDims = []int64{24, 16}

// epochExchange runs one supervised Epochs exchange under k's plan and
// policy and returns each consumer rank's received bytes (epochs
// concatenated in order). Without k.Stage a restarted rank rejoins its
// published files from the checkpoint containers, frames come from a
// private chunk pool (snapshotted into Result.Pool), and a peer's
// RankFailedError is the expected shape of the fault. With k.Stage the
// files go through a staging store, a restarted rank replays its log, and
// every rank error counts.
func (c Config) epochExchange(k Case) ([][]byte, Result) {
	fs := pfs.New(c.FS)
	rec := &Recorder{}
	var errs errCollector
	data := make([][]byte, recoveryConsumers)
	var mu sync.Mutex

	g := workflow.Graph{
		Tasks: []workflow.Task{
			{Name: "producer", Procs: recoveryProducers},
			{Name: "consumer", Procs: recoveryConsumers},
		},
		Edges: []workflow.Edge{{From: "producer", To: "consumer", Pattern: "epoch*.h5"}},
	}
	var pool *buf.Pool
	var reg *metrics.Registry
	if sf := k.Stage; sf != nil {
		// The store gets its own registry so the replay-latency histogram
		// covers exactly this run's recoveries.
		reg = metrics.NewRegistry()
		opt := stage.Options{Replicas: max(1, sf.Replicas), AutoGC: sf.AutoGC, Metrics: reg}
		if sf.Fire != nil {
			var once sync.Once
			opt.OnCommit = func(file string, rank int, _ int64) {
				if file == sf.File && (sf.Rank == mpi.AnyRank || rank == sf.Rank) {
					once.Do(func() { sf.Fire(g.Stage, file, rank) })
				}
			}
		}
		g.Stage = stage.NewStore(opt)
	} else {
		chunk := c.ChunkBytes
		if chunk == 0 {
			chunk = buf.DefaultChunkBytes
		}
		pool = buf.NewPool(chunk, recoveryPoolLimit)
	}
	// Under Rejoin supervision a failed producer rank surfaces as a
	// RankFailedError somewhere in a peer's error chain while the task is
	// torn down: the expected shape of the fault, not a trial error.
	addErr := func(err error) {
		var rf *mpi.RankFailedError
		if k.Stage != nil || !errors.As(err, &rf) {
			errs.add(err)
		}
	}

	rows := recoveryDims[0] / recoveryProducers
	cols := recoveryDims[1] / recoveryConsumers
	g.BindEpoch("producer", func(p *mpi.Proc, vol *lowfive.DistMetadataVOL, fapl *h5.FileAccessProps, ctx *workflow.TaskCtx) {
		vol.ChunkPool = pool
		r := int64(p.Task.Rank())
		rec.Start()
		defer rec.Stop()
		for e := ctx.Epoch; e < recoveryEpochs; e++ {
			f, err := h5.CreateFile(fmt.Sprintf("epoch%d.h5", e), fapl)
			if err != nil {
				errs.add(err)
				return
			}
			ds, err := f.CreateDataset("grid", h5.U64, h5.NewSimple(recoveryDims...))
			if err != nil {
				errs.add(err)
				return
			}
			sel := h5.NewSimple(recoveryDims...)
			sel.SelectHyperslab(h5.SelectSet, []int64{r * rows, 0}, []int64{rows, recoveryDims[1]})
			vals := make([]uint64, rows*recoveryDims[1])
			for i := range vals {
				vals[i] = uint64(e)*1_000_000 + uint64(r*rows*recoveryDims[1]) + uint64(i)
			}
			if err := ds.Write(nil, sel, h5.Bytes(vals)); err != nil {
				errs.add(err)
				return
			}
			ds.Close()
			if err := f.Close(); err != nil { // checkpoint + index + serve, or publish to the log
				addErr(err)
				return
			}
			ctx.EpochDone(e)
		}
	})
	g.BindEpoch("consumer", func(p *mpi.Proc, vol *lowfive.DistMetadataVOL, fapl *h5.FileAccessProps, ctx *workflow.TaskCtx) {
		r := p.Task.Rank()
		mu.Lock()
		data[r] = nil // a restarted consumer attempt must not double-append
		mu.Unlock()
		rec.Start()
		defer rec.Stop()
		for e := ctx.Epoch; e < recoveryEpochs; e++ {
			f, err := h5.OpenFile(fmt.Sprintf("epoch%d.h5", e), fapl)
			if err != nil {
				addErr(err)
				return
			}
			ds, err := f.OpenDataset("grid")
			if err != nil {
				errs.add(err)
				return
			}
			sel := h5.NewSimple(recoveryDims...)
			sel.SelectHyperslab(h5.SelectSet, []int64{0, int64(r) * cols}, []int64{recoveryDims[0], cols})
			out := make([]uint64, recoveryDims[0]*cols)
			if err := ds.Read(nil, sel, h5.Bytes(out)); err != nil {
				addErr(err)
				return
			}
			ds.Close()
			if err := f.Close(); err != nil { // staged: acks the epoch, advancing the watermark
				addErr(err)
				return
			}
			mu.Lock()
			data[r] = append(data[r], h5.Bytes(out)...)
			mu.Unlock()
			ctx.EpochDone(e)
		}
	})

	opts := append(c.mpiOpts(), mpi.WithWatchdog(faultWatchdog))
	if len(k.Plan.Rules) > 0 {
		opts = append(opts, mpi.WithFaultPlan(k.Plan))
	}
	stats, err := workflow.RunSupervised(g,
		func() h5.Connector { return native.New(native.PFSBackend(fs)) }, k.Policy, opts...)
	if err == nil {
		err = errs.first()
	}
	res := Result{Seconds: rec.Seconds()}
	if stats != nil {
		res.Run = *stats
		res.ReplayMs = float64(stats.ReplayTime.Nanoseconds()) / 1e6
	}
	if g.Stage != nil {
		res.Log = g.Stage.Stats()
		if err == nil && res.Run.ReplayedFiles > 0 && res.Run.StageFallbacks != res.Run.ReplayedFiles &&
			reg.Histogram("stage.replay.latency_us").Snapshot().Count == 0 {
			err = fmt.Errorf("harness: %d replays left no trace in the replay-latency histogram", res.Run.ReplayedFiles)
		}
	}
	if pool != nil {
		// Receivers release pooled frames as they drain; give stragglers a
		// moment before snapshotting so Outstanding reflects the settled
		// state.
		for i := 0; i < 200 && pool.Outstanding() > 0; i++ {
			time.Sleep(time.Millisecond)
		}
		res.Pool = pool.Stats()
	}
	res.Err = err
	return data, res
}

// DefaultRecoveryCases is the supervised-recovery table: a producer rank
// crashed or hung mid-run, detected (crash event or heartbeat expiry), torn
// down and relaunched, rejoining completed epochs from the checkpoint
// containers on the PFS. Every fault rule is Count-bounded: fired counts
// persist across restarts, so an unbounded crash or hang rule would take
// down every relaunched incarnation until the restart budget ran out.
func DefaultRecoveryCases(seed int64) []Case {
	hang := restartPolicy
	hang.Heartbeat = recoveryHeartbeat
	crash := mpi.FaultRule{Action: mpi.FaultCrash, Rank: 0, Tag: rpc.TagResponse, After: 10, Count: 1}
	epochs := func(name string, pol workflow.Policy, want Want, rules ...mpi.FaultRule) Case {
		want.Restarts = 1
		return Case{Name: name, Shape: Epochs, Policy: pol, Want: want,
			Plan: mpi.FaultPlan{Seed: seed, Rules: rules}}
	}
	return []Case{
		// World rank 0 is producer task rank 0 (tasks are laid out in spec
		// order). After 10 responses it is past the first epoch's serve
		// traffic, so the restart exercises rejoin of completed epochs, not
		// just a from-scratch rerun.
		epochs("crash-then-restart", restartPolicy, Want{}, crash),
		// The hang parks the rank without marking it blocked: no crash event
		// is ever raised, and only the heartbeat deadline can notice the
		// missing progress.
		epochs("hang-then-timeout", hang, Want{Hung: true},
			mpi.FaultRule{Action: mpi.FaultHang, Rank: 0, Tag: rpc.TagResponse, After: 10, Count: 1}),
		// Crash recovery under ambient message loss: the consumers' retry
		// budget absorbs the drops while they wait out the restart.
		epochs("crash-under-loss", restartPolicy, Want{}, crash,
			mpi.FaultRule{Action: mpi.FaultDrop, Rank: mpi.AnyRank, Tag: rpc.TagRequest, Count: 2}),
	}
}

// DefaultStagingCases is the staged-log table: the same Epochs coupling
// through the log-structured staging store. Producers publish each file
// close as a committed epoch of a replicated chunk log, consumers read
// epochs from the log, and a restarted producer recovers by replaying its
// shard's last committed span instead of Rejoin + Reindex. Faults come
// through the store's commit hook: leader crash, follower crash, a rank
// crash torn across its own epoch commit, and GC truncation racing a
// restarted rank's replay. Every case must also prove the replay path, not
// the re-serve path, did the work.
func DefaultStagingCases() []Case {
	crash := func(_ *stage.Store, _ string, rank int) { panic(&mpi.RankFailedError{Rank: rank}) }
	cases := []Case{
		// The shard leader dies in the instant between replicating an epoch
		// commit and making it visible. The surviving follower has every
		// acked record by the lockstep invariant, failover promotes it, and
		// consumers read the epoch from the new leader — no task restart, no
		// supervisor involvement.
		{Name: "leader-crash",
			Stage: &StageFault{Replicas: 2, File: "epoch0.h5", Rank: mpi.AnyRank,
				Fire: func(st *stage.Store, file string, rank int) { st.FailLeader(file, rank) }},
			Want: Want{Check: func(r *Result) error {
				if r.Log.Failovers < 1 {
					return fmt.Errorf("leader crash caused no failover")
				}
				if r.Log.DeadReplicas < 1 {
					return fmt.Errorf("leader crash left no dead replica")
				}
				return nil
			}}},
		// A follower dies; the leader keeps serving and later appends simply
		// stop replicating to the lost copy. Nothing fails over.
		{Name: "follower-crash",
			Stage: &StageFault{Replicas: 2, File: "epoch0.h5", Rank: mpi.AnyRank,
				Fire: func(st *stage.Store, file string, rank int) { st.FailFollower(file, rank) }},
			Want: Want{Check: func(r *Result) error {
				if r.Log.DeadReplicas < 1 {
					return fmt.Errorf("follower crash left no dead replica")
				}
				if r.Log.Failovers != 0 {
					return fmt.Errorf("follower crash must not fail over the leader (got %d)", r.Log.Failovers)
				}
				return nil
			}}},
		// Producer rank 0 crashes inside its own commit of the second epoch:
		// the commit record is in the log but the epoch was never made
		// visible. The supervisor restarts the task; the restarted rank
		// replays epoch0.h5's committed span (delta, not history), re-runs
		// the interrupted epoch, and its re-begin supersedes the torn span.
		{Name: "crash-during-commit",
			Stage: &StageFault{Replicas: 2, File: "epoch1.h5", Rank: 0, Fire: crash},
			Want: Want{Restarts: 1, Check: func(r *Result) error {
				if r.Run.ReplayedFiles < 1 {
					return fmt.Errorf("restart recovered without log replay")
				}
				if r.Log.SupersededEpochs < 1 {
					return fmt.Errorf("torn commit was not superseded by the re-begin")
				}
				if r.Run.StageFallbacks != 0 {
					return fmt.Errorf("replay fell back to PFS with the log intact (%d fallbacks)", r.Run.StageFallbacks)
				}
				// Replay cost must be the delta since the last commit, not
				// the whole history: each replayed shard scans one span
				// (begin + chunks + commit), a small fraction of everything
				// the run appended.
				if r.Log.Appends > 0 && int64(r.Run.ReplayedRecords) >= r.Log.Appends/2 {
					return fmt.Errorf("replay scanned %d of %d appended records — not proportional to the delta",
						r.Run.ReplayedRecords, r.Log.Appends)
				}
				return nil
			}}},
		// GC truncation racing recovery: consumers ack each epoch at close
		// and AutoGC truncates below the watermark. The fault waits until
		// the first two files' epochs are truncated, then crashes rank 0 in
		// its last commit — so the restarted rank's replay finds its spans
		// gone and must degrade to the PFS container (Rejoin without the
		// collective reindex), never serving from a truncated log.
		{Name: "truncated-log",
			Stage: &StageFault{Replicas: 1, AutoGC: true, File: "epoch2.h5", Rank: 0,
				Fire: func(st *stage.Store, file string, rank int) {
					deadline := time.Now().Add(10 * time.Second)
					for time.Now().Before(deadline) {
						if st.Watermark("epoch0.h5") >= 1 && st.Watermark("epoch1.h5") >= 1 {
							break
						}
						time.Sleep(time.Millisecond)
					}
					crash(st, file, rank)
				}},
			Want: Want{Restarts: 1, Check: func(r *Result) error {
				if r.Log.TruncatedEpochs < 1 {
					return fmt.Errorf("GC truncated nothing — the case never exercised the fallback")
				}
				if r.Run.StageFallbacks < 1 {
					return fmt.Errorf("truncated replay did not fall back to the PFS container")
				}
				return nil
			}}},
	}
	// Every staging case runs the Epochs shape under restart supervision,
	// and recovery must never take the Rejoin re-serve path.
	for i := range cases {
		cases[i].Shape, cases[i].Policy, cases[i].Want.NoReindex = Epochs, restartPolicy, true
	}
	return cases
}
