package harness

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"lowfive/h5"
	"lowfive/internal/core"
	"lowfive/internal/native"
	"lowfive/internal/pfs"
	"lowfive/internal/rpc"
	"lowfive/internal/workload"
	"lowfive/mpi"
)

// faultTolerance are the consumer-side RPC knobs used for every fault trial.
// The per-attempt timeout must comfortably exceed a cost-modeled response
// plus any injected delay; the retry budget must exceed every Count-bounded
// lossy rule in DefaultFaultCases.
const (
	faultCallTimeout = 400 * time.Millisecond
	faultCallRetries = 6
	faultCallBackoff = 2 * time.Millisecond
	faultReplication = 2
	faultWatchdog    = 30 * time.Second
)

// faultExchange runs one Synthetic exchange under k's plan and consumer
// tuning and returns each consumer rank's received bytes (grid then
// particles) with the summed consumer query stats.
func (c Config) faultExchange(spec workload.Spec, k Case) ([][]byte, Result) {
	fs := pfs.New(c.FS)
	if c.Metrics != nil {
		fs.SetMetrics(c.Metrics)
	}
	rec := &Recorder{}
	var errs errCollector
	data := make([][]byte, spec.Consumers)
	var qmu sync.Mutex
	var qstats core.QueryStats
	served := make(chan struct{}) // closed once every producer serves the file
	var serving atomic.Int32
	opts := append(c.mpiOpts(), mpi.WithWatchdog(faultWatchdog))
	if len(k.Plan.Rules) > 0 {
		opts = append(opts, mpi.WithFaultPlan(k.Plan))
	}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "producer", Procs: spec.Producers, Main: func(p *mpi.Proc) {
			gridVals, partVals := workload.GenerateProducer(spec, p.Task.Rank())
			vol := core.NewDistMetadataVOL(p.Task, native.New(native.PFSBackend(fs)))
			vol.SetIntercomm("*", p.Intercomm("consumer"))
			// Passthru writes the file to the PFS as well: the recovery
			// target for data that dies with a crashed rank.
			vol.SetPassthru("*", true)
			vol.ReplicationFactor = faultReplication
			vol.ChunkBytes = c.ChunkBytes
			vol.OnServe = func(string) {
				if serving.Add(1) == int32(spec.Producers) {
					close(served)
				}
			}
			c.instrument(vol, false)
			fapl := h5.NewFileAccessProps(vol)
			p.World.Barrier()
			rec.Start()
			f, err := h5.CreateFile("faults.h5", fapl)
			if err != nil {
				errs.add(err)
				return
			}
			errs.add(workload.WriteSynthetic(f, spec, p.Task.Rank(), gridVals, partVals))
			if err := f.Close(); err != nil { // index + serve
				var rf *mpi.RankFailedError
				if errors.As(err, &rf) && rf.Rank == p.World.Rank() {
					return // this rank was crashed by the plan; expected
				}
				errs.add(err)
				return
			}
			p.World.Barrier()
			rec.Stop()
		}},
		{Name: "consumer", Procs: spec.Consumers, Main: func(p *mpi.Proc) {
			r := p.Task.Rank()
			vol := core.NewDistMetadataVOL(p.Task, native.New(native.PFSBackend(fs)))
			vol.SetIntercomm("*", p.Intercomm("producer"))
			vol.CallTimeout = faultCallTimeout
			vol.CallRetries = faultCallRetries
			vol.CallBackoff = faultCallBackoff
			vol.ReplicationFactor = faultReplication
			vol.HedgeDelay = k.HedgeDelay
			vol.CallBudget = k.CallBudget
			c.instrument(vol, true)
			fapl := h5.NewFileAccessProps(vol)
			p.World.Barrier()
			rec.Start()
			if k.OpenWhenServed {
				<-served
			}
			f, err := h5.OpenFile("faults.h5", fapl)
			if err != nil {
				errs.add(err)
				return
			}
			gridBuf, partBuf, err := workload.ReadConsumer(f, spec, r)
			errs.add(err)
			errs.add(f.Close())
			if err == nil {
				buf := make([]byte, 0, len(gridBuf)*8+len(partBuf)*4)
				buf = append(buf, h5.Bytes(gridBuf)...)
				buf = append(buf, h5.Bytes(partBuf)...)
				data[r] = buf
				errs.add(workload.ValidateConsumer(spec, r, gridBuf, partBuf))
			}
			qmu.Lock()
			qstats.Add(vol.QueryStats())
			qmu.Unlock()
			p.World.Barrier()
			rec.Stop()
		}},
	}, opts...)
	if err == nil {
		err = errs.first()
	}
	return data, Result{Seconds: rec.Seconds(), Query: qstats, Err: err}
}

// DefaultFaultCases is the standard sweep: each lossy rule is Count-bounded
// below the consumers' retry budget, so every plan is deterministically
// survivable; the crash case removes one producer rank mid-serve, forcing
// replica failover for redirect queries and the file transport for the dead
// rank's data.
func DefaultFaultCases(seed int64) []Case {
	return []Case{
		{Name: "drop-requests", Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{
			{Action: mpi.FaultDrop, Rank: mpi.AnyRank, Tag: rpc.TagRequest, Count: 4},
		}}},
		{Name: "drop-responses", Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{
			{Action: mpi.FaultDrop, Rank: mpi.AnyRank, Tag: rpc.TagResponse, Count: 3},
		}}},
		{Name: "duplicate-requests", Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{
			{Action: mpi.FaultDuplicate, Rank: mpi.AnyRank, Tag: rpc.TagRequest, Count: 4},
		}}},
		{Name: "corrupt-responses", Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{
			{Action: mpi.FaultCorrupt, Rank: mpi.AnyRank, Tag: rpc.TagResponse, Count: 3},
		}}},
		{Name: "delay-responses", Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{
			{Action: mpi.FaultDelay, Rank: mpi.AnyRank, Tag: rpc.TagResponse, Count: 6,
				Delay: 20 * time.Millisecond},
		}}},
		{Name: "lossy-mix", Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{
			{Action: mpi.FaultDrop, Rank: mpi.AnyRank, Tag: rpc.TagRequest, Count: 2},
			{Action: mpi.FaultDuplicate, Rank: mpi.AnyRank, Tag: rpc.TagRequest, Count: 2},
			{Action: mpi.FaultCorrupt, Rank: mpi.AnyRank, Tag: rpc.TagResponse, Count: 2},
		}}},
		// The stream-chunk cases arm after several responses have passed,
		// so with a multi-frame stream (small Config.ChunkBytes) they hit a
		// data frame in the middle of a stream rather than the scalar
		// metadata/box responses that precede it. Recovery is the stream
		// retry contract: the consumer's per-frame timeout resends the
		// request and the producer re-streams from frame 0.
		{Name: "drop-stream-chunk", Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{
			{Action: mpi.FaultDrop, Rank: mpi.AnyRank, Tag: rpc.TagResponse, After: 4, Count: 2},
		}}},
		{Name: "corrupt-stream-chunk", Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{
			{Action: mpi.FaultCorrupt, Rank: mpi.AnyRank, Tag: rpc.TagResponse, After: 5, Count: 2},
		}}},
		{Name: "crash-producer-0", Want: Want{Degraded: true}, Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{
			// World rank 0 is producer task rank 0 (tasks are laid out in
			// spec order). It dies at its third response send — after serving
			// something, so the consumers are already talking to it.
			{Action: mpi.FaultCrash, Rank: 0, Tag: rpc.TagResponse, After: 2},
		}}},
		{Name: "crash-mid-stream", Want: Want{Degraded: true}, Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{
			// Like the stream-chunk cases, arming after several responses
			// puts the crash inside a multi-frame data stream (run the sweep
			// with small Config.ChunkBytes): the consumer is left holding a
			// partial stream whose remaining frames will never arrive, and
			// must abandon the cursor, fail over to a replica or fall back to
			// the file on the PFS, and still end up bit-identical.
			{Action: mpi.FaultCrash, Rank: 0, Tag: rpc.TagResponse, After: 4},
		}}},
		{Name: "crash-under-loss", Want: Want{Degraded: true}, Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{
			{Action: mpi.FaultCrash, Rank: 0, Tag: rpc.TagResponse, After: 2},
			{Action: mpi.FaultDrop, Rank: mpi.AnyRank, Tag: rpc.TagRequest, Count: 2},
			{Action: mpi.FaultDuplicate, Rank: mpi.AnyRank, Tag: rpc.TagResponse, Count: 2},
		}}},
	}
}

// Partition-sweep consumer tuning, layered on the faultTolerance knobs: the
// hedge delay must comfortably exceed a cost-modeled healthy response
// (NetAlpha is 2ms in the quick configs) while staying far below the
// per-attempt timeout; the end-to-end budget caps every call chain —
// including streams to a partitioned rank — well below the flat
// timeout×(retries+1) ladder, so a dead link costs one budget, not seven
// timeouts.
const (
	partitionHedgeDelay = 25 * time.Millisecond
	partitionCallBudget = 700 * time.Millisecond
)

// DefaultPartitionCases is the standard link-fault sweep. Every rule is
// scoped to producer world rank 0 — the single consumer's metadata partner
// (LocalRank mod producers), so the very first query of the exchange meets
// the fault — and to the RPC response tag, so producer-side collectives
// (barriers, the index alltoall) are untouched: these are link faults on
// the serve path, not rank crashes.
func DefaultPartitionCases(spec workload.Spec, seed int64) []Case {
	tuned := func(name string, want Want, rule mpi.FaultRule) Case {
		return Case{Name: name, HedgeDelay: partitionHedgeDelay, CallBudget: partitionCallBudget, Want: want,
			Plan: mpi.FaultPlan{Seed: seed, Rules: []mpi.FaultRule{rule}}}
	}
	slow := tuned("slow-producer", Want{HedgeWins: true, NoFallbacks: true, MaxSeconds: 10},
		mpi.FaultRule{Action: mpi.FaultDelay, Rank: 0, Tag: rpc.TagResponse, Count: 1,
			Delay: 150 * time.Millisecond})
	// The consumer opens once the file is served. A request parked past
	// the per-attempt timeout would be re-sent to rank 0 as well, which
	// answers the copy at once from its dedup cache, racing the hedge's
	// answer; the case would then test the retry, not the hedge.
	slow.OpenWhenServed = true
	return []Case{
		// One straggling response: the metadata answer is delayed far past
		// the hedge delay, so the consumer's hedge to a replica must win
		// while the straggler's answer is still in flight. Nothing is lost,
		// so no read may touch the file transport.
		slow,
		// An asymmetric partition that never heals within the run: rank 0
		// hears every request but all of its responses are silently dropped.
		// The metadata hedge wins, the EWMA demotes rank 0 before its box
		// queries are even tried, and the call budget caps the dead data
		// streams, so the whole exchange finishes well under the flat
		// timeout-ladder path (~timeout×(retries+1) per dead call chain).
		// Rank 0's own data is unreachable in memory and is recovered over
		// the passthru file — the paper's file transport as recovery path.
		tuned("asymmetric-partition", Want{HedgeWins: true, Demotions: true, MaxSeconds: 9},
			mpi.FaultRule{Action: mpi.FaultPartition, Rank: 0, Tag: rpc.TagResponse,
				Duration: 30 * time.Second}),
		// A partition that heals mid-exchange: shorter than one per-attempt
		// timeout, so the first retry of a stream caught inside the window
		// lands after the heal and completes in-memory — hedges cover the
		// scalar queries, the retry covers the stream, and no read ever
		// falls back to the file.
		tuned("healed-partition", Want{HedgeWins: true, NoFallbacks: true, MaxSeconds: 10},
			mpi.FaultRule{Action: mpi.FaultPartition, Rank: 0, Tag: rpc.TagResponse,
				Duration: 250 * time.Millisecond}),
		// A throttled link: rank 0's responses are serialized through a
		// choke point (throttleBandwidth), big frames proportionally
		// slower, FIFO order preserved. Everything arrives — late but
		// intact and in order — so the exchange completes entirely
		// in-memory with no retries forced by reordering.
		tuned("throttled-link", Want{NoFallbacks: true, MaxSeconds: 10},
			mpi.FaultRule{Action: mpi.FaultThrottle, Rank: 0, Tag: rpc.TagResponse,
				Bandwidth: throttleBandwidth(spec)}),
	}
}

// throttleBandwidth sizes the throttled-link case from the spec: rank 0's
// largest stream (its grid block or its particles) crosses the link in
// half the call budget, so the case measures FIFO pacing rather than
// forcing a budget overrun: any fixed rate is too slow for a large enough
// spec, whose reads then all fall back to the file. Small specs (the
// tests' scale) get the 200 KB/s floor.
func throttleBandwidth(spec workload.Spec) float64 {
	gridBytes := int64(8)
	for _, n := range spec.ProducerGridBox(0).Count() {
		gridBytes *= n
	}
	lo, hi := workload.ParticleRange(spec.TotalParticles(), spec.Producers, 0)
	largest := max(gridBytes, (hi-lo)*12)
	return max(200e3, float64(largest)/(partitionCallBudget/2).Seconds())
}
