package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lowfive/h5"
	"lowfive/internal/buf"
	"lowfive/internal/core"
	"lowfive/internal/grid"
	"lowfive/internal/native"
	"lowfive/internal/pfs"
	"lowfive/internal/workload"
	"lowfive/mpi"
	"lowfive/trace"
)

// runConfig is one run of one workload in this process.
type runConfig struct {
	wl      workloadDef
	seed    uint64
	seconds float64
	// A traced run spends tracedWindow of its seconds on the workload, every
	// other epoch with spans on, and tracedLadder of them on the kernel
	// ladder; end-to-end numbers are only ever taken from untraced
	// runs.
	traced   bool
	traceOut string
	// smoke is the self-test sizing: set-up is repeated only twice.
	smoke bool
}

// window is how long the run measures the workload.
func (c runConfig) window() float64 {
	if c.traced {
		return c.seconds * tracedWindow
	}
	return c.seconds
}

// runResult is everything one run measured. Samples holds the sample count
// behind every percentile.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Samples   map[string]int     `json:"samples"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	// Digest is a CRC-32C of each consumer's buffers after the first
	// measured epoch; bw-chan and bw-sock must agree on it.
	Digest   string   `json:"digest"`
	Warnings []string `json:"warnings,omitempty"`
	// KernelReps is every repetition of a traced run's kernel ladder.
	KernelReps map[string][]float64 `json:"kernel_reps,omitempty"`
}

// counters is one rank's cumulative counter snapshot after an epoch.
type counters [nCounters]int64

const (
	cDataQueries = iota // producer vol.Stats()
	cBoxQueries
	cMetadataRequests
	cChunksServed
	cBytesServed
	cRetries // consumer vol.QueryStats()
	cFailovers
	cQueryWaitNs
	cSentFrames // World.SockStats()
	cSentBytes
	cResentFrames
	cReconnects
	nCounters
)

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) add(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// exact drops the one counter that is a time, so two epochs compare equal
// when they did the same work.
func (c counters) exact() counters {
	c[cQueryWaitNs] = 0
	return c
}

// epochRec is what one rank records about one epoch.
type epochRec struct {
	start, stop time.Time     // after the opening barrier, after the closing one
	blocked     time.Duration // producer: CreateFile to Close return
	spans       bool          // the epoch ran with spans on
	latEnd      int           // consumer: len(lat) after this epoch
	reads       int           // consumer: Dataset.Read calls completed in this epoch
	failed      bool
	snap        counters
	pool        buf.PoolStats // rank 0 only: buf.Default after the epoch
}

// control carries rank 0's decisions to the other ranks. Rank 0 writes
// before it enters an opening barrier and the others read after they leave
// it, so every rank runs the same epochs with the same settings.
type control struct {
	stop  atomic.Bool
	spans atomic.Bool
}

// window is rank 0's record of one pass's measured epochs.
type window struct {
	first      int // first measured epoch of the pass
	last       int // last measured epoch of the pass
	mem0, mem1 runtime.MemStats
}

// tally is what the passes of a run add up to.
type tally struct {
	passes, measured  int
	attempted, failed int
	reads             int
	// One sample per epoch run with spans off; traced holds the others'
	// exchange times. lat is one sample per read of the grid dataset.
	exch, traced, blocked, lat []float64

	// Per-epoch counters of the first measured epoch; every other must repeat it.
	first          counters
	gets, overflow int64
	repeats        bool
	waitNs         int64
	endPool        buf.PoolStats
	digest         string

	allocBytes, mallocs, gcPauseNs uint64
	gcCycles                       uint32
	heapInuse                      uint64
}

type runner struct {
	cfg    runConfig
	spec   workload.Spec
	dims   []int64
	tracer *trace.Tracer
	tracks [worldSize]*trace.Track
	ctl    control
	fs     *pfs.FS // file mode: the shared zero-cost file system

	win   window    // the pass in progress
	t0    time.Time // the first measured epoch of the run began
	base  int       // epochs run by earlier passes: epoch ids are base + e
	over  bool      // rank 0 decided that this pass is the run's last
	tally tally
}

// rank is one world rank's state. Only that rank's goroutine touches it
// while the world runs.
type rank struct {
	r        *runner
	p        *mpi.Proc
	wr       int // world rank
	producer bool
	track    *trace.Track
	fapl     *h5.FileAccessProps
	dist     *core.DistMetadataVOL // nil in file mode
	meta     *core.MetadataVOL     // file mode

	gridVals []uint64 // producer
	partVals []float32

	gridBuf []uint64 // consumer, bulk and file
	partBuf []float32
	gridSel *h5.Dataspace
	partSel *h5.Dataspace
	qbox    []grid.Box // consumer, query
	qsel    []*h5.Dataspace
	arena   [][]uint64

	recs   []epochRec
	lat    []time.Duration // one per read of the grid dataset
	reads  int             // Dataset.Read calls completed in the current epoch
	digest uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fileName is fixed-width: the name travels in every request, so a longer
// one would change the per-epoch byte counters at epochs 10, 100, ...
func fileName(e int) string { return fmt.Sprintf("step%06d.h5", e) }

// newRank does one rank's share of set-up: generate the producer's blocks or
// allocate the consumer's read buffers and selections, and build the one VOL
// the rank keeps for the whole pass.
func (r *runner) newRank(p *mpi.Proc) *rank {
	k := &rank{r: r, p: p, wr: p.World.Rank(), producer: p.TaskName == "producer"}
	wl, spec, tr := r.cfg.wl, r.spec, p.Task.Rank()
	if wl.kind == kindFile {
		k.meta = core.NewMetadataVOL(native.New(native.PFSBackend(r.fs)))
		k.meta.SetPassthru("*", true)
		k.fapl = h5.NewFileAccessProps(k.meta)
	} else {
		k.dist = core.NewDistMetadataVOL(p.Task, nil)
		if k.producer {
			k.dist.SetIntercomm("*", p.Intercomm("consumer"))
			k.dist.SetZeroCopy("*", "*")
		} else {
			k.dist.SetIntercomm("*", p.Intercomm("producer"))
		}
		k.fapl = h5.NewFileAccessProps(k.dist)
	}
	switch {
	case k.producer:
		k.gridVals, k.partVals = workload.GenerateProducer(spec, tr)
	case wl.kind == kindQuery:
		k.qbox = r.queryBoxes(tr)
		k.qsel = make([]*h5.Dataspace, len(k.qbox))
		k.arena = make([][]uint64, len(k.qbox))
		for i, b := range k.qbox {
			k.qsel[i] = h5.NewSimple(r.dims...)
			if err := k.qsel[i].SelectBox(h5.SelectSet, b); err != nil {
				panic(err)
			}
			k.arena[i] = make([]uint64, b.NumPoints())
		}
	default:
		k.gridSel = h5.NewSimple(r.dims...)
		if err := k.gridSel.SelectBox(h5.SelectSet, spec.ConsumerGridBox(tr)); err != nil {
			panic(err)
		}
		k.gridBuf = make([]uint64, k.gridSel.NumSelected())
		lo, hi := workload.ParticleRange(spec.TotalParticles(), spec.Consumers, tr)
		k.partSel = h5.NewSimple(spec.TotalParticles(), 3)
		if err := k.partSel.SelectHyperslab(h5.SelectSet, []int64{lo, 0}, []int64{hi - lo, 3}); err != nil {
			panic(err)
		}
		k.partBuf = make([]float32, k.partSel.NumSelected())
	}
	return k
}

// queryBoxes draws one client's box sequence: zipf-distributed picks from a
// fixed ranked population of 16^3 boxes, the order driven by the run's seed.
// Every epoch of a run replays the same sequence, so per-epoch counters
// repeat exactly.
func (r *runner) queryBoxes(client int) []grid.Box {
	pop := workload.StormSpec{Seed: populationSeed, Boxes: queryBoxes, BoxSide: queryBoxSide}.Population(r.dims)
	rng := rand.New(rand.NewSource(int64(r.cfg.seed)*7919 + int64(client)))
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(pop)-1))
	out := make([]grid.Box, r.cfg.wl.queries)
	for i := range out {
		out[i] = pop[z.Uint64()]
	}
	return out
}

func (k *rank) span(on bool, name string, t0, t1 time.Time, e int) {
	if !on {
		return
	}
	cat, _, _ := strings.Cut(name, ".")
	k.track.Span(cat, name, t0, t1,
		trace.I64("epoch", int64(e)), trace.I64("rank", int64(k.wr)), trace.Str("parent", "epoch"))
}

// loop runs epochs until rank 0 says stop. One epoch is
// Barrier, the producer's or the consumer's half, Barrier; everything after
// the closing barrier (validation, counter snapshots, the stop decision) is
// off the clock.
func (k *rank) loop() {
	r := k.r
	wl := r.cfg.wl
	world := k.p.World
	// The benchmark's own records are sized here, after set-up was timed, so
	// that appending to them never allocates inside the measured window.
	maxEpochs := wl.warmup + wl.max
	if wl.pass > 0 {
		maxEpochs = wl.warmup + wl.pass
	}
	k.recs = make([]epochRec, 0, maxEpochs)
	if !k.producer {
		k.lat = make([]time.Duration, 0, min(maxEpochs*max(wl.queries, 1), 1<<21))
	}
	for e := 0; ; e++ {
		name := fileName(e)
		world.Barrier()
		if r.ctl.stop.Load() {
			return
		}
		id := r.base + e // spans carry an id no other pass uses
		on := r.ctl.spans.Load()
		rec := epochRec{spans: on}
		rec.start = time.Now()
		var err error
		if k.producer {
			err = k.produce(id, name, on, &rec)
			if wl.kind == kindFile {
				world.Barrier() // the file is complete; readers may open it
			}
		} else {
			if wl.kind == kindFile {
				t0 := time.Now()
				world.Barrier()
				k.span(on, "mpi.wait_writers", t0, time.Now(), id)
			}
			if wl.kind == kindQuery {
				err = k.query(id, name, on)
			} else {
				err = k.consume(id, name, on)
			}
		}
		tb := time.Now()
		world.Barrier()
		rec.stop = time.Now()
		if on {
			k.span(on, "mpi.barrier_wait", tb, rec.stop, id)
			k.track.Span("run", "epoch", rec.start, rec.stop,
				trace.I64("epoch", int64(id)), trace.I64("rank", int64(k.wr)))
		}

		if err == nil && !k.producer {
			err = k.validate(e)
		}
		if err != nil {
			rec.failed = true
			fmt.Fprintf(os.Stderr, "bench: %s rank %d epoch %d: %v\n", wl.name, k.wr, e, err)
		}
		rec.latEnd, rec.reads = len(k.lat), k.reads
		k.reads = 0
		rec.snap = k.snapshot()
		if k.producer {
			if k.dist != nil {
				k.dist.RemoveFile(name)
			} else {
				k.meta.RemoveFile(name)
			}
		}
		if k.wr == 0 {
			if r.fs != nil {
				r.fs.Remove(name)
			}
			rec.pool = buf.Default.Stats()
			r.decide(e)
		}
		k.recs = append(k.recs, rec)
	}
}

// produce is the producer's half of an epoch: create the file, write this
// rank's grid block and particle range, and close — which on the distributed
// VOL builds the index and serves until every consumer is done.
func (k *rank) produce(e int, name string, on bool, rec *epochRec) error {
	t0 := time.Now()
	f, err := h5.CreateFile(name, k.fapl)
	t1 := time.Now()
	if err != nil {
		return err
	}
	err = workload.WriteSynthetic(f, k.r.spec, k.p.Task.Rank(), k.gridVals, k.partVals)
	t2 := time.Now()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	t3 := time.Now()
	rec.blocked = t3.Sub(t0)
	k.span(on, "h5.create", t0, t1, e)
	k.span(on, "h5.write", t1, t2, e)
	k.span(on, "core.serve", t2, t3, e)
	return err
}

// consume is the consumer's half of a bulk or file epoch: open, read the
// rank's own grid block and particle range into the buffers allocated at
// set-up, close.
func (k *rank) consume(e int, name string, on bool) error {
	t0 := time.Now()
	f, err := h5.OpenFile(name, k.fapl)
	t1 := time.Now()
	if err != nil {
		return err
	}
	k.span(on, "core.open", t0, t1, e)
	var d time.Duration
	if d, err = k.read(f, "group1/grid", "core.read_grid", k.gridSel, h5.Bytes(k.gridBuf), on, e); err == nil {
		// Only the grid read is a latency sample: the particle read takes
		// several times as long, and a percentile of the two kinds mixed
		// would describe neither.
		k.lat = append(k.lat, d)
		_, err = k.read(f, "group2/particles", "core.read_particles", k.partSel, h5.Bytes(k.partBuf), on, e)
	}
	t2 := time.Now()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	k.span(on, "core.done", t2, time.Now(), e)
	return err
}

func (k *rank) read(f *h5.File, path, spanName string, sel *h5.Dataspace, dst []byte, on bool, e int) (time.Duration, error) {
	ds, err := f.OpenDataset(path)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = ds.Read(nil, sel, dst)
	t1 := time.Now()
	if err == nil {
		k.reads++
	}
	k.span(on, spanName, t0, t1, e)
	if cerr := ds.Close(); err == nil {
		err = cerr
	}
	return t1.Sub(t0), err
}

// query is the consumer's half of a query epoch: one closed-loop client
// issuing the rank's box reads back to back against the served file.
func (k *rank) query(e int, name string, on bool) error {
	t0 := time.Now()
	f, err := h5.OpenFile(name, k.fapl)
	t1 := time.Now()
	if err != nil {
		return err
	}
	k.span(on, "core.open", t0, t1, e)
	ds, err := f.OpenDataset("group1/grid")
	if err == nil {
		for i, sel := range k.qsel {
			q0 := time.Now()
			err = ds.Read(nil, sel, h5.Bytes(k.arena[i]))
			q1 := time.Now()
			if err != nil {
				break
			}
			k.reads++
			k.lat = append(k.lat, q1.Sub(q0))
			k.span(on, "core.query", q0, q1, e)
		}
		if cerr := ds.Close(); err == nil {
			err = cerr
		}
	}
	t2 := time.Now()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	k.span(on, "core.done", t2, time.Now(), e)
	return err
}

// validate checks what the consumer read against the position-encoded
// reference, takes the digest on the first measured epoch, and zeroes the
// buffers so that the next epoch cannot pass on this epoch's bytes.
func (k *rank) validate(e int) error {
	r := k.r
	var err error
	if k.arena != nil {
		for i, b := range k.qbox {
			if err = workload.ValidateGrid(r.dims, b, k.arena[i]); err != nil {
				break
			}
		}
	} else {
		err = workload.ValidateConsumer(r.spec, k.p.Task.Rank(), k.gridBuf, k.partBuf)
	}
	if e == r.cfg.wl.warmup {
		for _, a := range k.arena {
			k.digest = crc32.Update(k.digest, castagnoli, h5.Bytes(a))
		}
		k.digest = crc32.Update(k.digest, castagnoli, h5.Bytes(k.gridBuf))
		k.digest = crc32.Update(k.digest, castagnoli, h5.Bytes(k.partBuf))
	}
	for _, a := range k.arena {
		clear(a)
	}
	clear(k.gridBuf)
	clear(k.partBuf)
	return err
}

func (k *rank) snapshot() counters {
	var c counters
	if k.dist != nil {
		if k.producer {
			s := k.dist.Stats()
			c[cDataQueries], c[cBoxQueries], c[cMetadataRequests] = s.DataQueries, s.BoxQueries, s.MetadataRequests
			c[cChunksServed], c[cBytesServed] = s.ChunksServed, s.BytesServed
		} else {
			q := k.dist.QueryStats()
			c[cRetries], c[cFailovers], c[cQueryWaitNs] = q.Retries, q.Failovers, q.WaitTime.Nanoseconds()
		}
	}
	if s, ok := k.p.World.World().SockStats(); ok {
		c[cSentFrames], c[cSentBytes], c[cResentFrames], c[cReconnects] = s.SentFrames, s.SentBytes, s.ResentFrames, s.Reconnects
	}
	return c
}

// decide is rank 0's bookkeeping after epoch e of a pass: open the pass's
// window once warm-up is over, in a traced run switch spans on for every
// other epoch, end the pass when it is full, and end the run once its window
// has elapsed and enough epochs are in.
func (r *runner) decide(e int) {
	wl, w := r.cfg.wl, &r.win
	done := e + 1
	if done < wl.warmup {
		return
	}
	if done == wl.warmup {
		w.first = done
		runtime.ReadMemStats(&w.mem0)
		if r.t0.IsZero() {
			r.t0 = time.Now()
		}
		return
	}
	inPass := done - wl.warmup
	measured := r.tally.measured + inPass
	r.over = measured >= wl.max || measured >= wl.min && time.Since(r.t0).Seconds() >= r.cfg.window()
	if r.cfg.traced {
		// Alternating keeps the traced and the untraced epochs side by side
		// in time, so that drift within the run cancels out of the overhead.
		r.ctl.spans.Store(inPass%2 == 1)
	}
	if r.over || inPass == wl.pass {
		w.last = e
		runtime.ReadMemStats(&w.mem1)
		r.ctl.stop.Store(true)
	}
}

// formWorld forms the world, sets every rank up and, if asked, runs one pass
// of epochs. It returns the set-up time: from before any data exists to the
// moment the last rank leaves the first world barrier.
func (r *runner) formWorld(pass bool) (time.Duration, []*rank, error) {
	t0 := time.Now()
	if r.cfg.wl.kind == kindFile {
		r.fs = pfs.NewZeroCost()
	}
	ranks := make([]*rank, worldSize)
	ready := make([]time.Time, worldSize)
	main := func(p *mpi.Proc) {
		k := r.newRank(p)
		ranks[k.wr] = k
		if pass && r.tracer != nil {
			if r.tracks[k.wr] == nil {
				r.tracks[k.wr] = r.tracer.NewTrack(p.TaskName, p.TaskIndex+1, fmt.Sprintf("rank %d", p.Task.Rank()), k.wr)
			}
			k.track = r.tracks[k.wr]
		}
		p.World.Barrier()
		ready[k.wr] = time.Now()
		if pass {
			k.loop()
		}
	}
	err := runWorld(r.cfg.wl.engine, []mpi.TaskSpec{
		{Name: "producer", Procs: producers, Main: main},
		{Name: "consumer", Procs: consumers, Main: main},
	})
	var last time.Time
	for _, t := range ready {
		if t.After(last) {
			last = t
		}
	}
	return last.Sub(t0), ranks, err
}

// Set-up is repeated before the first pass, from nothing each time: at least
// setupMinReps times and until setupMinTime has gone by. The last repetition
// is the world of the first pass, and every later pass adds its own set-up.
const (
	setupMinReps = 5
	setupMaxReps = 2000
	setupMinTime = time.Second
)

// measure makes one run: the workload's window and, in a traced run, the
// kernel ladder and the numbers derived from it.
func measure(cfg runConfig) (*runResult, error) {
	res, err := runOnce(cfg)
	if err != nil || !cfg.traced {
		return res, err
	}
	reps := tracedReps
	d := time.Duration(cfg.seconds * tracedLadder / float64(reps*len(kernels)) * float64(time.Second))
	if cfg.smoke {
		reps, d = 1, time.Millisecond
	}
	ladder, err := runKernels(reps, d)
	if err != nil {
		return nil, err
	}
	res.attachLadder(cfg.wl, ladder)
	return res, nil
}

// attachLadder adds a kernel ladder's medians to a traced run's per-layer
// metrics, and the numbers computed from them.
func (res *runResult) attachLadder(wl workloadDef, ladder map[string][]float64) {
	res.KernelReps = ladder
	kern := map[string]float64{}
	for name, reps := range ladder {
		kern[name] = median(reps)
		res.PerLayer[name] = kern[name]
	}
	derive(wl, res.EndToEnd, res.PerLayer, kern)
}

// line is the run's result line: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
func (res *runResult) line() resultLine {
	l := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	if res.Traced {
		for _, m := range perLayer() {
			l.Metrics[m.name] = metricValue{res.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			l.Metrics[m.name] = metricValue{res.EndToEnd[m.name], m.unit}
		}
	}
	return l
}

func runOnce(cfg runConfig) (*runResult, error) {
	r := &runner{cfg: cfg, spec: cfg.wl.spec()}
	r.dims = r.spec.GridDims()
	r.tally.repeats = true
	if cfg.traced {
		r.tracer = trace.New()
	}
	canary := cpuCanary()
	var setups []float64
	begin := time.Now()
	for !r.over {
		n := len(setups) + 1
		pass := n >= setupMinReps && (time.Since(begin) >= setupMinTime || n >= setupMaxReps)
		if cfg.smoke {
			pass = n >= 2
		}
		r.ctl.stop.Store(false)
		r.ctl.spans.Store(false)
		d, ranks, err := r.formWorld(pass)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if pass {
			if err := r.fold(ranks); err != nil {
				return nil, err
			}
		}
	}
	res, err := r.assemble(setups)
	if err == nil {
		res.PerLayer["proc.cpu_canary_ns"] = min(canary, cpuCanary())
	}
	return res, err
}

// fold adds the pass that just ended to the run's tally.
func (r *runner) fold(ranks []*rank) error {
	wl, w, t := r.cfg.wl, &r.win, &r.tally
	if w.last < w.first {
		return fmt.Errorf("%s: a pass measured no epoch", wl.name)
	}
	exchange := func(e int) time.Duration {
		start, stop := ranks[0].recs[e].start, ranks[0].recs[e].stop
		for _, k := range ranks[1:] {
			if k.recs[e].start.Before(start) {
				start = k.recs[e].start
			}
			if k.recs[e].stop.After(stop) {
				stop = k.recs[e].stop
			}
		}
		return stop.Sub(start)
	}
	// Counters: per-epoch deltas summed over ranks; every measured epoch of
	// every pass must repeat the run's first one.
	perEpoch := func(e int) counters {
		var sum counters
		for _, k := range ranks {
			sum = sum.add(k.recs[e].snap.sub(k.recs[e-1].snap))
		}
		return sum
	}
	pool := func(e int) buf.PoolStats { return ranks[0].recs[e].pool }
	if t.passes == 0 {
		t.first = perEpoch(w.first)
		t.gets = pool(w.first).Gets - pool(w.first-1).Gets
		t.overflow = pool(w.first).Overflow - pool(w.first-1).Overflow
	}
	for e := w.first; e <= w.last; e++ {
		t.attempted++
		for _, k := range ranks {
			if k.recs[e].failed {
				t.failed++
				break
			}
		}
		c := perEpoch(e)
		t.waitNs += c[cQueryWaitNs]
		if c.exact() != t.first.exact() ||
			pool(e).Gets-pool(e-1).Gets != t.gets || pool(e).Overflow-pool(e-1).Overflow != t.overflow {
			t.repeats = false
		}
		// End-to-end numbers come from epochs run with spans off.
		d := exchange(e)
		if ranks[0].recs[e].spans {
			t.traced = append(t.traced, ms(d))
			continue
		}
		t.exch = append(t.exch, ms(d))
		var b time.Duration
		for _, k := range ranks[:producers] {
			b = max(b, k.recs[e].blocked)
		}
		t.blocked = append(t.blocked, ms(b))
		for _, k := range ranks[producers:] {
			t.reads += k.recs[e].reads
			for _, d := range k.lat[k.recs[e-1].latEnd:k.recs[e].latEnd] {
				t.lat = append(t.lat, us(d))
			}
		}
	}
	t.endPool = pool(w.last)
	digest := fmt.Sprintf("%08x-%08x", ranks[producers].digest, ranks[producers+1].digest)
	if t.passes == 0 {
		t.digest = digest
	} else if digest != t.digest {
		t.repeats = false // every pass moves the same bytes
	}
	t.allocBytes += w.mem1.TotalAlloc - w.mem0.TotalAlloc
	t.mallocs += w.mem1.Mallocs - w.mem0.Mallocs
	t.gcCycles += w.mem1.NumGC - w.mem0.NumGC
	t.gcPauseNs += w.mem1.PauseTotalNs - w.mem0.PauseTotalNs
	t.heapInuse = w.mem1.HeapInuse
	t.measured += w.last - w.first + 1
	t.passes++
	r.base += len(ranks[0].recs)
	r.win = window{}
	return nil
}

// assemble turns the tally into the run's metrics. Every end-to-end time is
// the quiet percentile of its samples.
func (r *runner) assemble(setups []float64) (*runResult, error) {
	cfg, wl, t := r.cfg, r.cfg.wl, &r.tally
	res := &runResult{
		Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Attempted: t.attempted, Failed: t.failed, Digest: t.digest,
		Samples: map[string]int{}, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
	}
	if wl.kind == kindQuery {
		// A query epoch fails as a whole, so count its queries with it.
		res.Attempted *= consumers * wl.queries
		res.Failed *= consumers * wl.queries
	}
	if len(t.exch) == 0 {
		return nil, fmt.Errorf("%s: no epoch was measured with spans off", wl.name)
	}
	payload := float64(wl.payloadBytes())
	exchange := quantile(t.exch, quiet)
	res.EndToEnd["setup_s"] = quantile(setups, quiet)
	res.EndToEnd["exchange_p02_ms"] = exchange
	res.EndToEnd["redist_MBps"] = payload / 1e6 / (exchange / 1e3)
	res.EndToEnd["producer_blocked_p02_ms"] = quantile(t.blocked, quiet)
	res.EndToEnd["query_p02_us"] = quantile(t.lat, quiet)
	res.EndToEnd["query_qps"] = float64(t.reads) / float64(len(t.exch)) / (exchange / 1e3)
	res.EndToEnd["alloc_B_per_payload_B"] = float64(t.allocBytes) / (payload * float64(t.measured))
	res.Samples["setups"] = len(setups)
	res.Samples["epochs"] = len(t.exch)
	res.Samples["queries"] = len(t.lat)
	res.Samples["reads"] = t.reads

	if !t.repeats {
		res.Warnings = append(res.Warnings, "per-epoch counters or consumer digests differ between epochs or passes of this run")
	}
	pl := res.PerLayer
	pl["core.data_queries"] = float64(t.first[cDataQueries])
	pl["core.box_queries"] = float64(t.first[cBoxQueries])
	pl["core.metadata_requests"] = float64(t.first[cMetadataRequests])
	pl["core.chunks_served"] = float64(t.first[cChunksServed])
	pl["core.bytes_served"] = float64(t.first[cBytesServed])
	pl["core.query_wait_ms"] = float64(t.waitNs) / 1e6 / float64(t.measured)
	pl["core.retries"] = float64(t.first[cRetries])
	pl["core.failovers"] = float64(t.first[cFailovers])
	pl["transport.sent_frames"] = float64(t.first[cSentFrames])
	pl["transport.sent_bytes"] = float64(t.first[cSentBytes])
	pl["transport.resent_frames"] = float64(t.first[cResentFrames])
	pl["transport.reconnects"] = float64(t.first[cReconnects])
	pl["transport.wire_overhead"] = float64(t.first[cSentBytes]) / payload
	pl["buf.gets"] = float64(t.gets)
	pl["buf.overflow"] = float64(t.overflow)
	pl["buf.highwater"] = float64(t.endPool.HighWater)
	pl["buf.outstanding_end"] = float64(t.endPool.Outstanding)
	pl["proc.allocs_per_epoch"] = float64(t.mallocs) / float64(t.measured)
	pl["proc.gc_cycles"] = float64(t.gcCycles)
	pl["proc.gc_pause_ms"] = float64(t.gcPauseNs) / 1e6
	pl["proc.heap_inuse_end_MiB"] = float64(t.heapInuse) / (1 << 20)
	pl["proc.peak_rss_MiB"] = peakRSSMiB()
	pl["run.epochs"] = float64(t.measured)
	pl["run.passes"] = float64(t.passes)
	pl["run.exchange_p50_ms"] = median(t.exch)
	pl["run.exchange_p90_ms"] = quantile(t.exch, 0.90)
	pl["run.query_p99_us"] = quantile(t.lat, 0.99)
	pl["run.failed_share"] = float64(res.Failed) / float64(res.Attempted)
	if wl.engine == "sock" && t.endPool.Gets > 0 && int64(t.endPool.Outstanding) == t.endPool.Gets {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"buf.outstanding_end == buf.gets (%d): no streamed chunk was ever released on sock, "+
				"so every Pool.Get past the limit waits out the 100 ms grace", t.endPool.Gets))
	}
	res.Correct = res.Failed == 0 && t.repeats

	if cfg.traced {
		// Medians: a traced run has too few epochs of each kind for a tail.
		pl["run.trace_overhead_frac"] = median(t.traced)/median(t.exch) - 1
		res.Samples["traced_epochs"] = len(t.traced)
		if err := r.spanMetrics(pl, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// cpuCanary times a fixed instruction-bound loop — a million twelve-byte
// copies inside a cache-resident buffer, standard library only — on one
// goroutine. A run takes it before and after and keeps the fastest try. It
// measures the machine, not the program: on a shared host such code slows by
// half again with the neighbours while memcpy stays put, and two reports
// whose canaries differ were not measured on the same machine.
func cpuCanary() float64 {
	const rows, width = 1 << 16, 12
	src, dst := make([]byte, rows*width), make([]byte, rows*width)
	best := time.Duration(1 << 62)
	for try := 0; try < 9; try++ {
		t0 := time.Now()
		for pass := 0; pass < 16; pass++ {
			for i := 0; i < rows*width; i += width {
				copy(dst[i:i+width], src[i:i+width])
			}
		}
		best = min(best, time.Since(t0))
	}
	return float64(best.Nanoseconds())
}

// peakRSSMiB reads VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
