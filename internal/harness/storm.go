package harness

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"lowfive/h5"
	"lowfive/internal/buf"
	"lowfive/internal/core"
	"lowfive/internal/native"
	"lowfive/internal/pfs"
	"lowfive/internal/rpc"
	"lowfive/internal/workload"
	"lowfive/mpi"
)

// Storm trials prove the overload-protection layer: a greedy tenant hammers
// a producer task whose admission controller has a single serve slot, and
// the sweep asserts the contract that matters under saturation — every
// query the producers ADMIT still returns bit-exact data, shed queries fail
// fast with a typed retryable error instead of wedging anything, the
// favored tenant's tail latency stays bounded while the greedy tenant is
// throttled, and the chunk pool never exceeds its byte budget nor leaks a
// frame once the storm drains.

// StormTuning carries the overload knobs of one storm trial: the producer
// admission configuration and the two consumer tenants' client-side
// resilience settings. The favored tenant runs without a breaker and with a
// deep shed-retry budget (it represents the interactive workload whose tail
// the fair queue protects); the greedy tenant gets a shallow retry budget
// and an armed breaker, so its saturation converts into fast typed failures
// rather than queue pressure.
type StormTuning struct {
	// QueueDeadline bounds waits for the producer's one serve slot, turns
	// on shedding and doubles as the RetryAfter hint in shed replies.
	QueueDeadline time.Duration
	// MaxQueuedPerTenant caps each tenant's admission queue; the greedy
	// tenant sheds on queue-full long before any deadline expires.
	MaxQueuedPerTenant int
	// FavoredWeight is the favored tenant's fair-queue weight (greedy
	// weighs 1).
	FavoredWeight int
	// FavoredClients and GreedyClients are the consumer task sizes.
	FavoredClients, GreedyClients int
	// FavoredQueries and GreedyQueries are the closed-loop per-client query
	// counts (they may differ: the favored tenant needs enough samples for
	// a meaningful p99; the greedy tenant just needs to saturate).
	FavoredQueries, GreedyQueries int
	// FavoredShedRetries is the favored clients' shed-retry budget.
	FavoredShedRetries int
	// GreedyShedRetries is the greedy clients' (shallow) shed-retry budget.
	GreedyShedRetries int
	// BreakerThreshold and BreakerCooldown arm the greedy clients'
	// per-producer-rank circuit breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// DefaultStormTuning returns the standard storm: one serve slot, an 8:1
// fair-queue share, a tiny greedy queue so saturation sheds immediately,
// and a 3-strike breaker on the greedy side.
func DefaultStormTuning() StormTuning {
	return StormTuning{
		QueueDeadline:      15 * time.Millisecond,
		MaxQueuedPerTenant: 1,
		FavoredWeight:      8,
		FavoredClients:     2,
		GreedyClients:      12,
		FavoredQueries:     64,
		GreedyQueries:      16,
		FavoredShedRetries: 8,
		GreedyShedRetries:  0,
		BreakerThreshold:   3,
		BreakerCooldown:    10 * time.Millisecond,
	}
}

// StormResult is the outcome of one StormSweep: an unloaded baseline phase
// (greedy clients idle) followed by the storm itself.
type StormResult struct {
	// BaselineSeconds and StormSeconds are the two phases' exchange times.
	BaselineSeconds, StormSeconds float64
	// UnloadedP99 is the favored tenant's admitted-query p99 with the
	// greedy tenant idle; FavoredP99 and GreedyP99 are the storm-phase
	// per-tenant p99s (admitted queries only, exact order statistics).
	UnloadedP99, FavoredP99, GreedyP99 time.Duration
	// Issued/Admitted/Shed count each tenant's storm-phase queries: every
	// issued query either returned data (admitted) or failed with a typed
	// overload/breaker error (shed) — anything else is a trial error.
	FavoredIssued, FavoredAdmitted, FavoredShed int
	GreedyIssued, GreedyAdmitted, GreedyShed    int
	// Identical reports that every admitted query of both phases returned
	// bit-exact data (validated against the synthetic ground truth).
	Identical bool
	// Serve is the summed producer-side stats of the storm phase (Shed,
	// Queued; QueueP99 is the max across producer ranks).
	Serve core.ServeStats
	// Query is the summed consumer-side stats of the storm phase (Sheds,
	// BreakerOpens, Retries, ...).
	Query core.QueryStats
	// PoolPeak is the chunk pool's peak outstanding count observed during
	// the storm, PoolLimit its byte-budget bound in chunks, PoolFinal the
	// outstanding count after the storm drained (leaked frames if > 0),
	// and PoolOverflow the over-budget fallback allocations.
	PoolPeak, PoolLimit, PoolFinal int
	PoolOverflow                   int64
	// QPS is storm-phase issued queries per exchange second; ShedRate is
	// the shed fraction of issued storm queries.
	QPS, ShedRate float64
}

// stormCollector gathers per-tenant closed-loop outcomes across the
// consumer goroutine ranks of one phase.
type stormCollector struct {
	mu        sync.Mutex
	lats      map[string][]time.Duration
	issued    map[string]int
	admitted  map[string]int
	shed      map[string]int
	mismatch  error
	mismatchN int
}

func newStormCollector() *stormCollector {
	return &stormCollector{
		lats:     map[string][]time.Duration{},
		issued:   map[string]int{},
		admitted: map[string]int{},
		shed:     map[string]int{},
	}
}

func (sc *stormCollector) admit(tenant string, lat time.Duration, validation error) {
	sc.mu.Lock()
	sc.issued[tenant]++
	sc.admitted[tenant]++
	sc.lats[tenant] = append(sc.lats[tenant], lat)
	if validation != nil {
		sc.mismatchN++
		if sc.mismatch == nil {
			sc.mismatch = validation
		}
	}
	sc.mu.Unlock()
}

func (sc *stormCollector) refuse(tenant string) {
	sc.mu.Lock()
	sc.issued[tenant]++
	sc.shed[tenant]++
	sc.mu.Unlock()
}

// p99 returns the exact 99th-percentile order statistic of a latency set
// (not a histogram approximation — sweeps assert ratios on this).
func p99(lats []time.Duration) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (99*len(s)+99)/100 - 1 // ceil(0.99 n) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// isOverloadRefusal classifies a consumer-side read error as an expected
// storm refusal: a typed shed (retry budget exhausted against overloaded
// replies) or a breaker fast-fail. Anything else is a real failure.
func isOverloadRefusal(err error) bool {
	var ov *rpc.OverloadedError
	var br *rpc.BreakerOpenError
	return errors.As(err, &ov) || errors.As(err, &br)
}

// stormPhase is the measured outcome of one storm exchange.
type stormPhase struct {
	seconds  float64
	col      *stormCollector
	serve    core.ServeStats
	query    core.QueryStats
	poolPeak int
	poolEnd  buf.PoolStats
}

// stormExchange runs one producer/favored/greedy workflow. The producers
// write the synthetic file and serve it under admission control with the
// two consumer tasks registered as weighted tenants; each consumer rank is
// a closed-loop client issuing its seeded zipf query sequence against
// /group1/grid and validating every admitted response in place. greedyLoad
// false keeps the greedy clients connected but idle (the unloaded
// baseline). The shared chunk pool is sampled throughout for its peak
// outstanding count.
func (c Config) stormExchange(spec workload.Spec, st workload.StormSpec, tune StormTuning, greedyLoad bool) (stormPhase, error) {
	fs := pfs.New(c.FS)
	if c.Metrics != nil {
		fs.SetMetrics(c.Metrics)
	}
	rec := &Recorder{}
	var errs errCollector
	col := newStormCollector()
	dims := spec.GridDims()

	var mu sync.Mutex // guards serve and query
	var serve core.ServeStats
	var query core.QueryStats

	// Sample the shared chunk pool while the storm runs: admission must
	// keep the transport under its byte budget, so the peak outstanding
	// count is an assertion input, not just a curiosity.
	pool := buf.SharedPool(c.ChunkBytes)
	stop := make(chan struct{})
	peakc := make(chan int, 1)
	go func() {
		peak := 0
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peakc <- peak
				return
			case <-tick.C:
				if o := pool.Outstanding(); o > peak {
					peak = o
				}
			}
		}
	}()

	// consumer builds one tenant's closed-loop client main.
	consumer := func(tenant string, queries int, shedRetries, brkThreshold int) func(p *mpi.Proc) {
		return func(p *mpi.Proc) {
			r := p.Task.Rank()
			vol := core.NewDistMetadataVOL(p.Task, native.New(native.PFSBackend(fs)))
			vol.SetIntercomm("*", p.Intercomm("producer"))
			// Fail-stop clients (no per-attempt timeout): a storm must be
			// survived by admission control and the breaker alone, and any
			// wedge shows up as a watchdog panic rather than being papered
			// over by retries.
			vol.ShedRetries = shedRetries
			vol.BreakerThreshold = brkThreshold
			vol.BreakerCooldown = tune.BreakerCooldown
			vol.ChunkBytes = c.ChunkBytes
			c.instrument(vol, true)
			fapl := h5.NewFileAccessProps(vol)
			stc := st
			stc.QueriesPerClient = queries
			boxes := stc.Queries(dims, tenant, r)
			p.World.Barrier()
			rec.Start()
			f, err := h5.OpenFile("storm.h5", fapl)
			if err != nil {
				errs.add(err)
				return
			}
			ds, err := f.OpenDataset("group1/grid")
			if err != nil {
				errs.add(err)
				errs.add(f.Close())
				return
			}
			for _, box := range boxes {
				sel := h5.NewSimple(dims...)
				if err := sel.SelectBox(h5.SelectSet, box); err != nil {
					errs.add(err)
					break
				}
				out := make([]uint64, sel.NumSelected())
				t0 := time.Now()
				err := ds.Read(nil, sel, h5.Bytes(out))
				lat := time.Since(t0)
				if err != nil {
					if isOverloadRefusal(err) {
						col.refuse(tenant)
						continue
					}
					errs.add(fmt.Errorf("storm %s client %d: %w", tenant, r, err))
					break
				}
				col.admit(tenant, lat, workload.ValidateGrid(dims, box, out))
			}
			errs.add(ds.Close())
			errs.add(f.Close())
			mu.Lock()
			query.Add(vol.QueryStats())
			mu.Unlock()
			p.World.Barrier()
			rec.Stop()
		}
	}

	greedyQueries := 0
	if greedyLoad {
		greedyQueries = tune.GreedyQueries
	}
	opts := append(c.mpiOpts(), mpi.WithWatchdog(faultWatchdog))
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "producer", Procs: spec.Producers, Main: func(p *mpi.Proc) {
			gridVals, partVals := workload.GenerateProducer(spec, p.Task.Rank())
			vol := core.NewDistMetadataVOL(p.Task, native.New(native.PFSBackend(fs)))
			icF := p.Intercomm("favored")
			icG := p.Intercomm("greedy")
			vol.SetIntercomm("*", icF, icG)
			vol.SetTenant(icF, "favored")
			vol.SetTenant(icG, "greedy")
			vol.TenantWeights = map[string]int{"favored": tune.FavoredWeight, "greedy": 1}
			vol.QueueDeadline = tune.QueueDeadline
			vol.MaxQueuedPerTenant = tune.MaxQueuedPerTenant
			vol.ChunkBytes = c.ChunkBytes
			c.instrument(vol, false)
			// Producer-side shed records ("shed-<reason>") go to the same
			// flight recorder the consumers use, so a sweep-failure dump
			// shows both halves of every refusal.
			vol.Flight = c.Flight
			fapl := h5.NewFileAccessProps(vol)
			p.World.Barrier()
			rec.Start()
			f, err := h5.CreateFile("storm.h5", fapl)
			if err != nil {
				errs.add(err)
				return
			}
			errs.add(workload.WriteSynthetic(f, spec, p.Task.Rank(), gridVals, partVals))
			errs.add(f.Close()) // index + serve under admission
			mu.Lock()
			serve.Add(vol.Stats())
			mu.Unlock()
			p.World.Barrier()
			rec.Stop()
		}},
		{Name: "favored", Procs: tune.FavoredClients,
			Main: consumer("favored", tune.FavoredQueries, tune.FavoredShedRetries, 0)},
		{Name: "greedy", Procs: tune.GreedyClients,
			Main: consumer("greedy", greedyQueries, tune.GreedyShedRetries, tune.BreakerThreshold)},
	}, opts...)
	close(stop)
	peak := <-peakc
	if err == nil {
		err = errs.first()
	}
	return stormPhase{
		seconds:  rec.Seconds(),
		col:      col,
		serve:    serve,
		query:    query,
		poolPeak: peak,
		poolEnd:  pool.Stats(),
	}, err
}

// StormSweep runs the unloaded baseline (greedy tenant connected but idle)
// and then the query storm, and folds both phases into one result. The
// caller asserts on the result; FailureReasons lists the standard contract.
func (c Config) StormSweep(spec workload.Spec, st workload.StormSpec, tune StormTuning) (StormResult, error) {
	c.setStatus("sweep", "storm: baseline")
	base, err := c.stormExchange(spec, st, tune, false)
	if err != nil {
		return StormResult{}, fmt.Errorf("harness: storm baseline failed: %w", err)
	}
	if n := base.col.admitted["favored"]; n == 0 {
		return StormResult{}, fmt.Errorf("harness: storm baseline admitted no favored queries")
	}
	c.setStatus("sweep", "storm: load")
	storm, err := c.stormExchange(spec, st, tune, true)
	if err != nil {
		return StormResult{}, fmt.Errorf("harness: storm phase failed: %w", err)
	}
	col := storm.col
	issued := col.issued["favored"] + col.issued["greedy"]
	res := StormResult{
		BaselineSeconds: base.seconds,
		StormSeconds:    storm.seconds,
		UnloadedP99:     p99(base.col.lats["favored"]),
		FavoredP99:      p99(col.lats["favored"]),
		GreedyP99:       p99(col.lats["greedy"]),
		FavoredIssued:   col.issued["favored"],
		FavoredAdmitted: col.admitted["favored"],
		FavoredShed:     col.shed["favored"],
		GreedyIssued:    col.issued["greedy"],
		GreedyAdmitted:  col.admitted["greedy"],
		GreedyShed:      col.shed["greedy"],
		Identical:       base.col.mismatch == nil && col.mismatch == nil,
		Serve:           storm.serve,
		Query:           storm.query,
		PoolPeak:        storm.poolPeak,
		PoolLimit:       buf.SharedPool(c.ChunkBytes).Limit(),
		PoolFinal:       storm.poolEnd.Outstanding,
		PoolOverflow:    storm.poolEnd.Overflow,
	}
	if storm.seconds > 0 {
		res.QPS = float64(issued) / storm.seconds
	}
	if issued > 0 {
		res.ShedRate = float64(res.FavoredShed+res.GreedyShed) / float64(issued)
	}
	c.logf("storm: qps=%.1f shed_rate=%.2f unloaded_p99=%s favored_p99=%s greedy_p99=%s shed=%d breaker_opens=%d pool_peak=%d/%d\n",
		res.QPS, res.ShedRate, res.UnloadedP99, res.FavoredP99, res.GreedyP99,
		res.Serve.Shed, res.Query.BreakerOpens, res.PoolPeak, res.PoolLimit)
	return res, nil
}

// FailureReasons checks the storm contract and returns one line per
// violated clause (empty means the sweep passed). p99Factor bounds the
// favored tenant's storm p99 as a multiple of its unloaded p99.
func (r StormResult) FailureReasons(p99Factor float64) []string {
	var out []string
	if !r.Identical {
		out = append(out, "an admitted query returned data differing from the synthetic ground truth")
	}
	if r.FavoredAdmitted == 0 {
		out = append(out, "favored tenant had no admitted queries")
	}
	if r.Serve.Shed == 0 {
		out = append(out, "producers shed nothing: the storm never saturated admission")
	}
	if r.Query.Sheds == 0 {
		out = append(out, "consumers saw no overloaded replies")
	}
	if r.Query.BreakerOpens == 0 {
		out = append(out, "no circuit breaker ever opened on the greedy side")
	}
	if r.GreedyShed == 0 {
		out = append(out, "greedy tenant was never throttled")
	}
	if lim := time.Duration(p99Factor * float64(r.UnloadedP99)); r.UnloadedP99 > 0 && r.FavoredP99 > lim {
		out = append(out, fmt.Sprintf("favored p99 %s exceeds %.0fx unloaded p99 %s",
			r.FavoredP99, p99Factor, r.UnloadedP99))
	}
	if r.PoolLimit > 0 && r.PoolPeak > r.PoolLimit {
		out = append(out, fmt.Sprintf("chunk pool peaked at %d outstanding, over its budget of %d",
			r.PoolPeak, r.PoolLimit))
	}
	if r.PoolFinal != 0 {
		out = append(out, fmt.Sprintf("%d chunks still outstanding after the storm drained (leak)", r.PoolFinal))
	}
	return out
}

// PrintStormTable renders a storm result as an aligned text report.
func PrintStormTable(w io.Writer, r StormResult) {
	fmt.Fprintf(w, "Query storm: admission control and load shedding under saturation\n")
	fmt.Fprintf(w, "%-10s %8s %8s %8s %12s %12s\n", "tenant", "issued", "admitted", "shed", "p99", "unloaded")
	fmt.Fprintf(w, "%-10s %8d %8d %8d %12s %12s\n", "favored",
		r.FavoredIssued, r.FavoredAdmitted, r.FavoredShed,
		r.FavoredP99.Round(time.Microsecond), r.UnloadedP99.Round(time.Microsecond))
	fmt.Fprintf(w, "%-10s %8d %8d %8d %12s %12s\n", "greedy",
		r.GreedyIssued, r.GreedyAdmitted, r.GreedyShed,
		r.GreedyP99.Round(time.Microsecond), "-")
	fmt.Fprintf(w, "qps=%.1f shed_rate=%.3f server_shed=%d queued=%d queue_p99=%s client_sheds=%d breaker_opens=%d\n",
		r.QPS, r.ShedRate, r.Serve.Shed, r.Serve.Queued,
		r.Serve.QueueP99.Round(time.Microsecond), r.Query.Sheds, r.Query.BreakerOpens)
	fmt.Fprintf(w, "pool: peak=%d limit=%d final=%d overflow=%d\n",
		r.PoolPeak, r.PoolLimit, r.PoolFinal, r.PoolOverflow)
}
