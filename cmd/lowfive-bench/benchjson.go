package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"lowfive/internal/harness"
	"lowfive/internal/workload"
	"lowfive/metrics"
)

// The -json mode re-runs the allocation-sensitive figure benchmarks
// (Fig. 5, 7, 11 and the redistribution shapes) through testing.Benchmark
// and writes BENCH_<date>.json, so CI and developers can diff ns/op, B/op
// and allocs/op against the committed baseline without the go test
// machinery. The cost models are zeroed: the numbers measure the real
// protocol and copy work, exactly like the bench_test.go benchmarks these
// mirror.

type benchResult struct {
	Name string `json:"name"`
	// Transport names the message engine the case ran over: "chan" for the
	// in-proc cost-modeled engine (every figure benchmark), "sock" for the
	// multi-process socket engine. Enforced non-empty by -validate.
	Transport   string  `json:"transport"`
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	ExchangeSec float64 `json:"exchange_s"`
	Iterations  int     `json:"iterations"`
	// QPS and the query latency quantiles come from the metrics plane: each
	// case runs against a fresh registry, and the consumer-side
	// core.query.latency_us histogram yields queries/second over the case's
	// accumulated wall time plus its p50/p99 in microseconds. Zero for
	// transports with no distributed-VOL query path (file mode, pure MPI,
	// DataSpaces).
	QPS        float64 `json:"qps"`
	QueryP50Us int64   `json:"query_p50_us"`
	QueryP99Us int64   `json:"query_p99_us"`
	// SockSec is the wall time of the same exchange over the real-socket
	// engine: one OS process per rank, Unix sockets, spawn and world
	// formation included. Present on every distributed-VOL case so the
	// two engines stay comparable side by side; absent for workloads with
	// no sock analogue (file mode, pure MPI, DataSpaces).
	SockSec float64 `json:"sock_s,omitempty"`
}

// recoveryBench is one staged-log recovery case of the report: the fault
// scenario, the wall time restarted ranks spent in log replay, and whether
// the consumers still saw bit-identical data.
type recoveryBench struct {
	Name      string  `json:"name"`
	ReplayMs  float64 `json:"replay_ms"`
	Restarts  int     `json:"restarts"`
	Fallbacks int     `json:"fallbacks"`
	Identical bool    `json:"identical"`
}

// stormBench is one tenant's view of the query-storm sweep: closed-loop
// throughput, admitted-query tail latency, and the shed fraction that
// admission control converted into typed refusals. The favored row carries
// the unloaded-baseline p99 the storm p99 is bounded against; the greedy row
// carries the breaker-open count proving client-side fast-fail engaged.
type stormBench struct {
	Name          string  `json:"name"`
	Tenant        string  `json:"tenant"`
	QPS           float64 `json:"qps"`
	QueryP99Us    int64   `json:"query_p99_us"`
	UnloadedP99Us int64   `json:"unloaded_p99_us,omitempty"`
	ShedRate      float64 `json:"shed_rate"`
	Issued        int     `json:"issued"`
	Admitted      int     `json:"admitted"`
	Shed          int     `json:"shed"`
	BreakerOpens  int64   `json:"breaker_opens,omitempty"`
	Identical     bool    `json:"identical"`
}

type benchReport struct {
	Date       string          `json:"date"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	Note       string          `json:"note,omitempty"`
	Benchmarks []benchResult   `json:"benchmarks"`
	Recoveries []recoveryBench `json:"recoveries,omitempty"`
	Storms     []stormBench    `json:"storms,omitempty"`
}

type benchCase struct {
	name string
	spec workload.Spec
	// fn is a Config method expression, so each case can run against its own
	// config copy (carrying a fresh metrics registry).
	fn func(harness.Config, workload.Spec) (float64, error)
	// sock marks the cases with a real-socket analogue: the distributed-VOL
	// memory-mode exchange, re-run as one OS process per rank to fill the
	// report's sock_s column.
	sock bool
}

func benchCases() []benchCase {
	spec := workload.PaperSpec(16).Scaled(100)
	large := workload.PaperSpec(16).Scaled(10)
	return []benchCase{
		{"Fig5FileVsMemory/FileMode", spec, harness.Config.TrialLowFiveFile, false},
		{"Fig5FileVsMemory/MemoryMode", spec, harness.Config.TrialLowFiveMemory, true},
		{"Fig7MemoryVsPureMPI/LowFiveMemoryMode", spec, harness.Config.TrialLowFiveMemory, true},
		{"Fig7MemoryVsPureMPI/PureMPI", spec, harness.Config.TrialPureMPI, false},
		{"Fig11LargeData/LowFiveMemoryMode", large, harness.Config.TrialLowFiveMemory, true},
		{"Fig11LargeData/DataSpaces", large, harness.Config.TrialDataSpaces, false},
		{"Fig11LargeData/PureMPI", large, harness.Config.TrialPureMPI, false},
		{"Redistribution/4procs", workload.PaperSpec(4).Scaled(100), harness.Config.TrialLowFiveMemory, true},
		{"Redistribution/16procs", workload.PaperSpec(16).Scaled(100), harness.Config.TrialLowFiveMemory, true},
		{"Redistribution/64procs", workload.PaperSpec(64).Scaled(100), harness.Config.TrialLowFiveMemory, true},
	}
}

// measureBenchmarks runs the benchmark set and returns the report. iters > 0
// runs each case a fixed number of times with ReadMemStats accounting (the
// cheap smoke regime); iters == 0 lets testing.Benchmark auto-scale until
// the numbers are stable.
func measureBenchmarks(cfg harness.Config, iters int) (benchReport, error) {
	// Zero the modeled delays (the benchmark regime of bench_test.go).
	cfg.Trials = 1
	cfg.NetAlpha = 0
	cfg.NetBeta = 0
	cfg.FS.OSTLatency = 0
	cfg.FS.OSTBandwidth = 0
	cfg.FS.SharedLockLatency = 0
	if cfg.ChunkBytes == 0 {
		// Match bench_test.go: frames scaled to the 100x-scaled-down data.
		cfg.ChunkBytes = 64 << 10
	}

	report := benchReport{
		Date:   time.Now().Format("2006-01-02"),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
	}
	for _, c := range benchCases() {
		c := c
		// Each case measures against its own registry, so the query latency
		// histogram covers exactly this case's invocations (across every
		// round testing.Benchmark runs).
		caseCfg := cfg
		caseCfg.Metrics = metrics.NewRegistry()
		var wall time.Duration
		run := func(spec workload.Spec) (float64, error) {
			t0 := time.Now()
			sec, err := c.fn(caseCfg, spec)
			wall += time.Since(t0)
			return sec, err
		}
		var res benchResult
		if iters > 0 {
			var err error
			res, err = measureFixed(c, run, iters)
			if err != nil {
				return report, fmt.Errorf("%s: %w", c.name, err)
			}
		} else {
			var benchErr error
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				total := 0.0
				for i := 0; i < b.N; i++ {
					sec, err := run(c.spec)
					if err != nil {
						benchErr = err
						b.Fatal(err)
					}
					total += sec
				}
				b.ReportMetric(total/float64(b.N), "exchange-s")
			})
			if benchErr != nil {
				return report, fmt.Errorf("%s: %w", c.name, benchErr)
			}
			res = benchResult{
				Name:        c.name,
				NsPerOp:     r.NsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				ExchangeSec: r.Extra["exchange-s"],
				Iterations:  r.N,
			}
		}
		res.Transport = harness.TransportChan
		res.QPS, res.QueryP50Us, res.QueryP99Us = queryLatency(caseCfg.Metrics, wall)
		if c.sock {
			sockSec, err := cfg.SockVOLWall(c.spec, 1)
			if err != nil {
				return report, fmt.Errorf("%s (sock): %w", c.name, err)
			}
			res.SockSec = sockSec
		}
		fmt.Fprintf(os.Stderr, "%-40s %12d ns/op %12d B/op %8d allocs/op %10.5f exchange-s %8.1f qps %7dus p50 %7dus p99 %8.3f sock-s\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.ExchangeSec,
			res.QPS, res.QueryP50Us, res.QueryP99Us, res.SockSec)
		report.Benchmarks = append(report.Benchmarks, res)
	}
	recs, err := measureRecoveries(cfg)
	if err != nil {
		return report, err
	}
	report.Recoveries = recs
	storms, err := measureStorms(cfg)
	if err != nil {
		return report, err
	}
	report.Storms = storms
	return report, nil
}

// benchStormSeed fixes the storm's deterministic query sequences, so the
// committed baseline and every CI re-measurement run the same storm.
const benchStormSeed = 42

// stormP99Factor bounds the favored tenant's storm-phase p99 as a multiple
// of its unloaded baseline p99 — the report-level fairness contract.
const stormP99Factor = 5

// measureStorms runs the query-storm sweep once and distills it into the
// report's per-tenant storm rows. The storm runs its own quick-profile
// config: unlike the allocation benchmarks above, it needs the modeled
// network delays ON — overload only exists when serves take time — and a
// small chunk size so the pool budget is a live constraint.
func measureStorms(cfg harness.Config) ([]stormBench, error) {
	sc := harness.QuickConfig()
	sc.ChunkBytes = 4 << 10
	sc.Metrics = metrics.NewRegistry()
	sc.Flight = metrics.NewFlightRecorder(512, harness.DefaultSlowQuery)
	sc.Verbose = cfg.Verbose
	sc.Log = cfg.Log
	spec := workload.Spec{Producers: 4, Consumers: 2, GridPointsPerProducer: 1000, ParticlesPerProducer: 100}
	res, err := sc.StormSweep(spec, workload.StormSpec{Seed: benchStormSeed}, harness.DefaultStormTuning())
	if err != nil {
		return nil, fmt.Errorf("storm sweep: %w", err)
	}
	if reasons := res.FailureReasons(stormP99Factor); len(reasons) > 0 {
		return nil, fmt.Errorf("storm sweep violated its contract: %s", strings.Join(reasons, "; "))
	}
	rows := stormRows(res)
	for _, s := range rows {
		fmt.Fprintf(os.Stderr, "%-40s %8.1f qps %7dus p99 %8.3f shed_rate %4d issued %4d admitted %4d shed identical=%v\n",
			s.Name, s.QPS, s.QueryP99Us, s.ShedRate, s.Issued, s.Admitted, s.Shed, s.Identical)
	}
	return rows, nil
}

// stormRows flattens one storm result into the report's per-tenant rows.
func stormRows(res harness.StormResult) []stormBench {
	tenantRate := func(shed, issued int) float64 {
		if issued == 0 {
			return 0
		}
		return float64(shed) / float64(issued)
	}
	tenantQPS := func(issued int) float64 {
		if res.StormSeconds <= 0 {
			return 0
		}
		return float64(issued) / res.StormSeconds
	}
	return []stormBench{
		{
			Name: "QueryStorm/favored", Tenant: "favored",
			QPS:           tenantQPS(res.FavoredIssued),
			QueryP99Us:    res.FavoredP99.Microseconds(),
			UnloadedP99Us: res.UnloadedP99.Microseconds(),
			ShedRate:      tenantRate(res.FavoredShed, res.FavoredIssued),
			Issued:        res.FavoredIssued, Admitted: res.FavoredAdmitted, Shed: res.FavoredShed,
			Identical: res.Identical,
		},
		{
			Name: "QueryStorm/greedy", Tenant: "greedy",
			QPS:        tenantQPS(res.GreedyIssued),
			QueryP99Us: res.GreedyP99.Microseconds(),
			ShedRate:   tenantRate(res.GreedyShed, res.GreedyIssued),
			Issued:     res.GreedyIssued, Admitted: res.GreedyAdmitted, Shed: res.GreedyShed,
			BreakerOpens: res.Query.BreakerOpens,
			Identical:    res.Identical,
		},
	}
}

// measureRecoveries runs the staged-log fault sweep once and distills each
// case into the report's recovery entries: replay wall time, restart count,
// PFS fallbacks, and the bit-identity verdict.
func measureRecoveries(cfg harness.Config) ([]recoveryBench, error) {
	results, err := cfg.Sweep(workload.Spec{}, harness.DefaultStagingCases())
	if err != nil {
		return nil, fmt.Errorf("staging sweep: %w", err)
	}
	out := make([]recoveryBench, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("staging case %s: %w", r.Name, r.Err)
		}
		out = append(out, recoveryBench{
			Name:      r.Name,
			ReplayMs:  r.ReplayMs,
			Restarts:  r.Run.RestartCount,
			Fallbacks: r.Run.StageFallbacks,
			Identical: r.Identical,
		})
		fmt.Fprintf(os.Stderr, "%-40s %12.4f replay_ms %3d restarts %3d fallbacks identical=%v\n",
			"Recovery/"+r.Name, r.ReplayMs, r.Run.RestartCount, r.Run.StageFallbacks, r.Identical)
	}
	return out, nil
}

// queryLatency distills a case's registry into the report's latency fields:
// queries/second over the case's total wall time, and the p50/p99 of the
// consumer-side query latency histogram. All zero for cases whose transport
// never touched the distributed VOL.
func queryLatency(reg *metrics.Registry, wall time.Duration) (qps float64, p50, p99 int64) {
	s := reg.Histogram("core.query.latency_us").Snapshot()
	if s.Count == 0 {
		return 0, 0, 0
	}
	if wall > 0 {
		qps = float64(s.Count) / wall.Seconds()
	}
	return qps, int64(s.Quantile(0.50)), int64(s.Quantile(0.99))
}

// measureFixed runs one case a fixed number of iterations, deriving the
// allocation numbers from runtime.MemStats deltas. Cruder than
// testing.Benchmark (concurrent GC noise is not filtered), which is fine
// for the warn-only smoke comparison it exists for.
func measureFixed(c benchCase, run func(workload.Spec) (float64, error), iters int) (benchResult, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	total := 0.0
	for i := 0; i < iters; i++ {
		sec, err := run(c.spec)
		if err != nil {
			return benchResult{}, err
		}
		total += sec
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return benchResult{
		Name:        c.name,
		NsPerOp:     elapsed.Nanoseconds() / int64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
		ExchangeSec: total / float64(iters),
		Iterations:  iters,
	}, nil
}

// runBenchJSON measures the benchmark set and writes BENCH_<date>.json to
// the current directory (or to out when non-empty).
func runBenchJSON(cfg harness.Config, iters int, out string) error {
	report, err := measureBenchmarks(cfg, iters)
	if err != nil {
		return err
	}
	return writeBenchReport(report, out)
}

// runBenchJSONSock writes a sock-engine-only report: the same case names
// as the chan report's distributed-VOL rows, each wall time measured over
// real rank processes. No allocation or query-latency fields — those
// belong to the in-proc engine the testing harness can observe directly.
func runBenchJSONSock(cfg harness.Config, out string) error {
	report := benchReport{
		Date:   time.Now().Format("2006-01-02"),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Note:   "sock-engine wall times: one OS process per rank over Unix sockets",
	}
	for _, c := range benchCases() {
		if !c.sock {
			continue
		}
		sec, err := cfg.SockVOLWall(c.spec, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		fmt.Fprintf(os.Stderr, "%-40s %8.3f sock-s\n", c.name, sec)
		report.Benchmarks = append(report.Benchmarks, benchResult{
			Name: c.name, Transport: harness.TransportSock,
			ExchangeSec: sec, SockSec: sec, Iterations: 1,
		})
	}
	return writeBenchReport(report, out)
}

// writeBenchReport writes one report as indented JSON, defaulting the path
// to BENCH_<date>.json in the current directory.
func writeBenchReport(report benchReport, out string) error {
	if out == "" {
		out = fmt.Sprintf("BENCH_%s.json", report.Date)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	return nil
}

// validateBenchJSON checks a BENCH_*.json file carries the metrics-plane
// latency fields: every case whose transport runs distributed-VOL queries
// (memory mode and the redistribution shapes) must report nonzero qps and
// query p50/p99. CI runs this against a fresh smoke measurement so a wiring
// regression (a histogram silently not recording) fails the build instead
// of shipping an all-zero baseline.
func validateBenchJSON(file string) error {
	raw, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		return fmt.Errorf("parsing %s: %w", file, err)
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks", file)
	}
	checked, hasChan := 0, false
	for _, b := range report.Benchmarks {
		if b.Transport == "" {
			return fmt.Errorf("%s: %s: transport field missing — every case must name its engine (chan|sock)", file, b.Name)
		}
		if b.Transport == harness.TransportChan {
			hasChan = true
		}
		if !strings.Contains(b.Name, "MemoryMode") && !strings.Contains(b.Name, "Redistribution") {
			continue
		}
		checked++
		// Every distributed-VOL row must carry the sock-engine wall time,
		// whichever engine produced the row: a chan report measures the
		// sock analogue alongside, a sock report is the analogue.
		if b.SockSec <= 0 {
			return fmt.Errorf("%s: %s: sock_s missing or zero — the real-socket wall time was not measured", file, b.Name)
		}
		if b.Transport != harness.TransportChan {
			continue // the query-latency plane exists only in-proc
		}
		if b.QPS <= 0 || b.QueryP50Us <= 0 || b.QueryP99Us <= 0 {
			return fmt.Errorf("%s: %s: query latency fields missing or zero (qps=%g p50=%dus p99=%dus)",
				file, b.Name, b.QPS, b.QueryP50Us, b.QueryP99Us)
		}
		if b.QueryP99Us < b.QueryP50Us {
			return fmt.Errorf("%s: %s: p99 (%dus) below p50 (%dus)", file, b.Name, b.QueryP99Us, b.QueryP50Us)
		}
	}
	if checked == 0 {
		return fmt.Errorf("%s: no distributed-VOL cases to validate", file)
	}
	if !hasChan {
		// A sock-only report carries no staged-log recovery sweep; the
		// wall-time and transport checks above are its whole contract.
		fmt.Printf("%s: %d sock-engine distributed-VOL cases carry nonzero sock_s\n", file, checked)
		return nil
	}
	if len(report.Recoveries) == 0 {
		return fmt.Errorf("%s: no recovery cases — the staged-log sweep did not run", file)
	}
	restarted := 0
	for _, r := range report.Recoveries {
		if !r.Identical {
			return fmt.Errorf("%s: recovery case %s: consumer data not bit-identical", file, r.Name)
		}
		if r.ReplayMs < 0 {
			return fmt.Errorf("%s: recovery case %s: negative replay_ms %g", file, r.Name, r.ReplayMs)
		}
		if r.Restarts > 0 {
			restarted++
			if r.ReplayMs <= 0 {
				return fmt.Errorf("%s: recovery case %s: %d restarts but replay_ms is zero — replay time not measured",
					file, r.Name, r.Restarts)
			}
		}
	}
	if restarted == 0 {
		return fmt.Errorf("%s: no recovery case forced a restart — replay_ms was never exercised", file)
	}
	if err := validateStormRows(file, report.Storms); err != nil {
		return err
	}
	fmt.Printf("%s: %d distributed-VOL cases carry nonzero query latency fields; %d recovery cases carry replay_ms (%d with restarts); %d storm rows carry qps/query_p99_us/shed_rate\n",
		file, checked, len(report.Recoveries), restarted, len(report.Storms))
	return nil
}

// validateStormRows enforces the overload-protection rows of a chan report:
// the query-storm sweep must have run, both tenants must carry live
// throughput and tail-latency numbers, the storm must actually have shed
// (a shed_rate of zero means the sweep silently stopped saturating), the
// greedy tenant's breaker must have opened, and every admitted query must
// have validated bit-identical.
func validateStormRows(file string, storms []stormBench) error {
	if len(storms) == 0 {
		return fmt.Errorf("%s: no storm rows — the query-storm sweep did not run", file)
	}
	byTenant := map[string]stormBench{}
	for _, s := range storms {
		if s.QPS <= 0 || s.QueryP99Us <= 0 {
			return fmt.Errorf("%s: storm row %s: qps/query_p99_us missing or zero (qps=%g p99=%dus)",
				file, s.Name, s.QPS, s.QueryP99Us)
		}
		if !s.Identical {
			return fmt.Errorf("%s: storm row %s: admitted query data not bit-identical", file, s.Name)
		}
		byTenant[s.Tenant] = s
	}
	fav, ok := byTenant["favored"]
	if !ok {
		return fmt.Errorf("%s: storm rows missing the favored tenant", file)
	}
	if fav.UnloadedP99Us <= 0 {
		return fmt.Errorf("%s: storm row %s: unloaded baseline p99 missing", file, fav.Name)
	}
	if lim := stormP99Factor * fav.UnloadedP99Us; fav.QueryP99Us > lim {
		return fmt.Errorf("%s: storm row %s: favored p99 %dus exceeds %dx unloaded p99 %dus",
			file, fav.Name, fav.QueryP99Us, stormP99Factor, fav.UnloadedP99Us)
	}
	greedy, ok := byTenant["greedy"]
	if !ok {
		return fmt.Errorf("%s: storm rows missing the greedy tenant", file)
	}
	if greedy.ShedRate <= 0 || greedy.Shed == 0 {
		return fmt.Errorf("%s: storm row %s: shed_rate is zero — the storm never saturated admission", file, greedy.Name)
	}
	if greedy.BreakerOpens == 0 {
		return fmt.Errorf("%s: storm row %s: no breaker ever opened on the greedy side", file, greedy.Name)
	}
	return nil
}

// Regression thresholds of the warn-only comparison: smoke runs are noisy
// (single iteration, shared CI machines), so only large movements are worth
// flagging. Allocation counts are the steadiest of the three metrics.
const (
	warnNsRatio     = 1.5
	warnBytesRatio  = 1.3
	warnAllocsRatio = 1.2
)

// runBenchCompare measures a fresh run and diffs it against a committed
// BENCH_*.json baseline. It is warn-only: regressions are printed, nothing
// is written, and the exit status stays zero unless the measurement itself
// (or reading the baseline) fails.
func runBenchCompare(cfg harness.Config, baselineFile string, iters int) error {
	raw, err := os.ReadFile(baselineFile)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var baseline benchReport
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselineFile, err)
	}
	base := map[string]benchResult{}
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}

	fresh, err := measureBenchmarks(cfg, iters)
	if err != nil {
		return err
	}

	ratio := func(now, then int64) float64 {
		if then <= 0 {
			return 1
		}
		return float64(now) / float64(then)
	}
	fmt.Printf("Benchmark comparison vs %s (%s, warn-only)\n", baselineFile, baseline.Date)
	fmt.Printf("%-40s %10s %10s %10s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	warned := 0
	for _, f := range fresh.Benchmarks {
		b, ok := base[f.Name]
		if !ok {
			fmt.Printf("%-40s %33s\n", f.Name, "(not in baseline)")
			continue
		}
		rn, rb, ra := ratio(f.NsPerOp, b.NsPerOp), ratio(f.BytesPerOp, b.BytesPerOp), ratio(f.AllocsPerOp, b.AllocsPerOp)
		mark := ""
		if rn > warnNsRatio || rb > warnBytesRatio || ra > warnAllocsRatio {
			mark = "  <-- WARN: regression vs baseline"
			warned++
		}
		fmt.Printf("%-40s %9.2fx %9.2fx %9.2fx%s\n", f.Name, rn, rb, ra, mark)
	}
	for _, b := range baseline.Benchmarks {
		found := false
		for _, f := range fresh.Benchmarks {
			if f.Name == b.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%-40s %33s\n", b.Name, "(baseline case no longer measured)")
		}
	}
	if warned > 0 {
		fmt.Printf("%d benchmark(s) regressed past the warn thresholds (ns>%.1fx, B>%.1fx, allocs>%.1fx)\n",
			warned, warnNsRatio, warnBytesRatio, warnAllocsRatio)
	} else {
		fmt.Println("all benchmarks within the warn thresholds of the baseline")
	}
	return nil
}
