// Command lowfive-bench regenerates the paper's synthetic-benchmark tables
// and figures (Table I and Figures 5–9 and 11). Each figure is printed as
// an aligned text table: one row per total process count, one column per
// transport, completion time in seconds.
//
// Usage:
//
//	lowfive-bench                      # all experiments at default scale
//	lowfive-bench -exp fig7            # a single experiment
//	lowfive-bench -scales 4,16,64,256,1024 -factor 100 -trials 3
//	lowfive-bench -quick               # tiny smoke-test configuration
//	lowfive-bench -profile             # one instrumented exchange + summary
//	lowfive-bench -trace out.json -profile   # also write a Chrome trace
//	lowfive-bench -faults              # fault + supervised-recovery sweeps (chaos testing)
//	lowfive-bench -storm               # query-storm overload sweep (admission control, load shedding)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lowfive/internal/harness"
	"lowfive/internal/rankmain"
	"lowfive/internal/workload"
	"lowfive/metrics"
	"lowfive/trace"
)

func main() {
	// The sock-transport smoke spawns one OS process per world rank by
	// re-executing this binary; intercept those children before flags.
	rankmain.ChildFromEnv()

	var (
		exp          = flag.String("exp", "all", "experiment: table1|fig5|fig6|fig7|fig8|fig9|fig11|overlap|all")
		scales       = flag.String("scales", "", "comma-separated total process counts (default 4,16,64,256)")
		factor       = flag.Int64("factor", 0, "divide the paper's per-producer element counts (10^6) by this (default 10)")
		large        = flag.Int64("large-factor", 0, "scale factor for the Fig. 11 large-data runs (default 1 = the paper-size data)")
		trials       = flag.Int("trials", 0, "trials averaged per point (default 3, as in the paper)")
		alpha        = flag.Duration("net-alpha", -1, "interconnect per-message latency (default 2ms, the scaled-Aries regime)")
		beta         = flag.Float64("net-beta", 0, "interconnect bandwidth, bytes/s (default 50e6, the scaled-Aries regime)")
		quick        = flag.Bool("quick", false, "tiny configuration for a fast smoke run")
		format       = flag.String("format", "table", "output format: table|csv")
		verbose      = flag.Bool("v", true, "print per-trial progress")
		traceOut     = flag.String("trace", "", "write a Chrome trace_event JSON of one profiled exchange to this file (implies -profile)")
		profile      = flag.Bool("profile", false, "run one instrumented exchange and print its per-task per-phase summary instead of the figure suite")
		faults       = flag.Bool("faults", false, "run the fault-injection sweep: exchanges under seeded chaos plans, checked bit-for-bit against a fault-free baseline")
		storm        = flag.Bool("storm", false, "run the query-storm overload sweep: a greedy tenant saturates admission while the favored tenant's p99 stays bounded and admitted data validates bit-for-bit")
		stormClients = flag.Int("storm-clients", 0, "greedy-tenant closed-loop client count for -storm (0 = default tuning)")
		stormZipf    = flag.Float64("storm-zipf", 0, "zipf skew of storm box popularity, must be > 1 (0 = default 1.2)")
		stormQueries = flag.Int("storm-queries", 0, "queries per favored client for -storm — the closed-loop stand-in for a storm duration (0 = default tuning)")
		stormSeed    = flag.Uint64("storm-seed", benchStormSeed, "seed for the storm's deterministic query sequences")
		seed         = flag.Int64("seed", 1, "seed for the fault-injection plans")
		httpAddr     = flag.String("http", "", "serve live metrics (/metrics, /metrics.json, /stats, /slow) on this address while the run executes (e.g. :8080 or 127.0.0.1:0)")
		statsOut     = flag.String("stats-out", "", "with -profile, also write the run artifact (stats + metrics snapshot + slow queries) as JSON to this file")
		transport    = flag.String("transport", harness.TransportChan, "message engine: chan (in-proc, cost-modeled — runs the figure suite) or sock (real sockets, one process per rank — runs the socket smoke sweep)")
	)
	flag.Parse()

	cfg := harness.DefaultConfig()
	if *quick {
		cfg = harness.QuickConfig()
	}
	if *scales != "" {
		cfg.Scales = nil
		for _, s := range strings.Split(*scales, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 4 {
				fmt.Fprintf(os.Stderr, "bad scale %q (need integers >= 4)\n", s)
				os.Exit(2)
			}
			cfg.Scales = append(cfg.Scales, v)
		}
	}
	if *factor > 0 {
		cfg.ScaleFactor = *factor
	}
	if *large > 0 {
		cfg.LargeFactor = *large
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *alpha >= 0 {
		cfg.NetAlpha = *alpha
	}
	if *beta > 0 {
		cfg.NetBeta = *beta
	}
	cfg.Verbose = *verbose
	cfg.Log = os.Stderr
	cfg.Transport = *transport

	switch *transport {
	case harness.TransportChan:
	case harness.TransportSock:
		if *faults {
			if err := runSockFaults(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "sock fault sweep failed: %v\n", err)
				os.Exit(1)
			}
			return
		}
		if err := runSockSmoke(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "sock smoke failed: %v\n", err)
			os.Exit(1)
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "unknown -transport %q (want chan or sock)\n", *transport)
		os.Exit(2)
	}

	if *httpAddr != "" {
		cfg.DebugAddr = *httpAddr
		addr, srv, err := cfg.EnableDebug()
		if err != nil {
			fmt.Fprintf(os.Stderr, "debug server failed: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "live metrics: http://%s/ (/metrics, /metrics.json, /stats, /slow)\n", addr)
	}

	if *profile || *traceOut != "" {
		if err := runProfile(cfg, *traceOut, *statsOut); err != nil {
			fmt.Fprintf(os.Stderr, "profile failed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *faults {
		if err := runFaults(cfg, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "fault sweep failed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *storm {
		st := workload.StormSpec{Seed: *stormSeed, ZipfS: *stormZipf}
		tune := harness.DefaultStormTuning()
		if *stormClients > 0 {
			tune.GreedyClients = *stormClients
		}
		if *stormQueries > 0 {
			tune.FavoredQueries = *stormQueries
		}
		if err := runStorm(cfg, st, tune); err != nil {
			fmt.Fprintf(os.Stderr, "storm sweep failed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	type experiment struct {
		name string
		run  func() (harness.Figure, error)
	}
	experiments := []experiment{
		{"fig5", cfg.Fig5},
		{"fig6", cfg.Fig6},
		{"fig7", cfg.Fig7},
		{"fig8", cfg.Fig8},
		{"fig9", cfg.Fig9},
		{"fig11", cfg.Fig11},
		{"overlap", cfg.FigOverlap},
	}

	want := strings.ToLower(*exp)
	if want == "table1" || want == "all" {
		cfg.PrintTableI(os.Stdout)
		fmt.Println()
		if want == "table1" {
			return
		}
	}
	ran := false
	for _, e := range experiments {
		if want != "all" && want != e.name {
			continue
		}
		ran = true
		start := time.Now()
		fig, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		if *format == "csv" {
			fmt.Printf("# %s: %s\n", fig.ID, fig.Title)
			if err := fig.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				os.Exit(1)
			}
		} else {
			fig.Print(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "%s completed in %v\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran && want != "all" && want != "table1" {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// runSockSmoke runs the real-socket transport sweep: each case spawns one
// OS process per world rank (re-executing this binary), runs the
// deterministic producer→consumer workload over TCP or Unix sockets, and
// checks the consumer data is bit-identical to the in-proc chan run — for
// the kill case, across a SIGKILLed and respawned rank process.
func runSockSmoke(cfg harness.Config) error {
	results, err := cfg.SockSmoke(nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %-6s %6s %9s %10s %9s\n", "case", "net", "procs", "restarts", "identical", "seconds")
	for _, r := range results {
		fmt.Printf("%-22s %-6s %6d %9d %10v %9.2f\n",
			r.Case, r.Network, r.Procs, r.Restarts, r.Identical, r.Seconds)
	}
	fmt.Println("all socket cases delivered bit-identical consumer data")
	return nil
}

// runSockFaults runs the wire-level fault matrix over real rank processes:
// hard resets mid-frame, seeded corruption, a throttled wire, a partition
// window, and a SIGKILL stacked on corruption — each case checked
// bit-for-bit against the fault-free in-proc reference, with the summed
// recovery counters printed as proof the faults landed.
func runSockFaults(cfg harness.Config) error {
	results, err := cfg.SockFaultSweep(nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %-6s %6s %9s %11s %8s %7s %10s %9s\n",
		"case", "net", "procs", "restarts", "reconnects", "redials", "resent", "identical", "seconds")
	for _, r := range results {
		fmt.Printf("%-24s %-6s %6d %9d %11d %8d %7d %10v %9.2f\n",
			r.Case, r.Network, r.Procs, r.Restarts, r.Reconnects, r.Redials, r.ResentFrames, r.Identical, r.Seconds)
	}
	fmt.Println("all wire-fault cases delivered bit-identical consumer data")
	return nil
}

// runFaults runs the producer–consumer exchange under each default chaos
// plan at the smallest configured scale, then the partition-and-straggler
// sweep (hedged queries vs link faults), then the supervised-recovery sweep
// (crash-then-restart, hang-then-timeout), then the staged-log sweep, and
// prints all four tables. A failed case (a rank error, data that differ
// from the baseline, or a missed expectation) makes the run exit nonzero,
// naming the seed so the exact plan can be replayed with -seed.
func runFaults(cfg harness.Config, seed int64) error {
	// The chaos sweeps are where queries actually go slow, so make sure the
	// observability plane is live: a registry for the per-layer instruments
	// and a flight recorder retaining the slowest queries. On a failed sweep
	// the recorder's contents are dumped so the tail that broke the run is
	// visible without a re-run.
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Flight == nil {
		cfg.Flight = metrics.NewFlightRecorder(256, harness.DefaultSlowQuery)
	}
	err := runFaultSweeps(cfg, seed)
	if err != nil && cfg.Flight.Total() > 0 {
		fmt.Fprintln(os.Stderr, "\nslow-query flight recorder at failure:")
		cfg.Flight.WriteText(os.Stderr)
	}
	return err
}

func runFaultSweeps(cfg harness.Config, seed int64) error {
	procs := 4
	if len(cfg.Scales) > 0 {
		procs = cfg.Scales[0]
	}
	spec := workload.PaperSpec(procs).Scaled(cfg.ScaleFactor)
	fmt.Fprintf(os.Stderr, "fault sweep: %d producers, %d consumers, seed %d\n",
		spec.Producers, spec.Consumers, seed)
	for i, sw := range []struct {
		label, note string
		table       harness.Table
		cases       []harness.Case
	}{
		{"case", "", harness.FaultTable, harness.DefaultFaultCases(seed)},
		{"partition case", "partition sweep: link faults vs hedged queries", harness.PartitionTable,
			harness.DefaultPartitionCases(spec, seed)},
		{"recovery case", "recovery sweep: supervised restart and hang detection", harness.RecoveryTable,
			harness.DefaultRecoveryCases(seed)},
		{"staging case", "staging sweep: staged-log faults and replay recovery", harness.StagingTable,
			harness.DefaultStagingCases()},
	} {
		if sw.note != "" {
			fmt.Fprintf(os.Stderr, "%s, seed %d\n", sw.note, seed)
		}
		results, err := cfg.Sweep(spec, sw.cases)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if i > 0 {
			fmt.Println()
		}
		sw.table.Print(os.Stdout, results)
		for _, r := range results {
			if r.Err != nil {
				return fmt.Errorf("%s %s (seed %d): %w", sw.label, r.Name, seed, r.Err)
			}
		}
	}
	fmt.Println("all fault, partition, recovery and staging cases delivered bit-identical consumer data")
	return nil
}

// benchStormSeed is the default -storm-seed: it fixes the storm's
// deterministic query sequences, so every run of -storm replays one storm.
const benchStormSeed = 42

// stormP99Factor bounds the favored tenant's storm-phase p99 as a multiple
// of its unloaded baseline p99 — the sweep's fairness contract.
const stormP99Factor = 5

// runStorm runs the query-storm overload sweep at the smallest configured
// scale: an unloaded baseline, then the storm itself — a greedy tenant
// saturating the producers' admission controllers while the favored tenant
// keeps its weighted fair share. The sweep's contract (sheds happened,
// breakers opened, favored p99 bounded, admitted data bit-identical, no
// leaked chunks) makes the run exit nonzero with the violated clauses named
// and the slow-query flight recorder dumped, replayable via -storm-seed.
func runStorm(cfg harness.Config, st workload.StormSpec, tune harness.StormTuning) error {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Flight == nil {
		cfg.Flight = metrics.NewFlightRecorder(256, harness.DefaultSlowQuery)
	}
	procs := 4
	if len(cfg.Scales) > 0 {
		procs = cfg.Scales[0]
	}
	spec := workload.PaperSpec(procs).Scaled(cfg.ScaleFactor)
	fmt.Fprintf(os.Stderr, "query storm: %d producers, %d consumers, %d greedy clients, seed %d\n",
		spec.Producers, spec.Consumers, tune.GreedyClients, st.Seed)
	dumpFlight := func() {
		if cfg.Flight.Total() > 0 {
			fmt.Fprintln(os.Stderr, "\nslow-query flight recorder at failure:")
			cfg.Flight.WriteText(os.Stderr)
		}
	}
	res, err := cfg.StormSweep(spec, st, tune)
	if err != nil {
		dumpFlight()
		return fmt.Errorf("seed %d: %w", st.Seed, err)
	}
	harness.PrintStormTable(os.Stdout, res)
	if reasons := res.FailureReasons(stormP99Factor); len(reasons) > 0 {
		dumpFlight()
		for _, r := range reasons {
			fmt.Fprintf(os.Stderr, "storm contract violated: %s\n", r)
		}
		return fmt.Errorf("seed %d: %d storm contract clause(s) violated", st.Seed, len(reasons))
	}
	fmt.Println("storm sweep passed: admitted data bit-identical, favored p99 bounded, greedy tenant shed and broken")
	return nil
}

// runProfile runs one fully instrumented exchange at the smallest configured
// scale, optionally writes the Chrome trace, and prints the per-task
// per-phase time/bytes summary plus the aggregated serve/query/OST counters.
// With statsOut it also writes the machine-readable run artifact (stats,
// metrics snapshot, slow queries) for lowfive-inspect -run.
func runProfile(cfg harness.Config, traceOut, statsOut string) error {
	procs := 4
	if len(cfg.Scales) > 0 {
		procs = cfg.Scales[0]
	}
	spec := workload.PaperSpec(procs).Scaled(cfg.ScaleFactor)
	fmt.Fprintf(os.Stderr, "profiling one exchange: %d producers, %d consumers\n",
		spec.Producers, spec.Consumers)

	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Flight == nil {
		cfg.Flight = metrics.NewFlightRecorder(256, harness.DefaultSlowQuery)
	}

	tr := trace.New()
	stats, err := cfg.Profile(tr, spec)
	if err != nil {
		return err
	}

	if statsOut != "" {
		f, err := os.Create(statsOut)
		if err != nil {
			return err
		}
		art := cfg.NewRunArtifact(stats)
		if err := art.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (inspect with lowfive-inspect -run %s)\n", statsOut, statsOut)
	}

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (open with Perfetto or chrome://tracing)\n", traceOut)
	}

	tr.WriteSummaryTable(os.Stdout)

	fmt.Printf("\nproducer serve totals: %d metadata, %d box queries, %d data queries, %d bytes served in %d chunks, %d done, %d parked\n",
		stats.Serve.MetadataRequests, stats.Serve.BoxQueries, stats.Serve.DataQueries,
		stats.Serve.BytesServed, stats.Serve.ChunksServed, stats.Serve.DoneMessages, stats.Serve.ParkedRequests)
	fmt.Printf("consumer query totals: %d metadata, %d box queries, %d data queries, %d bytes fetched in %d chunks, %v blocked waiting\n",
		stats.Query.MetadataFetches, stats.Query.BoxQueries, stats.Query.DataQueries,
		stats.Query.BytesFetched, stats.Query.ChunksFetched, stats.Query.WaitTime.Round(time.Microsecond))
	fmt.Println("pfs per-OST load:")
	for i, o := range stats.OSTs {
		fmt.Printf("  OST %2d: %5d requests, %10d bytes, queue wait %8v, busy %8v\n",
			i, o.Requests, o.Bytes, o.QueueWait.Round(time.Microsecond), o.Busy.Round(time.Microsecond))
	}
	return nil
}
