// Command bench is the repository's benchmark: six redistribution workloads
// on both message engines, seven end-to-end metrics, a per-layer ladder of
// kernels with rooflines, and a traced run. It measures every layer from
// outside, by timing calls into public functions and reading public Stats.
// README.md beside this file has the workloads, the metrics and how they
// interact; BENCHMARK.json at the repository root declares them.
//
//	go run ./bench                       the whole report: every workload, -runs
//	                                     untraced runs and one traced run each
//	go run ./bench -workload bw-chan     one run in this process, one result line
//	go run ./bench -workload bw-chan -runs 3   the report, for that workload only
//	go run ./bench -layers               the kernel ladder alone, at full length
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// metricValue and resultLine are the one-line result of a single run, in
// the form BENCHMARK.json's driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Kernel ladder lengths: the full ladder of -layers, and the share of a
// traced run's -seconds that its short ladder may take.
const (
	fullReps       = 5
	fullRepTime    = 500 * time.Millisecond
	tracedReps     = 3
	tracedLadder   = 0.7 // of -seconds
	tracedWindow   = 0.3 // of -seconds
	defaultSeconds = 15
)

func main() {
	var (
		wlName   = flag.String("workload", "", "run only this workload; without -runs, make one run in this process and print its result line")
		runs     = flag.Int("runs", 3, "untraced runs per workload in a report (run i uses seed+i)")
		seed     = flag.Uint64("seed", 1, "seed of the query sequence")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		traceArg = flag.Int("trace", 0, "single run: 1 makes it the traced run, whose result line carries the per-layer metrics")
		traceOut = flag.String("trace-out", "", "write the traced run's spans as Chrome trace JSON to this file (a report appends -<workload>.json)")
		layers   = flag.Bool("layers", false, "run the kernel ladder alone: 5 repetitions of 0.5 s per kernel")
		jsonOut  = flag.String("json", "", "report: also write every run and the summary to this file")
		compare  = flag.Bool("compare", false, "compare two -json files: bench -compare old.json new.json")
		smoke    = flag.Bool("smoke", false, "self-test sizing: 10^3 elements, 3 epochs, 50 queries")
	)
	flag.Parse()
	runsSet := false
	flag.Visit(func(f *flag.Flag) { runsSet = runsSet || f.Name == "runs" })

	// The sock engine and the raw-socket kernels put their unix sockets in
	// os.TempDir(). Keep them inside the working directory, and relative, so
	// that a long checkout path cannot overflow a socket address.
	const tmp = ".bench_tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fatal(err)
	}
	os.Setenv("TMPDIR", tmp)
	code := 0
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files: old.json new.json"))
		}
		code = compareReports(flag.Arg(0), flag.Arg(1))
	case *layers:
		code = ladderOnly()
	case *wlName != "" && !runsSet:
		code = singleRun(*wlName, *seed, *seconds, *traceArg == 1, *traceOut, *smoke)
	default:
		code = reportMode(*wlName, *runs, *seed, *seconds, *traceOut, *jsonOut, *smoke)
	}
	os.Remove(tmp) // only succeeds once it is empty
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// singleRun makes one run in this process. It prints what it measured, then
// the full runResult as one JSON line, then the result line.
func singleRun(name string, seed uint64, seconds float64, traced bool, traceOut string, smoke bool) int {
	wl, ok := findWorkload(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatal(fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", ")))
	}
	cfg := runConfig{wl: wl, seed: seed, seconds: seconds, traced: traced, traceOut: traceOut, smoke: smoke}
	if smoke {
		cfg.wl = wl.smoke()
	}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printRun(os.Stdout, res)
	for _, v := range []any{res, res.line()} {
		b, err := json.Marshal(v)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
	// A run that printed its result exits 0: "correct" and "failed" in the
	// result line say how it went, and a report turns them into its exit code.
	return 0
}

// ladderOnly runs the kernel ladder at full length and prints it.
func ladderOnly() int {
	reps, err := runKernels(fullReps, fullRepTime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printLadder(os.Stdout, reps)
	return 0
}
