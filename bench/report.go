package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// report is what -json writes and -compare reads: every run made, not just
// the medians.
type report struct {
	Machine  machine              `json:"machine"`
	Seconds  float64              `json:"seconds"`
	Seed     uint64               `json:"seed"`
	Runs     []*runResult         `json:"runs"`
	Kernels  map[string][]float64 `json:"kernels"` // every repetition of every traced run's ladder
	Summary  map[string]summary   `json:"summary"` // by workload
	Failures []string             `json:"failures,omitempty"`
}

type machine struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
}

// summary is one workload's rows: end-to-end metrics over the untraced
// runs, and the per-layer metrics (counters from the untraced runs, spans
// from the traced run, the rest computed).
type summary struct {
	EndToEnd map[string]row     `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
	Digest   string             `json:"digest"`
}

type row struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func newRow(vals []float64) row {
	lo, hi := minMax(vals)
	return row{Median: median(vals), Min: lo, Max: hi, Values: vals}
}

// child re-executes this binary for one run and parses the two JSON lines it
// ends with. A fresh process per run keeps pool state, heap and goroutines
// from carrying over, which matters: on sock the chunk pool never recovers.
func child(self string, wl string, seed uint64, seconds float64, traced bool, traceOut string, smoke bool) (*runResult, error) {
	args := []string{"-workload", wl, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if traced {
		args = append(args, "-trace", "1")
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut+"-"+wl+".json")
		}
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", wl, strings.Join(args, " "), err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: run printed no result", wl)
	}
	res := &runResult{}
	if err := json.Unmarshal(lines[len(lines)-2], res); err != nil {
		return nil, fmt.Errorf("%s: result: %w", wl, err)
	}
	return res, nil
}

// reportMode is `go run ./bench`: for every workload, -runs untraced runs
// and one traced run, each in a process of its own; then every metric by
// name. It returns non-zero if anything failed or disagreed.
func reportMode(only string, runs int, seed uint64, seconds float64, traceOut, jsonOut string, smoke bool) int {
	list := workloads
	if only != "" {
		wl, ok := findWorkload(only)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", only))
		}
		list = []workloadDef{wl}
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	rep := &report{
		Machine: machine{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH},
		Seconds: seconds, Seed: seed, Kernels: map[string][]float64{}, Summary: map[string]summary{},
	}
	fmt.Printf("bench: %d workloads x (%d untraced runs + 1 traced run) of %g s, seeds %d..%d, %d CPUs, GOMAXPROCS %d, %s\n",
		len(list), runs, seconds, seed, seed+uint64(runs)-1, rep.Machine.CPUs, rep.Machine.GOMAXPROCS, rep.Machine.GoVersion)
	traced := map[string]*runResult{}
	for _, wl := range list {
		for i := 0; i <= runs; i++ {
			isTraced := i == runs
			s := seed + uint64(i)
			if isTraced {
				s = seed
			}
			res, err := child(self, wl.name, s, seconds, isTraced, traceOut, smoke)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			rep.Runs = append(rep.Runs, res)
			if isTraced {
				traced[wl.name] = res
				for name, reps := range res.KernelReps {
					rep.Kernels[name] = append(rep.Kernels[name], reps...)
				}
				fmt.Printf("  %-10s traced   %d+%d epochs, trace overhead %+.1f %%\n", wl.name,
					res.Samples["epochs"], res.Samples["traced_epochs"], 100*res.PerLayer["run.trace_overhead_frac"])
			} else {
				fmt.Printf("  %-10s run %d/%d  seed %d  %d epochs  exchange_p02 %.4g ms  %d/%d failed\n", wl.name,
					i+1, runs, s, res.Samples["epochs"], res.EndToEnd["exchange_p02_ms"], res.Failed, res.Attempted)
			}
			for _, w := range res.Warnings {
				fmt.Printf("  WARN %s: %s\n", wl.name, w)
			}
		}
	}
	kern := map[string]float64{}
	for name, reps := range rep.Kernels {
		kern[name] = median(reps)
	}
	for _, wl := range list {
		rep.summarize(wl, traced[wl.name], kern)
	}
	if a, b := rep.Summary["bw-chan"], rep.Summary["bw-sock"]; a.Digest != "" && b.Digest != "" && a.Digest != b.Digest {
		rep.Failures = append(rep.Failures, fmt.Sprintf("bw-chan and bw-sock consumer digests differ: %s vs %s", a.Digest, b.Digest))
	}
	rep.print(os.Stdout, list)
	if jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	for _, f := range rep.Failures {
		fmt.Println("FAIL", f)
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	return 0
}

// summarize folds one workload's runs into its rows and records what must
// fail the report: failed operations, counters that did not repeat within a
// run or between runs, digests that differ between runs.
func (rep *report) summarize(wl workloadDef, traced *runResult, kern map[string]float64) {
	sum := summary{EndToEnd: map[string]row{}, PerLayer: map[string]float64{}}
	var plain []*runResult
	for _, r := range rep.Runs {
		if r.Workload == wl.name && !r.Traced {
			plain = append(plain, r)
		}
	}
	for _, r := range append(plain, traced) {
		if r.Failed > 0 {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s seed %d: %d of %d failed", wl.name, r.Seed, r.Failed, r.Attempted))
		}
		if !r.Correct && r.Failed == 0 {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s seed %d: per-epoch counters differ between epochs", wl.name, r.Seed))
		}
		if sum.Digest == "" {
			sum.Digest = r.Digest
		}
		// The query sequence, and so the digest of what it read, follows the seed.
		if r.Digest != sum.Digest && wl.kind != kindQuery {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: digest %s at seed %d, %s before", wl.name, r.Digest, r.Seed, sum.Digest))
		}
	}
	if len(plain) == 0 {
		plain = []*runResult{traced}
	}
	med := map[string]float64{}
	for _, m := range endToEnd {
		var vals []float64
		for _, r := range plain {
			vals = append(vals, r.EndToEnd[m.name])
		}
		sum.EndToEnd[m.name] = newRow(vals)
		med[m.name] = sum.EndToEnd[m.name].Median
	}
	for _, m := range counterMetrics {
		var vals []float64
		for _, r := range plain {
			vals = append(vals, r.PerLayer[m.name])
		}
		sum.PerLayer[m.name] = median(vals)
	}
	for _, name := range exactCounters {
		if wl.kind == kindQuery {
			break // each seed draws another sequence, so runs differ by design
		}
		for _, r := range plain {
			if r.PerLayer[name] != plain[0].PerLayer[name] {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %s is %g at seed %d and %g at seed %d",
					wl.name, name, plain[0].PerLayer[name], plain[0].Seed, r.PerLayer[name], r.Seed))
				break
			}
		}
	}
	for _, m := range spanMetrics {
		sum.PerLayer[m.name] = traced.PerLayer[m.name]
	}
	sum.PerLayer["run.trace_overhead_frac"] = traced.PerLayer["run.trace_overhead_frac"]
	for name, v := range kern {
		sum.PerLayer[name] = v
	}
	derive(wl, med, sum.PerLayer, kern)
	rep.Summary[wl.name] = sum
}

// derive fills in the per-layer numbers that are computed, not measured:
// the workload's rate against its roofline, and the attribution of an
// epoch's CPU time (GOMAXPROCS x exchange_p02) to layers, from the kernel
// rates and the per-epoch counters. They are rough on purpose — a layer's
// share says where to look, the kernels and the end-to-end metric decide.
func derive(wl workloadDef, e2e, pl, kern map[string]float64) {
	roof := kern["roofline.memcpy_MBps"]
	if wl.engine == "sock" {
		roof = kern["roofline.unix_MBps"]
	}
	pl["run.frac_of_roofline"] = e2e["redist_MBps"] / roof

	exchange := e2e["exchange_p02_ms"] / 1e3
	cpu := exchange * float64(runtime.GOMAXPROCS(0))
	secs := func(bytes float64, rate string) float64 { return bytes / 1e6 / kern[rate] }
	spec := wl.spec()
	var gridSec float64
	switch wl.kind {
	case kindQuery:
		b := float64(wl.payloadBytes())
		gridSec = secs(b, "grid.gather_strided_MBps") + secs(b, "grid.scatter_strided_MBps")
	case kindBulk:
		g, p := float64(spec.TotalGridPoints()*8), float64(spec.TotalParticles()*12)
		gridSec = secs(g, "grid.gather_contig_MBps") + secs(g, "grid.scatter_strided_MBps") +
			secs(p, "grid.gather_rows12_MBps") + secs(p, "grid.scatter_rows12_MBps")
	case kindFile:
		// File mode moves whole coalesced runs: native and pfs do the copying,
		// and neither is among the attr.* names. Its table has their rows.
	}
	calls := pl["core.box_queries"] + pl["core.metadata_requests"] + pl["core.data_queries"]
	rpcSec := secs(pl["core.bytes_served"], "rpc.stream_MBps") + calls*kern["rpc.call_rtt_us"]/1e6
	var sockSec float64
	if wl.engine == "sock" {
		sockSec = secs(pl["transport.sent_bytes"], "transport.sock_stream_MBps") +
			pl["transport.sent_frames"]*kern["transport.sock_rtt_us"]/2/1e6
	}
	// Pool waits are wall time, and the producers wait side by side.
	bufWait := pl["buf.overflow"] * 0.1 / producers
	pl["attr.grid_share"] = gridSec / cpu
	pl["attr.rpc_share"] = rpcSec / cpu
	pl["attr.transport_share"] = sockSec / cpu
	pl["attr.buf_wait_share"] = bufWait / exchange
	rest := 1 - pl["attr.grid_share"] - pl["attr.rpc_share"] - pl["attr.transport_share"] - pl["attr.buf_wait_share"]
	pl["attr.unattributed_share"] = max(rest, 0)
}

// printRun prints one run's metrics by name.
func printRun(w io.Writer, res *runResult) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  %d set-ups, %d epochs, %d reads of which %d grid reads timed\n", res.Workload, res.Seed, kind,
		res.Samples["setups"], res.Samples["epochs"], res.Samples["reads"], res.Samples["queries"])
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-40s %-6s %.6g\n", m.name, m.unit, res.EndToEnd[m.name])
	}
	for _, m := range perLayer() {
		if v, ok := res.PerLayer[m.name]; ok {
			fmt.Fprintf(w, "  %-40s %-6s %.6g\n", m.name, m.unit, v)
		}
	}
	for _, warn := range res.Warnings {
		fmt.Fprintf(w, "  WARN %s\n", warn)
	}
}

func vals(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return strings.Join(s, " ")
}

// printLadder prints the kernel ladder: the median of every repetition, the
// range, and bandwidths as a fraction of the memcpy roofline.
func printLadder(w io.Writer, reps map[string][]float64) {
	roof := median(reps["roofline.memcpy_MBps"])
	fmt.Fprintf(w, "\nkernel ladder (median of n repetitions; bandwidths also as a fraction of roofline.memcpy_MBps)\n")
	fmt.Fprintf(w, "  %-40s %-6s %12s %12s %12s %4s %8s\n", "metric", "unit", "median", "min", "max", "n", "/memcpy")
	for _, k := range kernels {
		for _, m := range k.metrics {
			v := reps[m.name]
			lo, hi := minMax(v)
			frac := ""
			if m.unit == "MB/s" {
				frac = fmt.Sprintf("%.3f", median(v)/roof)
			}
			fmt.Fprintf(w, "  %-40s %-6s %12.5g %12.5g %12.5g %4d %8s\n", m.name, m.unit, median(v), lo, hi, len(v), frac)
		}
	}
}

// print writes the report: end-to-end rows, per-layer metrics, the ladder,
// and the computed where-the-time-goes table of every workload.
func (rep *report) print(w io.Writer, list []workloadDef) {
	for _, wl := range list {
		sum := rep.Summary[wl.name]
		epochs, reads := 0, 0
		for _, r := range rep.Runs {
			if r.Workload == wl.name && !r.Traced {
				epochs += r.Samples["epochs"]
				reads += r.Samples["queries"]
			}
		}
		fmt.Fprintf(w, "\n%s — %s\n", wl.name, wl.why)
		fmt.Fprintf(w, "  input: %.1f MB per epoch; percentiles over %d epochs and %d reads in all runs\n",
			float64(wl.payloadBytes())/1e6, epochs, reads)
		fmt.Fprintf(w, "  %-26s %-6s %12s %12s %12s   %s\n", "end-to-end", "unit", "median", "min", "max", "per run")
		for _, m := range endToEnd {
			r := sum.EndToEnd[m.name]
			fmt.Fprintf(w, "  %-26s %-6s %12.5g %12.5g %12.5g   %s\n", m.name, m.unit, r.Median, r.Min, r.Max, vals(r.Values))
		}
		fmt.Fprintf(w, "  per-layer (spans from the traced run, counters per epoch, attr.* and run.frac_of_roofline computed)\n")
		for _, m := range workloadLayers() {
			fmt.Fprintf(w, "    %-38s %-6s %.6g\n", m.name, m.unit, sum.PerLayer[m.name])
		}
	}
	if len(rep.Kernels) > 0 {
		printLadder(w, rep.Kernels)
	}
	for _, wl := range list {
		rep.printWhere(w, wl)
	}
}

// printWhere prints the where-the-time-goes table of one workload as
// markdown, for README.md. Every column but the first two is computed.
func (rep *report) printWhere(w io.Writer, wl workloadDef) {
	sum := rep.Summary[wl.name]
	pl := sum.PerLayer
	exchange := sum.EndToEnd["exchange_p02_ms"].Median
	roofName := "roofline.memcpy_MBps"
	if wl.engine == "sock" {
		roofName = "roofline.unix_MBps"
	}
	roof := pl[roofName]
	if roof == 0 {
		return
	}
	spec := wl.spec()
	g, p := float64(spec.TotalGridPoints()*8), float64(spec.TotalParticles()*12)
	if wl.kind == kindQuery {
		g, p = float64(wl.payloadBytes()), 0
	}
	type line struct {
		layer string
		bytes float64
	}
	var lines []line
	served := pl["core.bytes_served"]
	switch wl.kind {
	case kindBulk:
		lines = []line{
			{"grid.gather_contig_MBps", g}, {"grid.scatter_strided_MBps", g},
			{"grid.gather_rows12_MBps", p}, {"grid.scatter_rows12_MBps", p},
			{"core.stream_regions_MBps", served}, {"rpc.stream_MBps", served},
		}
	case kindQuery:
		lines = []line{
			{"grid.gather_strided_MBps", g}, {"grid.scatter_strided_MBps", g},
			{"core.stream_regions_MBps", served}, {"rpc.stream_MBps", served},
		}
	case kindFile:
		// The metadata VOL's deep copy on write and native's packed-to-user
		// copy on read are plain copies of the payload.
		lines = []line{{"pfs.write_runs_MBps", g + p}, {"pfs.read_runs_MBps", g + p}, {"roofline.memcpy_MBps", 2 * (g + p)}}
	}
	if wl.engine == "sock" {
		sent := pl["transport.sent_bytes"]
		lines = append(lines, line{"transport.frame_encode_MBps", sent}, line{"transport.frame_decode_MBps", sent},
			line{"transport.sock_stream_MBps", sent}, line{"roofline.unix_MBps", sent})
	}
	fmt.Fprintf(w, "\n#### %s: where the time goes (exchange_p02 %.4g ms, %.1f MB per epoch, %.3f of %s)\n\n",
		wl.name, exchange, float64(wl.payloadBytes())/1e6, pl["run.frac_of_roofline"], roofName)
	fmt.Fprintf(w, "| layer kernel | MB/s | fraction of %s | MB per epoch through it | ms per epoch, *computed* | share of exchange, *computed* |\n", roofName)
	fmt.Fprintf(w, "|---|---|---|---|---|---|\n")
	for _, l := range lines {
		rate := pl[l.layer]
		if l.bytes == 0 || rate == 0 {
			continue
		}
		msPer := l.bytes / 1e6 / rate * 1e3
		fmt.Fprintf(w, "| %s | %.0f | %.3f | %.1f | %.2f | %.3f |\n", l.layer, rate, rate/roof, l.bytes/1e6, msPer, msPer/exchange)
	}
	fmt.Fprintf(w, "\n*computed* shares of the epoch's CPU time (GOMAXPROCS x exchange_p02): grid %.3f, rpc %.3f, transport %.3f; pool waits %.3f of the exchange; unattributed %.3f.\n",
		pl["attr.grid_share"], pl["attr.rpc_share"], pl["attr.transport_share"], pl["attr.buf_wait_share"], pl["attr.unattributed_share"])
}
