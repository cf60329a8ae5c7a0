package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"lowfive/trace"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaredMetrics keeps BENCHMARK.json and the tables in workloads.go
// the same list: names, units, directions and bounds.
func TestDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the benchmark's default is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is declared twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		unique(w.name)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		unique(m.name)
		g := f.EndToEnd[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the benchmark %+v", i, g, m)
		}
	}
	pl := perLayer()
	if len(f.PerLayer) != len(pl) || len(pl) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d (at most 128)", len(f.PerLayer), len(pl))
	}
	for i, m := range pl {
		unique(m.name)
		if g := f.PerLayer[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.direction() {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the benchmark %s %s %s", i, g, m.name, m.unit, m.direction())
		}
	}
	for _, name := range exactCounters {
		if !seen[name] {
			t.Errorf("exact counter %q is not a declared metric", name)
		}
	}
}

// TestSmoke runs all six workloads at the smoke sizing, traced, and one
// repetition of every kernel, and checks that each run is correct and emits
// every declared metric exactly once, on every workload.
func TestSmoke(t *testing.T) {
	ladder, err := runKernels(1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	// The sock workloads go last: they leave their chunks outstanding in the
	// process-wide pool, and a workload after them would wait on it.
	order := append([]workloadDef{}, workloads...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].engine < order[j].engine })
	for _, wl := range order {
		res, err := runOnce(runConfig{wl: wl.smoke(), seed: 1, traced: true, smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		res.attachLadder(wl.smoke(), ladder)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", wl.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, w := range res.Warnings {
			if wl.engine != "sock" { // sock's one warning is the pool leak this benchmark reports
				t.Errorf("%s: %s", wl.name, w)
			}
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", wl.name, len(res.EndToEnd), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := res.EndToEnd[m.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s is %v, want a positive number", wl.name, m.name, v)
			}
		}
		line := res.line()
		if len(line.Metrics) != len(perLayer()) || len(res.PerLayer) != len(perLayer()) {
			t.Errorf("%s: %d per-layer metrics (%d in the result line), want %d", wl.name, len(res.PerLayer), len(line.Metrics), len(perLayer()))
		}
		for _, m := range perLayer() {
			v, ok := res.PerLayer[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s is %v", wl.name, m.name, v)
			}
		}
		if _, err := json.Marshal(line); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
		digests[wl.name] = res.Digest
	}
	if digests["lat-chan"] != digests["lat-sock"] {
		t.Errorf("chan and sock consumers read different bytes: %s vs %s", digests["lat-chan"], digests["lat-sock"])
	}
}

func TestCheckSpans(t *testing.T) {
	span := func(name string, start, dur time.Duration) trace.Event {
		return trace.Event{Name: name, Start: start, Dur: dur, Args: []trace.Arg{trace.I64("epoch", 3), trace.I64("rank", 1)}}
	}
	nested := []trace.Event{span("epoch", 0, 100), span("core.open", 5, 10), span("core.read_grid", 15, 80)}
	if err := checkSpans(nested); err != nil {
		t.Errorf("nested spans: %v", err)
	}
	overlapping := []trace.Event{span("epoch", 0, 100), span("core.open", 5, 50), span("core.read_grid", 15, 80)}
	if err := checkSpans(overlapping); err == nil {
		t.Error("overlapping children passed")
	}
	if err := checkSpans([]trace.Event{{Name: "core.open", Dur: 5}}); err == nil {
		t.Error("a span with no epoch or rank passed")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "exchange_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "redist_MBps", better: "higher", bound: 0.10}
	for _, c := range []struct {
		m    metricDef
		o, n []float64
		want string
	}{
		{lower, []float64{29, 30, 31}, []float64{29.5, 30.5, 31}, "unchanged"},
		{lower, []float64{29, 30, 31}, []float64{39, 40, 41}, "REGRESSED"},
		{lower, []float64{29, 30, 31}, []float64{19, 20, 21}, "improved"},
		{higher, []float64{1290, 1300, 1310}, []float64{990, 1000, 1010}, "REGRESSED"},
		{lower, []float64{25, 30, 35}, []float64{26, 34, 36}, "unresolved (ranges overlap by more than the bound)"},
	} {
		if got, _ := judge(c.m, newRow(c.o), newRow(c.n)); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.name, c.o, c.n, got, c.want)
		}
	}
	o := &report{Summary: map[string]summary{"bw-chan": {
		EndToEnd: map[string]row{}, PerLayer: map[string]float64{"core.chunks_served": 48},
	}}}
	n := &report{Summary: map[string]summary{"bw-chan": {
		EndToEnd: map[string]row{}, PerLayer: map[string]float64{"core.chunks_served": 52},
	}}}
	for _, m := range endToEnd {
		o.Summary["bw-chan"].EndToEnd[m.name] = newRow([]float64{1, 1, 1})
		n.Summary["bw-chan"].EndToEnd[m.name] = newRow([]float64{1, 1, 1})
	}
	if compare(o, o) != 0 {
		t.Error("a report differs from itself")
	}
	if compare(o, n) == 0 {
		t.Error("a changed exact counter passed")
	}
}
