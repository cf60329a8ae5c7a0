package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareReports applies each end-to-end metric's bound to the medians of
// two reports, workload by workload, and compares the exact counters for
// equality. A metric whose two ranges overlap by more than its bound is
// unresolved — the runs cannot tell the sides apart — not unchanged. It
// returns non-zero when a metric regressed or a counter changed.
func compareReports(oldPath, newPath string) int {
	older, err := readReport(oldPath)
	if err != nil {
		fatal(err)
	}
	newer, err := readReport(newPath)
	if err != nil {
		fatal(err)
	}
	return compare(older, newer)
}

// canarySlack is how far apart two reports' cpu canaries may be before
// -compare says the machine changed. On the reference box a quiet machine
// reads 1.0-1.3 ms and a busy host 1.8 ms.
const canarySlack = 1.25

func compare(older, newer *report) int {
	var names []string
	for name := range older.Summary {
		if _, ok := newer.Summary[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	bad := 0
	fmt.Printf("%-11s %-26s %12s %12s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	for _, name := range names {
		o, n := older.Summary[name], newer.Summary[name]
		if oc, nc := o.PerLayer["proc.cpu_canary_ns"], n.PerLayer["proc.cpu_canary_ns"]; oc > 0 && (nc > canarySlack*oc || oc > canarySlack*nc) {
			fmt.Printf("%-11s WARN proc.cpu_canary_ns is %.0f and %.0f: the machine changed between the two reports, so the rows below compare machines\n", name, oc, nc)
		}
		for _, m := range endToEnd {
			verdict, change := judge(m, o.EndToEnd[m.name], n.EndToEnd[m.name])
			if verdict == "REGRESSED" {
				bad++
			}
			fmt.Printf("%-11s %-26s %12.5g %12.5g %+7.1f%% %6.0f%%  %s\n", name, m.name,
				o.EndToEnd[m.name].Median, n.EndToEnd[m.name].Median, 100*change, 100*m.bound, verdict)
		}
		for _, c := range exactCounters {
			if ov, nv := o.PerLayer[c], n.PerLayer[c]; ov != nv {
				bad++
				fmt.Printf("%-11s %-26s %12g %12g  counter CHANGED\n", name, c, ov, nv)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d regressed or changed\n", bad)
		return 1
	}
	return 0
}

// judge compares one metric's rows. change is how much worse the new median
// is, as a share of the old one (negative when it is better).
func judge(m metricDef, o, n row) (verdict string, change float64) {
	change = (n.Median - o.Median) / o.Median
	if m.better == "higher" {
		change = -change
	}
	overlap := min(o.Max, n.Max) - max(o.Min, n.Min)
	switch {
	case overlap > m.bound*o.Median:
		return "unresolved (ranges overlap by more than the bound)", change
	case change > m.bound:
		return "REGRESSED", change
	case change < -m.bound:
		return "improved", change
	}
	return "unchanged", change
}
