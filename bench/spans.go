package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"lowfive/trace"
)

// The benchmark records its spans from outside the program: one around each
// public call a rank makes in an epoch, on that rank's trace.Track, each
// carrying the epoch id and the rank and parented to the rank's epoch span.
// They stay in memory until the run ends.

// spanKey names the spans of one kind that one rank recorded in one epoch.
type spanKey struct {
	name        string
	epoch, rank int64
}

func argInt(ev trace.Event, key string) int64 {
	for _, a := range ev.Args {
		if a.Key == key {
			return a.Int
		}
	}
	return -1
}

// spanMetrics reduces the traced epochs to the span metrics — for each span
// kind the median over epochs of the slowest rank's total — writes the
// Chrome trace if one was asked for, and checks that the spans nest.
func (r *runner) spanMetrics(pl map[string]float64, res *runResult) error {
	totals := map[spanKey]time.Duration{}
	tracedEpochs := map[int64]bool{}
	var queries []float64
	var events []trace.Event
	for _, k := range r.tracer.Tracks() {
		for _, ev := range k.Events() {
			events = append(events, ev)
			totals[spanKey{ev.Name, argInt(ev, "epoch"), argInt(ev, "rank")}] += ev.Dur
			tracedEpochs[argInt(ev, "epoch")] = true
			if ev.Name == "core.query" {
				queries = append(queries, us(ev.Dur))
			}
		}
	}
	for _, m := range spanMetrics {
		if m.name == "core.query_us" {
			pl[m.name] = median(queries)
			res.Samples["query_spans"] = len(queries)
			continue
		}
		span := m.name[:len(m.name)-len("_ms")]
		var perEpoch []float64
		for e := range tracedEpochs {
			var slowest, sum time.Duration
			n := 0
			for rk := int64(0); rk < worldSize; rk++ {
				if d, ok := totals[spanKey{span, e, rk}]; ok {
					slowest = max(slowest, d)
					sum += d
					n++
				}
			}
			switch {
			case n == 0:
			case span == "mpi.barrier_wait":
				// Waiting is shared out, not set by one rank: report the mean.
				perEpoch = append(perEpoch, ms(sum)/float64(n))
			default:
				perEpoch = append(perEpoch, ms(slowest))
			}
		}
		pl[m.name] = median(perEpoch)
	}
	if err := checkSpans(events); err != nil {
		res.Warnings = append(res.Warnings, err.Error())
	}
	if r.cfg.traceOut == "" {
		return nil
	}
	f, err := os.Create(r.cfg.traceOut)
	if err != nil {
		return err
	}
	if err := r.tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkSpans verifies the shape the trace promises: every span carries a
// rank and an epoch, every child lies inside its rank's epoch span, and the
// self times of an epoch span and its children add up to the epoch within
// 5 % — which fails exactly when children overlap each other.
func checkSpans(events []trace.Event) error {
	type interval struct{ start, end time.Duration }
	epochs := map[spanKey]interval{}
	children := map[spanKey][]interval{}
	for _, ev := range events {
		e, rk := argInt(ev, "epoch"), argInt(ev, "rank")
		if e < 0 || rk < 0 {
			return fmt.Errorf("span %q carries no epoch or rank", ev.Name)
		}
		key := spanKey{"epoch", e, rk}
		iv := interval{ev.Start, ev.Start + ev.Dur}
		if ev.Name == "epoch" {
			epochs[key] = iv
		} else {
			children[key] = append(children[key], iv)
		}
	}
	for key, kids := range children {
		ep, ok := epochs[key]
		if !ok {
			return fmt.Errorf("rank %d epoch %d has spans but no epoch span", key.rank, key.epoch)
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var sum, covered time.Duration
		edge := ep.start
		for _, iv := range kids {
			if iv.start < ep.start || iv.end > ep.end {
				return fmt.Errorf("rank %d epoch %d: a span leaves its epoch", key.rank, key.epoch)
			}
			sum += iv.end - iv.start
			if iv.end > edge {
				covered += iv.end - max(iv.start, edge)
				edge = iv.end
			}
		}
		epoch := ep.end - ep.start
		selfSum := (epoch - covered) + sum
		if d := selfSum - epoch; d*20 > epoch {
			return fmt.Errorf("rank %d epoch %d: self times sum to %v, the epoch is %v", key.rank, key.epoch, selfSum, epoch)
		}
	}
	return nil
}
