package harness

import (
	"sync"
	"testing"

	"lowfive/h5"
	"lowfive/internal/core"
	"lowfive/internal/workload"
	"lowfive/metrics"
	"lowfive/mpi"
)

// findSnap returns the snapshot with the given instrument name, or nil.
func findSnap(snaps []metrics.Snapshot, name string) *metrics.Snapshot {
	for i := range snaps {
		if snaps[i].Name == name {
			return &snaps[i]
		}
	}
	return nil
}

// TestMetricsMatchQueryStats runs one full redistribution with the metrics
// plane attached and cross-checks the two accounting systems against each
// other: the RPC client's per-method latency histograms must have recorded
// exactly as many calls as the VOL's QueryStats counters say were issued.
func TestMetricsMatchQueryStats(t *testing.T) {
	c := QuickConfig()
	c.Metrics = metrics.NewRegistry()
	spec, err := c.specFor(4, c.ScaleFactor)
	if err != nil {
		t.Fatal(err)
	}
	var qmu sync.Mutex
	var qs core.QueryStats
	var errs errCollector
	err = mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "producer", Procs: spec.Producers, Main: func(p *mpi.Proc) {
			gridVals, partVals := workload.GenerateProducer(spec, p.Task.Rank())
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("consumer"))
			vol.SetZeroCopy("*", "*")
			c.instrument(vol, false)
			fapl := h5.NewFileAccessProps(vol)
			f, err := h5.CreateFile("m.h5", fapl)
			if err != nil {
				errs.add(err)
				return
			}
			errs.add(workload.WriteSynthetic(f, spec, p.Task.Rank(), gridVals, partVals))
			errs.add(f.Close())
		}},
		{Name: "consumer", Procs: spec.Consumers, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("producer"))
			c.instrument(vol, true)
			fapl := h5.NewFileAccessProps(vol)
			f, err := h5.OpenFile("m.h5", fapl)
			if err != nil {
				errs.add(err)
				return
			}
			_, _, err = workload.ReadConsumer(f, spec, p.Task.Rank())
			errs.add(err)
			errs.add(f.Close())
			qmu.Lock()
			qs.Add(vol.QueryStats())
			qmu.Unlock()
		}},
	}, c.mpiOpts()...)
	if err == nil {
		err = errs.first()
	}
	if err != nil {
		t.Fatal(err)
	}
	snaps := c.Metrics.Snapshot()
	for _, tc := range []struct {
		hist string
		want int64
	}{
		{"rpc.client.call_us.metadata", qs.MetadataFetches},
		{"rpc.client.call_us.boxes", qs.BoxQueries},
		{"rpc.client.call_us.datastream", qs.DataQueries},
	} {
		s := findSnap(snaps, tc.hist)
		if s == nil {
			t.Fatalf("instrument %q not in registry snapshot", tc.hist)
		}
		if tc.want == 0 {
			t.Fatalf("QueryStats counter for %q is zero — the exchange did not run", tc.hist)
		}
		if s.Count != uint64(tc.want) {
			t.Errorf("%s: histogram count %d, QueryStats says %d calls", tc.hist, s.Count, tc.want)
		}
		if s.Sum <= 0 {
			t.Errorf("%s: histogram sum %d, want > 0", tc.hist, s.Sum)
		}
	}
	// The consumer-side query latency histogram records one entry per
	// dataset read (grid + particles per consumer rank).
	if s := findSnap(snaps, "core.query.latency_us"); s == nil {
		t.Error("core.query.latency_us not in registry snapshot")
	} else if s.Count != uint64(2*spec.Consumers) {
		t.Errorf("core.query.latency_us: count %d, want %d (2 reads per consumer)", s.Count, 2*spec.Consumers)
	}
	// The producers served every query the consumers issued.
	if s := findSnap(snaps, "core.serve.latency_us"); s == nil {
		t.Error("core.serve.latency_us not in registry snapshot")
	} else if s.Count == 0 {
		t.Error("core.serve.latency_us: no serve-side latency recorded")
	}
	// The world recorded traffic on the instrumented links.
	if s := findSnap(snaps, "mpi.send.bytes"); s == nil || s.Value == 0 {
		t.Error("mpi.send.bytes: no per-link traffic recorded")
	}
}
