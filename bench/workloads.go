package main

import (
	"slices"

	"lowfive/internal/workload"
)

// The world every workload runs in: 4 producers feeding 2 consumers. It is
// the smallest shape where the producer blocks ([2,2,1]) and the consumer
// slabs ([2,1,1]) differ, so the scatter is strided and every consumer
// pulls from two producers.
const (
	producers = 4
	consumers = 2
	worldSize = producers + consumers
)

// kind is the shape of one epoch.
type kind int

const (
	// kindBulk: producers write and serve one file through the distributed
	// VOL, each consumer reads its own grid block and particle range.
	kindBulk kind = iota
	// kindQuery: the same served file, but each consumer is one closed-loop
	// client issuing small box reads against it.
	kindQuery
	// kindFile: the paper's file mode — writers then readers through
	// MetadataVOL+passthru over the native connector on a zero-cost PFS.
	kindFile
)

// workloadDef sizes one workload. Names are fixed: later issues cite them.
type workloadDef struct {
	name   string
	engine string // "chan" or "sock"
	kind   kind
	// elems is the grid points and the particles per producer.
	elems int64
	// queries is the box reads per client per epoch (kindQuery only).
	queries int
	// A run is a sequence of passes. Each pass forms a fresh world, discards
	// warmup epochs and measures up to pass more (0: no limit, the run is one
	// pass); passes repeat until the window has elapsed and min epochs are
	// measured in all, capped at max.
	warmup, pass, min, max int
	why                    string
}

// bwElems is a fifth of the paper's 10^6 per producer: 15.9 MB per epoch, 2-3
// one-MiB chunks per stream, and an epoch of about 10 ms on the chan engine,
// short enough that a run holds epochs the host left alone (README, "Quiet
// times"). latElems makes every stream one short frame.
const (
	bwElems  = 200_000
	latElems = 1_000
	// queriesPerEpoch box reads per client make a query-chan epoch mostly
	// queries rather than the write, index exchange and done handshake.
	queriesPerEpoch = 500
	// queryBoxSide 16 gives 32 KiB reads made of 128-byte runs.
	queryBoxSide = 16
	queryBoxes   = 256
	// populationSeed fixes the candidate boxes; -seed drives the order in
	// which each client draws them (see README, "The seed").
	populationSeed = 1
)

// Pass lengths keep a chan pass near a third of a second, so that a run holds
// dozens of set-ups and no VOL lives long enough for its per-epoch cost to
// drift. The sock workloads are one pass: the chunk pool is process-wide and
// on sock never recovers, so a second world would not start fresh.
var workloads = []workloadDef{
	{name: "bw-chan", engine: "chan", kind: kindBulk, elems: bwElems, warmup: 3, pass: 30, min: 20, max: 4000,
		why: "bandwidth regime on the chan engine: gather, CRC and scatter in core/h5/grid/rpc do all the work; the control for every sock change"},
	{name: "bw-sock", engine: "sock", kind: kindBulk, elems: bwElems, warmup: 4, min: 5, max: 4000,
		why: "same bytes over unix sockets: frame codec, second CRC, retransmit copy, syscalls, acks and receive allocation dominate"},
	{name: "lat-chan", engine: "chan", kind: kindBulk, elems: latElems, warmup: 20, pass: 500, min: 20, max: 100000,
		why: "80 KB per epoch, one short frame per stream: the fixed cost per exchange (index Alltoall, metadata fetch, box queries, done handshake)"},
	{name: "lat-sock", engine: "sock", kind: kindBulk, elems: latElems, warmup: 20, min: 20, max: 100000,
		why: "per-message cost of the sock engine (lock-held write, ack cadence, small-frame syscalls) with no volume to hide it"},
	{name: "query-chan", engine: "chan", kind: kindQuery, elems: bwElems, queries: queriesPerEpoch, warmup: 3, pass: 15, min: 20, max: 4000,
		why: "500 strided 32 KiB box reads per client against one index: a gain for bulk streaming that taxes small queries shows here"},
	{name: "file-chan", engine: "chan", kind: kindFile, elems: bwElems, warmup: 3, pass: 20, min: 20, max: 4000,
		why: "paper file mode, writes beside reads through pfs.WriteRuns/ReadRuns; nothing in rpc/transport/buf runs, so their changes must leave it flat"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// smoke shrinks a workload to the self-test sizing: 10^3 elements, three
// epochs in two passes (one on sock), 50 queries.
func (w workloadDef) smoke() workloadDef {
	w.elems = latElems
	w.warmup, w.min, w.max = 1, 3, 3
	if w.pass > 0 {
		w.pass = 2
	}
	if w.kind == kindQuery {
		w.queries = 25
	}
	return w
}

func (w workloadDef) spec() workload.Spec {
	return workload.Spec{
		Producers: producers, Consumers: consumers,
		GridPointsPerProducer: w.elems, ParticlesPerProducer: w.elems,
	}
}

// payloadBytes is what one epoch delivers into consumer buffers.
func (w workloadDef) payloadBytes() int64 {
	if w.kind == kindQuery {
		side := int64(queryBoxSide)
		for _, d := range w.spec().GridDims() {
			if d < side {
				side = d
			}
		}
		return int64(consumers*w.queries) * side * side * side * 8
	}
	return w.spec().TotalBytes()
}

// metricDef declares one metric. BENCHMARK.json repeats the end-to-end and
// per-layer lists; the self-test keeps the two equal.
type metricDef struct {
	name, unit string
	better     string  // set on end-to-end metrics; direction() derives the rest
	bound      float64 // end-to-end only: share of the parent's median
}

// direction is the "better" BENCHMARK.json declares for the metric. Of the
// per-layer metrics, throughputs, the epochs and passes a run completes and
// the share of the roofline it reaches are better higher; times, allocations, counts of
// work done and shares of an epoch are better lower.
func (m metricDef) direction() string {
	switch {
	case m.better != "":
		return m.better
	case m.unit == "MB/s", m.name == "run.epochs", m.name == "run.passes", m.name == "run.frac_of_roofline":
		return "higher"
	}
	return "lower"
}

// quiet is the percentile every end-to-end time is reported at. The host is
// shared: for seconds to minutes at a time a neighbour takes half of it, and
// a run's median then reads the neighbour, not the program. Interference only
// ever adds time, so the fastest few samples of a run are the ones the host
// left alone; the 2nd percentile is the lowest that still has samples below
// it in every workload (README, "Quiet times").
const quiet = 0.02

// endToEnd is what a user of the system sees. Every metric is defined on
// every workload: an exchange is one epoch, a query is one Dataset.Read by
// a consumer, and the payload is the bytes delivered into consumer buffers.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"exchange_p02_ms", "ms", "lower", 0.25},
	{"redist_MBps", "MB/s", "higher", 0.25},
	{"producer_blocked_p02_ms", "ms", "lower", 0.25},
	{"query_p02_us", "us", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"alloc_B_per_payload_B", "ratio", "lower", 0.25},
}

// Span metrics: medians over epochs of the slowest rank, from the traced
// half of a traced run.
var spanMetrics = []metricDef{
	{name: "h5.create_ms", unit: "ms"},
	{name: "h5.write_ms", unit: "ms"},
	{name: "core.serve_ms", unit: "ms"},
	{name: "core.open_ms", unit: "ms"},
	{name: "core.read_grid_ms", unit: "ms"},
	{name: "core.read_particles_ms", unit: "ms"},
	{name: "core.done_ms", unit: "ms"},
	{name: "mpi.barrier_wait_ms", unit: "ms"},
	{name: "core.query_us", unit: "us"},
}

// Counter metrics, read after the measured window. The ones in exactCounters
// are per-epoch values that must repeat in every epoch of a run.
var counterMetrics = []metricDef{
	{name: "core.data_queries", unit: "count"},
	{name: "core.box_queries", unit: "count"},
	{name: "core.metadata_requests", unit: "count"},
	{name: "core.chunks_served", unit: "count"},
	{name: "core.bytes_served", unit: "B"},
	{name: "core.query_wait_ms", unit: "ms"},
	{name: "core.retries", unit: "count"},
	{name: "core.failovers", unit: "count"},
	{name: "transport.sent_frames", unit: "count"},
	{name: "transport.sent_bytes", unit: "B"},
	{name: "transport.resent_frames", unit: "count"},
	{name: "transport.reconnects", unit: "count"},
	{name: "transport.wire_overhead", unit: "ratio"},
	{name: "buf.gets", unit: "count"},
	{name: "buf.overflow", unit: "count"},
	{name: "buf.highwater", unit: "count"},
	{name: "buf.outstanding_end", unit: "count"},
	{name: "proc.allocs_per_epoch", unit: "count"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "proc.heap_inuse_end_MiB", unit: "MiB"},
	{name: "proc.peak_rss_MiB", unit: "MiB"},
	{name: "proc.cpu_canary_ns", unit: "ns"},
	{name: "run.epochs", unit: "count"},
	{name: "run.passes", unit: "count"},
	{name: "run.exchange_p50_ms", unit: "ms"},
	{name: "run.exchange_p90_ms", unit: "ms"},
	{name: "run.query_p99_us", unit: "us"},
	{name: "run.failed_share", unit: "ratio"},
	{name: "run.frac_of_roofline", unit: "ratio"},
	{name: "run.trace_overhead_frac", unit: "ratio"},
}

var exactCounters = []string{
	"core.data_queries", "core.box_queries", "core.metadata_requests",
	"core.chunks_served", "core.bytes_served", "core.retries", "core.failovers",
	"transport.sent_frames", "transport.sent_bytes", "transport.resent_frames",
	"transport.reconnects", "buf.gets", "buf.overflow",
}

// Attribution metrics are computed from kernels x counters, each a share of
// the CPU time an epoch has (GOMAXPROCS x exchange_p02), and labelled so.
var attrMetrics = []metricDef{
	{name: "attr.grid_share", unit: "ratio"},
	{name: "attr.rpc_share", unit: "ratio"},
	{name: "attr.transport_share", unit: "ratio"},
	{name: "attr.buf_wait_share", unit: "ratio"},
	{name: "attr.unattributed_share", unit: "ratio"},
}

// workloadLayers are the per-layer metrics measured or computed per workload.
func workloadLayers() []metricDef {
	return slices.Concat(spanMetrics, counterMetrics, attrMetrics)
}

// perLayer is every per-layer metric in report order: kernels, spans,
// counters, attribution.
func perLayer() []metricDef {
	var out []metricDef
	for _, k := range kernels {
		out = append(out, k.metrics...)
	}
	return append(out, workloadLayers()...)
}
