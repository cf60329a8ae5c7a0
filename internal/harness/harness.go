// Package harness drives the paper's experiments: it builds the synthetic
// producer/consumer workflows for each transport, times the exchange
// sections, sweeps the weak-scaling process counts, and formats each result
// as the table or figure the paper reports.
//
// It also checks the paper's claim under faults. A chaos Case runs one of
// two shapes (the Synthetic grid+particle exchange or the supervised Epochs
// coupling) under a seeded fault, and Sweep runs a table of cases against
// a fault-free baseline: wrong bytes, a rank error or a missed Want fails
// the case. DefaultFaultCases, DefaultPartitionCases, DefaultRecoveryCases
// and DefaultStagingCases are the standard tables. The storm and
// wire-fault sweeps have their own runners.
package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lowfive/internal/pfs"
	"lowfive/metrics"
)

// Config scales the experiments. The paper runs 4–16384 MPI processes with
// 10^6 grid points and particles per producer on Cray XC40s; the defaults
// here reproduce the shapes at laptop scale.
type Config struct {
	// Scales are the total process counts of the weak-scaling sweep
	// (3/4 producers, 1/4 consumers, as in Table I).
	Scales []int
	// LargeScales are the process counts for the large-data experiment
	// (Fig. 11), usually capped lower because the data is 10x bigger.
	LargeScales []int
	// ScaleFactor divides the paper's per-producer element counts (10^6).
	ScaleFactor int64
	// LargeFactor divides the paper's large-data counts (10^7, Fig. 11).
	LargeFactor int64
	// Trials is the number of runs averaged per point (3 in the paper).
	Trials int
	// NetAlpha/NetBeta are the interconnect cost model (per-message latency
	// and bytes/second).
	NetAlpha time.Duration
	NetBeta  float64
	// FS configures the simulated parallel file system for file-mode runs.
	FS pfs.Options
	// ChunkBytes is the frame size of the streamed data plane in every
	// trial's producer VOLs; zero keeps the transport default (1 MiB).
	// Small values force multi-frame streams, which the fault sweep uses
	// to hit mid-stream chunks.
	ChunkBytes int
	// Metrics, when set, threads one shared registry through every trial:
	// the simulated MPI worlds record per-link traffic, the distributed
	// VOLs record query/serve latency and the rpc.* instruments, the chunk
	// pool publishes its gauges and the simulated PFS its per-OST latency.
	Metrics *metrics.Registry
	// Flight, when set, is handed to every consumer VOL: data queries over
	// the recorder's threshold land in its ring with a per-phase breakdown.
	Flight *metrics.FlightRecorder
	// DebugAddr is the listen address EnableDebug serves live metrics on
	// (e.g. ":8080" or "127.0.0.1:0").
	DebugAddr string
	// Transport selects the message engine: TransportChan (in-proc,
	// cost-modeled — the default, and what every simulation sweep uses) or
	// TransportSock (real sockets, one OS process per rank — exercised by
	// SockSmoke). Empty means TransportChan.
	Transport string
	// Verbose prints each trial as it completes.
	Verbose bool
	// Log receives progress output when Verbose is set.
	Log io.Writer

	// debug is the live server started by EnableDebug; sweeps publish their
	// current case to its /stats endpoint.
	debug *metrics.DebugServer
}

// DefaultSlowQuery is the flight-recorder threshold EnableDebug installs
// when no recorder was configured: an order of magnitude above a healthy
// cost-modeled query, so only genuinely troubled queries are retained.
const DefaultSlowQuery = 50 * time.Millisecond

// EnableDebug starts the live introspection server on c.DebugAddr,
// creating the registry and flight recorder first if the caller did not
// provide them. It returns the address actually listening (useful with
// ":0") and the server for Close. Trials started after this call record
// into the served registry.
func (c *Config) EnableDebug() (string, *metrics.DebugServer, error) {
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Flight == nil {
		c.Flight = metrics.NewFlightRecorder(256, DefaultSlowQuery)
	}
	srv := metrics.NewDebugServer(c.Metrics, c.Flight)
	addr, err := srv.Start(c.DebugAddr)
	if err != nil {
		return "", nil, err
	}
	c.debug = srv
	return addr, srv, nil
}

// setStatus publishes a live status line (current sweep case, trial, scale)
// to the debug server's /stats endpoint; a no-op when EnableDebug was not
// called.
func (c Config) setStatus(key, value string) {
	if c.debug != nil {
		c.debug.SetStatus(key, func() any { return value })
	}
}

// DefaultConfig returns a configuration that finishes in minutes on a
// laptop while preserving the paper's qualitative results.
func DefaultConfig() Config {
	return Config{
		Scales:      []int{4, 16, 64, 256},
		LargeScales: []int{4, 16, 64},
		ScaleFactor: 10, // 10^5 grid points + particles per producer
		LargeFactor: 1,  // the paper's full 10^6/10^7 per-producer sizing
		Trials:      3,
		// The interconnect model runs ~1000x slower than a real Cray Aries
		// (2 ms latency, 50 MB/s links) so that every delay is resolvable
		// by the host's sleep granularity and concurrent delays overlap;
		// the file-system model is scaled by the same factor, so all
		// transport ratios remain meaningful.
		NetAlpha:  2 * time.Millisecond,
		NetBeta:   50e6,
		FS:        pfs.DefaultOptions(),
		Transport: TransportChan,
	}
}

// QuickConfig is a minimal configuration for tests and smoke runs.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Scales = []int{4, 16}
	c.ScaleFactor = 1000
	c.LargeFactor = 1000
	c.Trials = 1
	c.NetAlpha = 2 * time.Millisecond
	c.NetBeta = 200e6
	c.FS = pfs.Options{
		NumOSTs: 4, StripeSize: 64 << 10, OSTBandwidth: 50e6,
		OSTLatency: 2 * time.Millisecond, SharedLockLatency: 200 * time.Microsecond,
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Verbose && c.Log != nil {
		fmt.Fprintf(c.Log, format, args...)
	}
}

// Recorder measures one exchange section across the goroutine ranks of a
// workflow: every participating rank calls Start after the pre-exchange
// barrier and Stop after the post-exchange barrier; the recorded interval
// is [earliest Start, latest Stop].
type Recorder struct {
	mu      sync.Mutex
	t0, t1  time.Time
	started bool
}

// Start records the earliest start time.
func (r *Recorder) Start() {
	now := time.Now()
	r.mu.Lock()
	if !r.started || now.Before(r.t0) {
		r.t0 = now
		r.started = true
	}
	r.mu.Unlock()
}

// Stop records the latest stop time.
func (r *Recorder) Stop() {
	now := time.Now()
	r.mu.Lock()
	if now.After(r.t1) {
		r.t1 = now
	}
	r.mu.Unlock()
}

// Seconds returns the measured interval.
func (r *Recorder) Seconds() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started || r.t1.Before(r.t0) {
		return 0
	}
	return r.t1.Sub(r.t0).Seconds()
}

// Point is one measurement of a weak-scaling series.
type Point struct {
	Procs   int
	Seconds float64
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one of the paper's plots, reproduced as a text table.
type Figure struct {
	ID     string // e.g. "Figure 5"
	Title  string
	Series []Series
}

// Print renders the figure as an aligned table, one row per process count,
// one column per series.
func (f Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", f.ID, f.Title)
	procs := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			procs[p.Procs] = true
		}
	}
	var order []int
	for p := range procs {
		order = append(order, p)
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j] < order[i] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	fmt.Fprintf(w, "%-10s", "procs")
	for _, s := range f.Series {
		fmt.Fprintf(w, " %22s", s.Name)
	}
	fmt.Fprintln(w)
	for _, pc := range order {
		fmt.Fprintf(w, "%-10d", pc)
		for _, s := range f.Series {
			v := math.NaN()
			for _, p := range s.Points {
				if p.Procs == pc {
					v = p.Seconds
				}
			}
			if math.IsNaN(v) {
				fmt.Fprintf(w, " %22s", "-")
			} else {
				fmt.Fprintf(w, " %20.4fs", v)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, strings.Repeat("-", 10+24*len(f.Series)))
}

// average runs fn Trials times and averages the timings.
func (c Config) average(fn func() (float64, error)) (float64, error) {
	sum := 0.0
	for i := 0; i < c.Trials; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(c.Trials), nil
}

// newRecorders builds one recorder per phase of a multi-phase measurement
// (e.g. per snapshot), so time between phases is not counted.
func newRecorders(n int) []*Recorder {
	out := make([]*Recorder, n)
	for i := range out {
		out[i] = &Recorder{}
	}
	return out
}

// sumSeconds totals the per-phase intervals.
func sumSeconds(recs []*Recorder) float64 {
	s := 0.0
	for _, r := range recs {
		s += r.Seconds()
	}
	return s
}

// WriteCSV emits the figure as CSV: a procs column plus one column per
// series, for plotting with external tools.
func (f Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"procs"}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	procs := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			procs[p.Procs] = true
		}
	}
	var order []int
	for p := range procs {
		order = append(order, p)
	}
	sort.Ints(order)
	for _, pc := range order {
		row := []string{strconv.Itoa(pc)}
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.Procs == pc {
					cell = strconv.FormatFloat(p.Seconds, 'f', 6, 64)
				}
			}
			row = append(row, cell)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
