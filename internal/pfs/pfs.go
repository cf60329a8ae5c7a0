// Package pfs simulates a striped parallel file system in the style of
// Lustre: files are striped across object storage targets (OSTs), each OST
// serves one request at a time with a configurable per-request latency and
// bandwidth, and shared-file writes additionally contend on a per-file
// extent lock. Bytes are really stored (in memory), so data written through
// the simulator reads back exactly — the timing model shapes performance,
// not correctness.
//
// This is the substitution for the paper's Lustre scratch file systems on
// Theta and Cori: what separates file-based transport from in situ
// transport in Figures 5–6 and Table II is exactly the striping contention
// and shared-file locking this model reproduces.
package pfs

import (
	"fmt"
	"sync"
	"time"

	"lowfive/internal/spin"
	"lowfive/metrics"
	"lowfive/trace"
)

// Options configure the simulated file system. Zero values disable the
// corresponding cost (useful in unit tests).
type Options struct {
	// NumOSTs is the number of object storage targets (stripes servers).
	NumOSTs int
	// StripeSize is the number of bytes per stripe.
	StripeSize int64
	// OSTBandwidth is the sustained bandwidth of one OST in bytes/second.
	OSTBandwidth float64
	// OSTLatency is the fixed cost of one request at one OST.
	OSTLatency time.Duration
	// SharedLockLatency is the cost of taking the file's extent lock for a
	// write; concurrent writers to one file serialize on it. This is the
	// single-shared-file penalty that makes N-to-1 HDF5 writes collapse.
	SharedLockLatency time.Duration
}

// DefaultOptions models a mid-size Lustre scratch allocation scaled to the
// benchmark harness's simulation regime (the interconnect model runs about
// three orders of magnitude slower than a real Cray Aries so that delays
// are resolvable by the host's sleep granularity; the file system is scaled
// by the same factor, keeping every ratio meaningful).
func DefaultOptions() Options {
	return Options{
		NumOSTs:           8,
		StripeSize:        64 << 10,
		OSTBandwidth:      8e6,
		OSTLatency:        2 * time.Millisecond,
		SharedLockLatency: 500 * time.Microsecond,
	}
}

// FS is one simulated parallel file system shared by all ranks of a world.
// It is safe for concurrent use.
type FS struct {
	opts Options

	mu    sync.Mutex
	files map[string]*fileData
	osts  []*ost

	bytesWritten int64
	bytesRead    int64
}

type ost struct {
	mu sync.Mutex

	// Cumulative accounting, guarded by mu (updated while the request
	// holds the OST anyway, so this costs nothing extra).
	requests  int64
	bytes     int64
	queueWait time.Duration
	busy      time.Duration

	track *trace.Track

	// Per-OST request latency histograms (queue wait + service, in
	// microseconds), split by direction. Nil without SetMetrics.
	readLat  *metrics.Histogram
	writeLat *metrics.Histogram
}

// OSTStat is the cumulative load of one object storage target.
type OSTStat struct {
	// Requests is the number of striped requests served.
	Requests int64
	// Bytes is the total bytes transferred through this OST.
	Bytes int64
	// QueueWait is the total time requests spent waiting for the OST while
	// it served others — the striping-contention signal.
	QueueWait time.Duration
	// Busy is the total simulated service time (latency + transfer).
	Busy time.Duration
}

// OSTStats returns a snapshot of per-OST load, indexed by OST.
func (fs *FS) OSTStats() []OSTStat {
	out := make([]OSTStat, len(fs.osts))
	for i, t := range fs.osts {
		t.mu.Lock()
		out[i] = OSTStat{Requests: t.requests, Bytes: t.bytes, QueueWait: t.queueWait, Busy: t.busy}
		t.mu.Unlock()
	}
	return out
}

// SetTracer gives every OST its own recording track (process "pfs", one
// thread per OST), so striping contention shows up on the timeline next to
// the ranks that caused it. Call before issuing I/O.
func (fs *FS) SetTracer(tr *trace.Tracer) {
	for i, t := range fs.osts {
		t.mu.Lock()
		t.track = tr.NewTrack("pfs", 1000, fmt.Sprintf("OST %d", i), i)
		t.mu.Unlock()
	}
}

// SetMetrics publishes per-OST read/write request-latency histograms
// ("pfs.ost<i>.read_us" / "pfs.ost<i>.write_us", covering queue wait plus
// service time) into the registry. Call before issuing I/O.
func (fs *FS) SetMetrics(r *metrics.Registry) {
	for i, t := range fs.osts {
		t.mu.Lock()
		t.readLat = r.Histogram(fmt.Sprintf("pfs.ost%d.read_us", i))
		t.writeLat = r.Histogram(fmt.Sprintf("pfs.ost%d.write_us", i))
		t.mu.Unlock()
	}
}

// pageSize is the granularity of a file's backing store.
const pageSize = 64 << 10

// fileData stores a file's bytes in fixed pages allocated on first write, so
// extending the file never moves what is already stored. A nil page is a
// hole and reads as zeros, as does everything at or past size.
type fileData struct {
	mu     sync.Mutex
	lockMu sync.Mutex // the shared-file extent lock
	pages  [][]byte
	size   int64 // one past the highest byte written
	// lastWriter tracks which handle last wrote each stripe, for the
	// extent-lock ping-pong model.
	lastWriter map[int64]*File
}

// New creates a simulated file system.
func New(opts Options) *FS {
	if opts.NumOSTs <= 0 {
		opts.NumOSTs = 1
	}
	if opts.StripeSize <= 0 {
		opts.StripeSize = 1 << 20
	}
	fs := &FS{opts: opts, files: map[string]*fileData{}}
	fs.osts = make([]*ost, opts.NumOSTs)
	for i := range fs.osts {
		fs.osts[i] = &ost{}
	}
	return fs
}

// NewZeroCost creates a file system with no simulated delays (for tests).
func NewZeroCost() *FS { return New(Options{NumOSTs: 4, StripeSize: 1 << 16}) }

// Stats returns cumulative bytes written and read.
func (fs *FS) Stats() (written, read int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.bytesWritten, fs.bytesRead
}

// Remove deletes a file.
func (fs *FS) Remove(name string) {
	fs.mu.Lock()
	delete(fs.files, name)
	fs.mu.Unlock()
}

// Exists reports whether a file exists.
func (fs *FS) Exists(name string) bool {
	fs.mu.Lock()
	_, ok := fs.files[name]
	fs.mu.Unlock()
	return ok
}

// File is a handle to one simulated file. Handles from different ranks
// alias the same underlying file, like a shared file on a real PFS.
type File struct {
	fs *FS
	fd *fileData
}

// Create creates (or truncates) a file and returns a handle.
func (fs *FS) Create(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fd, ok := fs.files[name]
	if !ok {
		fd = &fileData{}
		fs.files[name] = fd
	}
	// Concurrent collective creates from many ranks must not re-truncate a
	// sibling's data: truncation happens only for a genuinely new file.
	return &File{fs: fs, fd: fd}, nil
}

// Open opens an existing file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fd, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("pfs: file %q does not exist", name)
	}
	return &File{fs: fs, fd: fd}, nil
}

// chargeOSTs charges each involved OST its latency plus the transfer time
// of the bytes striped onto it. ostBytes maps OST index to byte count;
// write selects the direction's latency histogram. Requests at one OST
// serialize; different OSTs proceed in parallel.
func (f *File) chargeOSTs(ostBytes map[int]int64, write bool) {
	o := &f.fs.opts
	costed := o.OSTLatency != 0 || o.OSTBandwidth != 0
	for osti, n := range ostBytes {
		t := f.fs.osts[osti]
		// Clocks are read only when there is a cost to measure or an
		// observer (track or histogram) to feed; a zero-cost unobserved FS
		// pays just the counter updates.
		var queued time.Time
		hist := t.readLat
		if write {
			hist = t.writeLat
		}
		timed := costed || t.track != nil || hist != nil
		if timed {
			queued = time.Now()
		}
		t.mu.Lock()
		var wait time.Duration
		if timed {
			wait = time.Since(queued)
		}
		var d time.Duration
		if costed {
			d = o.OSTLatency
			if o.OSTBandwidth > 0 {
				d += time.Duration(float64(n) / o.OSTBandwidth * float64(time.Second))
			}
			spin.Wait(d)
		}
		t.requests++
		t.bytes += n
		t.queueWait += wait
		t.busy += d
		if t.track != nil {
			t.track.Span("pfs", "request", queued, time.Now(),
				trace.I64("bytes", n),
				trace.I64("queue_us", int64(wait/time.Microsecond)))
		}
		t.mu.Unlock()
		// The request's latency as its issuer saw it: queue wait plus
		// service. Recorded outside the OST lock — the histogram is atomic.
		hist.Observe(wait + d)
	}
}

// stripeSpread accumulates, for a byte range, the per-OST byte counts and
// the distinct stripes touched.
func (f *File) stripeSpread(off, n int64, ostBytes map[int]int64, stripes map[int64]bool) {
	o := &f.fs.opts
	pos := off
	remaining := n
	for remaining > 0 {
		stripe := pos / o.StripeSize
		inStripe := o.StripeSize - pos%o.StripeSize
		chunk := remaining
		if chunk > inStripe {
			chunk = inStripe
		}
		ostBytes[int(stripe)%len(f.fs.osts)] += chunk
		stripes[stripe] = true
		pos += chunk
		remaining -= chunk
	}
}

// chargeSharedLock charges one lock-transfer latency for every written
// stripe whose previous writer was a different handle, and records this
// handle as the new owner. Writers streaming private contiguous regions
// pay only at region boundaries; writers interleaving rows of a shared
// file pay on almost every stripe, serially — the N-to-1 collapse.
func (f *File) chargeSharedLock(stripes map[int64]bool) {
	o := &f.fs.opts
	if o.SharedLockLatency == 0 || len(stripes) == 0 {
		return
	}
	f.fd.lockMu.Lock()
	if f.fd.lastWriter == nil {
		f.fd.lastWriter = map[int64]*File{}
	}
	contended := 0
	for s := range stripes {
		if f.fd.lastWriter[s] != f {
			contended++
			f.fd.lastWriter[s] = f
		}
	}
	spin.Wait(time.Duration(contended) * o.SharedLockLatency)
	f.fd.lockMu.Unlock()
}

// chargeStripes is the single-range convenience used by WriteAt/ReadAt.
func (f *File) chargeStripes(off int64, n int, write bool) {
	ostBytes := map[int]int64{}
	stripes := map[int64]bool{}
	f.stripeSpread(off, int64(n), ostBytes, stripes)
	f.chargeOSTs(ostBytes, write)
}

// WriteAt writes p at offset off, paying the shared-file lock plus striped
// OST costs, then storing the bytes.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: negative offset %d", off)
	}
	ostBytes := map[int]int64{}
	stripes := map[int64]bool{}
	f.stripeSpread(off, int64(len(p)), ostBytes, stripes)
	f.chargeSharedLock(stripes)
	f.chargeOSTs(ostBytes, true)
	f.store(p, off)
	return len(p), nil
}

// store copies the bytes into the backing pages (no cost accounting).
func (f *File) store(p []byte, off int64) {
	n := int64(len(p))
	fd := f.fd
	fd.mu.Lock()
	fd.size = max(fd.size, off+n)
	for len(p) > 0 {
		pg := int(off / pageSize)
		if pg >= len(fd.pages) {
			fd.pages = append(fd.pages, make([][]byte, pg+1-len(fd.pages))...)
		}
		if fd.pages[pg] == nil {
			fd.pages[pg] = make([]byte, pageSize)
		}
		c := copy(fd.pages[pg][off%pageSize:], p)
		p, off = p[c:], off+int64(c)
	}
	fd.mu.Unlock()
	f.fs.mu.Lock()
	f.fs.bytesWritten += n
	f.fs.mu.Unlock()
}

// WriteRuns writes a vectored request: consecutive segments of packed land
// at the given offsets with the given lengths (MPI-IO style collective
// aggregation). The whole request pays one shared-lock charge proportional
// to the distinct stripes it touches, plus per-OST transfer costs for the
// aggregate bytes — so a rank scattering many small interleaved rows over
// a shared file pays far more locking than one writing a contiguous record.
func (f *File) WriteRuns(packed []byte, offs, lens []int64) error {
	if len(offs) != len(lens) {
		return fmt.Errorf("pfs: WriteRuns offs/lens mismatch: %d vs %d", len(offs), len(lens))
	}
	ostBytes := map[int]int64{}
	stripes := map[int64]bool{}
	total := int64(0)
	for i := range offs {
		if offs[i] < 0 || lens[i] < 0 {
			return fmt.Errorf("pfs: WriteRuns negative offset or length at run %d", i)
		}
		f.stripeSpread(offs[i], lens[i], ostBytes, stripes)
		total += lens[i]
	}
	if total > int64(len(packed)) {
		return fmt.Errorf("pfs: WriteRuns needs %d bytes, packed has %d", total, len(packed))
	}
	f.chargeSharedLock(stripes)
	f.chargeOSTs(ostBytes, true)
	pos := int64(0)
	for i := range offs {
		f.store(packed[pos:pos+lens[i]], offs[i])
		pos += lens[i]
	}
	return nil
}

// ReadRuns reads a vectored request into consecutive segments of dst,
// with the same aggregate cost accounting as WriteRuns (reads do not take
// the shared extent lock).
func (f *File) ReadRuns(dst []byte, offs, lens []int64) error {
	if len(offs) != len(lens) {
		return fmt.Errorf("pfs: ReadRuns offs/lens mismatch: %d vs %d", len(offs), len(lens))
	}
	ostBytes := map[int]int64{}
	stripes := map[int64]bool{}
	total := int64(0)
	for i := range offs {
		if offs[i] < 0 || lens[i] < 0 {
			return fmt.Errorf("pfs: ReadRuns negative offset or length at run %d", i)
		}
		f.stripeSpread(offs[i], lens[i], ostBytes, stripes)
		total += lens[i]
	}
	if total > int64(len(dst)) {
		return fmt.Errorf("pfs: ReadRuns needs %d bytes, dst has %d", total, len(dst))
	}
	f.chargeOSTs(ostBytes, false)
	pos := int64(0)
	for i := range offs {
		f.fetch(dst[pos:pos+lens[i]], offs[i])
		pos += lens[i]
	}
	return nil
}

// fetch copies bytes out of the backing pages, zero-filling holes and
// everything past the end.
func (f *File) fetch(p []byte, off int64) {
	n := int64(len(p))
	fd := f.fd
	fd.mu.Lock()
	for len(p) > 0 {
		pg, in := off/pageSize, int(off%pageSize)
		c := min(len(p), pageSize-in)
		if pg < int64(len(fd.pages)) && fd.pages[pg] != nil {
			copy(p[:c], fd.pages[pg][in:])
		} else {
			clear(p[:c])
		}
		p, off = p[c:], off+int64(c)
	}
	fd.mu.Unlock()
	f.fs.mu.Lock()
	f.fs.bytesRead += n
	f.fs.mu.Unlock()
}

// ReadAt reads into p from offset off, paying striped OST costs. Regions
// beyond the written extent read as zeros (sparse-file semantics; dataset
// extents are allocated lazily).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: negative offset %d", off)
	}
	f.chargeStripes(off, len(p), false)
	f.fetch(p, off)
	return len(p), nil
}

// Size returns the current file size.
func (f *File) Size() (int64, error) {
	f.fd.mu.Lock()
	defer f.fd.mu.Unlock()
	return f.fd.size, nil
}

// Close releases the handle (a no-op for the simulated store).
func (f *File) Close() error { return nil }
