// Package buf is the shared buffer plane of the streaming data path: a
// pool of fixed-size reference-counted chunks with explicit ownership.
//
// The transport layers (core serve/query, rpc streaming, mpi delivery) pass
// dataset payloads through pooled chunks instead of allocating a fresh
// buffer per hop. Ownership is explicit: a Get returns a chunk with one
// reference, Retain adds one, Release drops one, and the last Release
// returns the slab to the pool. Because the in-process "wire" hands the
// receiver a raw []byte (not a *Chunk), every live chunk is registered by
// the base pointer of its slab, so a receiver can release what it was
// handed with Release(msg) without knowing which pool it came from —
// and releasing a slice that is not chunk-backed is a safe no-op, which is
// what lets pooled and plain messages share one code path. The socket
// wire keeps the same rule across a process boundary. A chunk of 64 KiB or
// more is written from where it lies and held by the sender until the
// peer acks it; the receiver reads it into a chunk of its own pool, which
// the consumer's Release returns. A smaller chunk is copied into the
// sender's wire buffer and released there, and its receiver gets a fresh
// slice.
//
// The pool is bounded: at most Limit chunks are outstanding, so peak
// transport memory is O(chunks in flight), not O(dataset). A Get beyond the
// limit waits for a release; if none comes within a grace period (a crashed
// consumer whose queued frames will never be drained), Get falls back to a
// fresh unpooled allocation so the system stays live, and the Overflow
// counter records that the bound was exceeded. HighWater reports the peak
// number of chunks ever outstanding — the observable form of the bound.
package buf

import (
	"sync"
	"sync/atomic"
	"time"

	"lowfive/metrics"
)

// DefaultChunkBytes is the default chunk (frame) size of the streaming
// data path: large enough to amortize per-frame overhead, small enough
// that a handful of in-flight chunks bound peak transport memory.
const DefaultChunkBytes = 1 << 20 // 1 MiB

// DefaultLimit is the default bound on outstanding chunks per pool.
const DefaultLimit = 64

// defaultGrace is how long a Get waits at the limit before falling back to
// an unpooled allocation. It only matters when chunks leak (e.g. frames
// queued to a crashed rank), so liveness beats strictness here.
const defaultGrace = 100 * time.Millisecond

// registry maps the base pointer of every live chunk's slab to its Chunk,
// so Release can resolve a raw message slice back to its owner. Global on
// purpose: the receiver of a message does not know the sender's pool.
var registry sync.Map // *byte -> *Chunk

// Pool hands out fixed-size chunks, bounding how many are outstanding.
type Pool struct {
	size  int
	limit int
	grace time.Duration

	slabs  sync.Pool     // spare []byte slabs
	tokens chan struct{} // capacity limit; one token per outstanding pooled chunk

	mu          sync.Mutex
	outstanding int
	highWater   int
	overflow    int64
	gets        int64
}

// NewPool builds a pool of size-byte chunks with at most limit outstanding
// (limit <= 0 means unbounded). size is clamped to at least 1.
func NewPool(size, limit int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{size: size, limit: limit, grace: defaultGrace}
	p.slabs.New = func() any { return make([]byte, size) }
	if limit > 0 {
		p.tokens = make(chan struct{}, limit)
		for i := 0; i < limit; i++ {
			p.tokens <- struct{}{}
		}
	}
	return p
}

// Default is the process-wide pool the transport uses unless a layer is
// configured with its own.
var Default = NewPool(DefaultChunkBytes, DefaultLimit)

// shared holds one process-wide pool per non-default chunk size, so every
// producer configured with the same frame size draws from one bounded pool
// instead of multiplying the bound by the number of producers.
var shared sync.Map // int -> *Pool

// SharedPool returns the process-wide pool for the given chunk size
// (Default for size <= 0 or the default size). Shared pools keep the
// Default pool's BYTE budget, not its chunk count: smaller chunks get
// proportionally more tokens, so shrinking the frame size never shrinks
// the number of streams that can be in flight.
func SharedPool(size int) *Pool {
	if size <= 0 || size == DefaultChunkBytes {
		return Default
	}
	if p, ok := shared.Load(size); ok {
		return p.(*Pool)
	}
	limit := DefaultLimit * DefaultChunkBytes / size
	if limit < 8 {
		limit = 8
	}
	p, _ := shared.LoadOrStore(size, NewPool(size, limit))
	return p.(*Pool)
}

// ChunkBytes returns the pool's chunk size.
func (p *Pool) ChunkBytes() int { return p.size }

// Limit returns the pool's bound on outstanding chunks (0 means unbounded).
// Admission control reads it to convert Outstanding into a pressure ratio.
func (p *Pool) Limit() int { return p.limit }

// Get returns a chunk with one reference. It blocks while the pool is at
// its outstanding limit, falling back to a fresh unpooled slab after the
// grace period so a leaked chunk can never wedge a producer.
func (p *Pool) Get() *Chunk {
	pooled := true
	if p.tokens != nil {
		select {
		case <-p.tokens:
		default:
			t := time.NewTimer(p.grace)
			select {
			case <-p.tokens:
				t.Stop()
			case <-t.C:
				pooled = false
			}
		}
	}
	var slab []byte
	if pooled {
		slab = p.slabs.Get().([]byte)
	} else {
		slab = make([]byte, p.size)
	}
	c := &Chunk{pool: p, slab: slab, pooled: pooled}
	c.refs.Store(1)
	registry.Store(&slab[0], c)
	p.mu.Lock()
	p.gets++
	p.outstanding++
	if p.outstanding > p.highWater {
		p.highWater = p.outstanding
	}
	if !pooled {
		p.overflow++
	}
	p.mu.Unlock()
	return c
}

// put returns a released chunk's slab to the pool.
func (p *Pool) put(c *Chunk) {
	registry.Delete(&c.slab[0])
	p.mu.Lock()
	p.outstanding--
	p.mu.Unlock()
	if c.pooled {
		p.slabs.Put(c.slab)
		if p.tokens != nil {
			p.tokens <- struct{}{}
		}
	}
}

// PoolStats is a consistent snapshot of a pool's counters.
type PoolStats struct {
	// Gets is the total number of chunks handed out.
	Gets int64
	// Outstanding is the number of live (unreleased) chunks right now; a
	// quiesced transport must be back at zero, including after a crashed
	// rank's queued frames were purged by teardown.
	Outstanding int
	// HighWater is the peak Outstanding since creation or the last
	// ResetHighWater — the measured bound on transport buffering.
	HighWater int
	// Overflow counts Gets that fell back to an unpooled allocation after
	// waiting out the grace period at the limit.
	Overflow int64
}

// Stats returns a consistent snapshot of all counters (the individual
// accessors read each counter under a separate lock acquisition).
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Gets:        p.gets,
		Outstanding: p.outstanding,
		HighWater:   p.highWater,
		Overflow:    p.overflow,
	}
}

// ResetHighWater rebases the high-water mark to the current outstanding
// count, so a phase can be measured in isolation from earlier peaks.
func (p *Pool) ResetHighWater() {
	p.mu.Lock()
	p.highWater = p.outstanding
	p.mu.Unlock()
}

// Outstanding returns the number of live (unreleased) chunks.
func (p *Pool) Outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.outstanding
}

// HighWater returns the peak number of chunks ever outstanding at once —
// the measured bound on transport buffering.
func (p *Pool) HighWater() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.highWater
}

// Overflow returns how many Gets fell back to an unpooled allocation after
// waiting out the grace period at the limit.
func (p *Pool) Overflow() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.overflow
}

// Gets returns the total number of chunks handed out.
func (p *Pool) Gets() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets
}

// RegisterMetrics publishes the pool's counters as sampled gauges under
// prefix (e.g. "buf.pool" → "buf.pool.outstanding"). The gauges read the
// pool's existing counters at snapshot time, so registration adds nothing
// to the Get/Release hot path; re-registering the same prefix is
// idempotent.
func (p *Pool) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.GaugeFunc(prefix+".outstanding", func() int64 { return int64(p.Outstanding()) })
	r.GaugeFunc(prefix+".highwater", func() int64 { return int64(p.HighWater()) })
	r.GaugeFunc(prefix+".overflow", p.Overflow)
	r.GaugeFunc(prefix+".gets", p.Gets)
	r.GaugeFunc(prefix+".limit", func() int64 { return int64(p.Limit()) })
}

// Chunk is one pooled buffer with explicit reference-counted ownership.
type Chunk struct {
	pool   *Pool
	slab   []byte
	pooled bool
	refs   atomic.Int32
}

// Bytes returns the full slab. Callers slice it to the bytes they filled.
func (c *Chunk) Bytes() []byte { return c.slab }

// Retain adds a reference; every Retain needs a matching Release.
func (c *Chunk) Retain() { c.refs.Add(1) }

// Release drops a reference; the last one returns the slab to its pool.
// Releasing more times than retained panics — that is a double free.
func (c *Chunk) Release() {
	n := c.refs.Add(-1)
	if n == 0 {
		c.pool.put(c)
	} else if n < 0 {
		panic("buf: chunk released more times than retained")
	}
}

// Release resolves a raw message slice back to its chunk (by slab base
// pointer) and drops one reference. Slices that are not chunk-backed —
// plain allocations, sub-slices past the slab start — are ignored, so
// receivers can release everything they are handed unconditionally.
func Release(b []byte) {
	if len(b) == 0 {
		return
	}
	if v, ok := registry.Load(&b[0]); ok {
		v.(*Chunk).Release()
	}
}

// Retain is the slice-addressed form of Chunk.Retain, for holders that only
// have the raw message. It reports whether the slice was chunk-backed.
func Retain(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	if v, ok := registry.Load(&b[0]); ok {
		v.(*Chunk).Retain()
		return true
	}
	return false
}
