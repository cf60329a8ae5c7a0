package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"lowfive/trace"
)

// beginColl/endColl bracket a collective with a span on the calling rank's
// track. With tracing disabled both are no-ops (tr is nil and the clock is
// never read). The point-to-point sends and receives a collective is built
// from record their own nested spans.
func (c *Comm) beginColl() (tr *trace.Track, t0 time.Time) {
	tr = c.Track()
	if tr != nil {
		t0 = time.Now()
	}
	return
}

func endColl(tr *trace.Track, t0 time.Time, name string, bytes int64) {
	if tr != nil {
		tr.Span("mpi", name, t0, time.Now(), trace.I64("bytes", bytes))
	}
}

var errTruncated = errors.New("truncated block stream")

// Internal collective messages use negative tags derived from the per-comm
// collective sequence number, so back-to-back collectives never cross-match
// and never match user wildcards (user tags are non-negative; AnyTag is -1).

const (
	opBarrier = iota
	opBcast
	opGather
	opAllgather
	opReduce
	opAlltoall
	opScan
	opScatter
	opAllreduceIdempotent
)

func intTag(seq uint64, op, round int) int {
	return -2 - int(seq*1024+uint64(op)*64+uint64(round))
}

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	tr, t0 := c.beginColl()
	defer func() { endColl(tr, t0, "barrier", 0) }()
	c.collSeq++
	c.barrier(c.collSeq)
}

// barrier implements a dissemination barrier: log2(n) rounds of
// point-to-point notifications. A crashed peer is skipped — the surviving
// ranks still synchronize among themselves instead of hanging on a
// notification that will never come.
func (c *Comm) barrier(seq uint64) {
	n := c.Size()
	for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
		dest := (c.rank + k) % n
		src := (c.rank - k%n + n) % n
		c.Send(dest, intTag(seq, opBarrier, round), nil)
		c.recvOrFailed(src, intTag(seq, opBarrier, round))
	}
}

// recvOrFailed receives like Recv but reports ok=false when the peer has
// crashed, instead of propagating the RankFailedError panic. Collectives
// that only synchronize use it to degrade gracefully.
func (c *Comm) recvOrFailed(src, tag int) (data []byte, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, failed := r.(*RankFailedError); failed {
				data, ok = nil, false
				return
			}
			panic(r)
		}
	}()
	data, _ = c.Recv(src, tag)
	return data, true
}

// Bcast broadcasts data from root to all ranks along a binomial tree and
// returns each rank's copy (the root returns its argument unchanged).
func (c *Comm) Bcast(root int, data []byte) []byte {
	tr, t0 := c.beginColl()
	defer func() { endColl(tr, t0, "bcast", int64(len(data))) }()
	c.checkRank(root)
	c.collSeq++
	seq := c.collSeq
	n := c.Size()
	// Rotate so the root is virtual rank 0.
	vrank := (c.rank - root + n) % n
	if vrank != 0 {
		// Receive from parent: clear the lowest set bit of vrank.
		parent := (vrank&(vrank-1) + root) % n
		data, _ = c.Recv(parent, intTag(seq, opBcast, 0))
	}
	// Send to children: set bits above the lowest set bit (or all bits for root).
	low := vrank & (-vrank)
	if vrank == 0 {
		low = n // no bits set; children are all powers of two below n
		for k := 1; k < n; k <<= 1 {
			c.Send((k+root)%n, intTag(seq, opBcast, 0), data)
		}
		return data
	}
	for k := 1; k < low; k <<= 1 {
		child := vrank + k
		if child < n {
			c.Send((child+root)%n, intTag(seq, opBcast, 0), data)
		}
	}
	return data
}

// Gather collects every rank's payload at root. On root the result has one
// entry per rank, in rank order; elsewhere it is nil. Payloads may have
// different lengths (gatherv semantics come for free with byte slices).
func (c *Comm) Gather(root int, data []byte) [][]byte {
	tr, t0 := c.beginColl()
	defer func() { endColl(tr, t0, "gather", int64(len(data))) }()
	c.checkRank(root)
	c.collSeq++
	return c.gatherInternal(c.collSeq, root, data)
}

func (c *Comm) gatherInternal(seq uint64, root int, data []byte) [][]byte {
	if c.rank != root {
		c.Send(root, intTag(seq, opGather, 0), data)
		return nil
	}
	out := make([][]byte, c.Size())
	out[root] = data
	for i := 0; i < c.Size()-1; i++ {
		m, st := c.Recv(AnySource, intTag(seq, opGather, 0))
		out[st.Source] = m
	}
	return out
}

// Allgather collects every rank's payload on every rank, in rank order.
func (c *Comm) Allgather(data []byte) [][]byte {
	tr, t0 := c.beginColl()
	defer func() { endColl(tr, t0, "allgather", int64(len(data))) }()
	c.collSeq++
	return c.allgatherInternal(c.collSeq, data)
}

// allgatherInternal uses a ring: n-1 steps, each forwarding the piece
// received in the previous step.
func (c *Comm) allgatherInternal(seq uint64, data []byte) [][]byte {
	n := c.Size()
	out := make([][]byte, n)
	out[c.rank] = data
	if n == 1 {
		return out
	}
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	piece := data
	owner := c.rank
	for step := 0; step < n-1; step++ {
		c.Send(right, intTag(seq, opAllgather, step), piece)
		piece, _ = c.Recv(left, intTag(seq, opAllgather, step))
		owner = (owner - 1 + n) % n
		out[owner] = piece
	}
	return out
}

// ReduceOp combines two equally-shaped payloads into one.
type ReduceOp func(a, b []byte) []byte

// Reduce combines every rank's payload at root along a binomial tree.
// The op must be associative and is applied as op(lowerRankValue, higherRankValue).
// Non-root ranks return nil.
func (c *Comm) Reduce(root int, data []byte, op ReduceOp) []byte {
	tr, t0 := c.beginColl()
	defer func() { endColl(tr, t0, "reduce", int64(len(data))) }()
	c.checkRank(root)
	c.collSeq++
	seq := c.collSeq
	n := c.Size()
	vrank := (c.rank - root + n) % n
	acc := data
	for k := 1; k < n; k <<= 1 {
		if vrank&k != 0 {
			parent := ((vrank - k) + root) % n
			c.Send(parent, intTag(seq, opReduce, 0), acc)
			if c.rank == root {
				return nil
			}
			return nil
		}
		if vrank+k < n {
			child, _ := c.Recv((vrank+k+root)%n, intTag(seq, opReduce, 0))
			acc = op(acc, child)
		}
	}
	return acc
}

// MaxInt64 is a ReduceOp over a single little-endian int64.
func MaxInt64(a, b []byte) []byte {
	if DecodeInt64(b) > DecodeInt64(a) {
		return b
	}
	return a
}

// SumInt64 is a ReduceOp over a single little-endian int64.
func SumInt64(a, b []byte) []byte { return EncodeInt64(DecodeInt64(a) + DecodeInt64(b)) }

// MaxFloat64 is a ReduceOp over a single little-endian float64.
func MaxFloat64(a, b []byte) []byte {
	if DecodeFloat64(b) > DecodeFloat64(a) {
		return b
	}
	return a
}

// SumFloat64 is a ReduceOp over a single little-endian float64.
func SumFloat64(a, b []byte) []byte { return EncodeFloat64(DecodeFloat64(a) + DecodeFloat64(b)) }

// Allreduce combines every rank's payload and distributes the result to all.
func (c *Comm) Allreduce(data []byte, op ReduceOp) []byte {
	res := c.Reduce(0, data, op)
	return c.Bcast(0, res)
}

// AllreduceIdempotent combines every rank's payload with op and returns the
// result on every rank in ceil(log2 n) rounds of a dissemination exchange:
// in round k each rank sends what it has combined so far to rank+2^k and
// combines in what rank-2^k sends. Allreduce takes twice the rounds (a
// reduce, then a broadcast) but accepts any associative op; here every
// payload reaches every rank, some more than once when n is not a power of
// two, so op must be associative, commutative and idempotent (max, or).
// Payloads travel by reference, so op must not modify its arguments.
func (c *Comm) AllreduceIdempotent(data []byte, op ReduceOp) []byte {
	tr, t0 := c.beginColl()
	defer func() { endColl(tr, t0, "allreduce", int64(len(data))) }()
	c.collSeq++
	seq := c.collSeq
	n := c.Size()
	acc := data
	for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
		c.Send((c.rank+k)%n, intTag(seq, opAllreduceIdempotent, round), acc)
		in, _ := c.Recv((c.rank-k+n)%n, intTag(seq, opAllreduceIdempotent, round))
		acc = op(acc, in)
	}
	return acc
}

// Alltoall sends data[i] to rank i and returns the payloads received from
// each rank, in rank order. len(data) must equal Size(). It uses the Bruck
// algorithm: ceil(log2 n) rounds of combined messages instead of n-1
// point-to-point sends, which keeps latency-bound all-to-alls (like
// LowFive's index exchange) logarithmic in the task size. A payload that
// fails to unpack (corrupt wire bytes) is returned as an error rather than
// taking down the whole world.
func (c *Comm) Alltoall(data [][]byte) ([][]byte, error) {
	tr, t0 := c.beginColl()
	defer func() { endColl(tr, t0, "alltoall", alltoallBytes(data)) }()
	n := c.Size()
	if len(data) != n {
		panic("mpi: Alltoall payload count must equal communicator size")
	}
	c.collSeq++
	seq := c.collSeq
	r := c.rank
	if n == 1 {
		return [][]byte{data[0]}, nil
	}
	// Phase 1: local rotation — temp[i] starts as the block destined to
	// rank (r+i) mod n.
	temp := make([][]byte, n)
	for i := 0; i < n; i++ {
		temp[i] = data[(r+i)%n]
	}
	// Phase 2: log2(n) combined exchanges.
	for pof2, round := 1, 0; pof2 < n; pof2, round = pof2<<1, round+1 {
		dest := (r + pof2) % n
		src := (r - pof2 + n) % n
		buf := packBlocks(temp, pof2)
		c.Send(dest, intTag(seq, opAlltoall, round), buf)
		in, _ := c.Recv(src, intTag(seq, opAlltoall, round))
		if err := unpackBlocks(temp, pof2, in); err != nil {
			return nil, fmt.Errorf("mpi: corrupt Alltoall message from rank %d: %w", src, err)
		}
	}
	// Phase 3: inverse rotation.
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		out[(r-i+n)%n] = temp[i]
	}
	return out, nil
}

// packBlocks concatenates (length-prefixed) the blocks whose index has the
// given bit set.
func packBlocks(blocks [][]byte, bit int) []byte {
	size := 0
	for i := range blocks {
		if i&bit != 0 {
			size += 8 + len(blocks[i])
		}
	}
	buf := make([]byte, 0, size)
	var hdr [8]byte
	for i := range blocks {
		if i&bit != 0 {
			binary.LittleEndian.PutUint64(hdr[:], uint64(len(blocks[i])))
			buf = append(buf, hdr[:]...)
			buf = append(buf, blocks[i]...)
		}
	}
	return buf
}

// unpackBlocks replaces the blocks whose index has the given bit set with
// the length-prefixed payloads in buf.
func unpackBlocks(blocks [][]byte, bit int, buf []byte) error {
	pos := 0
	for i := range blocks {
		if i&bit == 0 {
			continue
		}
		if pos+8 > len(buf) {
			return errTruncated
		}
		n := int(binary.LittleEndian.Uint64(buf[pos:]))
		pos += 8
		if n < 0 || pos+n > len(buf) {
			return errTruncated
		}
		blocks[i] = buf[pos : pos+n : pos+n]
		pos += n
	}
	return nil
}

// Scan computes an inclusive prefix combination: rank r returns
// op(data_0, ..., data_r). Linear chain implementation.
func (c *Comm) Scan(data []byte, op ReduceOp) []byte {
	tr, t0 := c.beginColl()
	defer func() { endColl(tr, t0, "scan", int64(len(data))) }()
	c.collSeq++
	seq := c.collSeq
	acc := data
	if c.rank > 0 {
		prev, _ := c.Recv(c.rank-1, intTag(seq, opScan, 0))
		acc = op(prev, acc)
	}
	if c.rank+1 < c.Size() {
		c.Send(c.rank+1, intTag(seq, opScan, 0), acc)
	}
	return acc
}

// Sendrecv sends to dest and receives from src in one operation, safe
// against the head-to-head exchange deadlock of paired blocking calls
// (our sends are buffered, so this is a simple sequence, but the API
// mirrors MPI_Sendrecv for ported code).
func (c *Comm) Sendrecv(dest, sendTag int, sendData []byte, src, recvTag int) ([]byte, Status) {
	c.Send(dest, sendTag, sendData)
	return c.Recv(src, recvTag)
}

// Scatter distributes data[i] from root to rank i and returns each rank's
// piece (scatterv semantics: pieces may differ in length). On non-root
// ranks data is ignored.
func (c *Comm) Scatter(root int, data [][]byte) []byte {
	tr, t0 := c.beginColl()
	defer func() { endColl(tr, t0, "scatter", alltoallBytes(data)) }()
	c.checkRank(root)
	c.collSeq++
	seq := c.collSeq
	if c.rank == root {
		if len(data) != c.Size() {
			panic("mpi: Scatter payload count must equal communicator size")
		}
		for r := 0; r < c.Size(); r++ {
			if r != root {
				c.Send(r, intTag(seq, opScatter, 0), data[r])
			}
		}
		return data[root]
	}
	out, _ := c.Recv(root, intTag(seq, opScatter, 0))
	return out
}

// ExclusiveScan computes an exclusive prefix combination: rank 0 returns
// nil; rank r > 0 returns op(data_0, ..., data_{r-1}).
func (c *Comm) ExclusiveScan(data []byte, op ReduceOp) []byte {
	tr, t0 := c.beginColl()
	defer func() { endColl(tr, t0, "exscan", int64(len(data))) }()
	c.collSeq++
	seq := c.collSeq
	var prefix []byte
	if c.rank > 0 {
		prefix, _ = c.Recv(c.rank-1, intTag(seq, opScan, 1))
	}
	if c.rank+1 < c.Size() {
		next := data
		if prefix != nil {
			next = op(prefix, data)
		}
		c.Send(c.rank+1, intTag(seq, opScan, 1), next)
	}
	return prefix
}

// alltoallBytes totals the payload bytes of a per-rank payload list.
func alltoallBytes(data [][]byte) int64 {
	var n int64
	for _, d := range data {
		n += int64(len(d))
	}
	return n
}
