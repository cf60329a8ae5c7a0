package core

import (
	"errors"
	"fmt"
	"time"

	"lowfive/h5"
	"lowfive/internal/buf"
	"lowfive/internal/grid"
	"lowfive/internal/rpc"
	"lowfive/metrics"
	"lowfive/mpi"
	"lowfive/trace"
)

// Streamed data queries: the producer answers opDataStream by gathering the
// query intersection of a dataset's triples directly into pooled frames (one
// copy: triple storage → frame), and the consumer scatters each frame
// straight into the read destination (one copy: frame → caller's buffer).
// Peak transport memory is bounded by the producer's chunk pool, not by the
// selection size, and the consumer starts placing chunk k while chunk k+1 is
// still in flight.
//
// Frame payloads hold whole segments, each one rectangular fragment:
//
//	[dim i64][min,max i64 per dim][byteLen i64][bytes]
//
// Segment order preserves triple order, so where writes overlap the later
// one overwrites the earlier at the consumer, exactly as in ReadPacked.

// segmentWriter is where StreamRegions places segments: the response stream
// of a data query when serving.
type segmentWriter interface {
	// MaxSegment is the largest segment that fits one frame.
	MaxSegment() int
	// Grab returns n bytes of the current frame to fill in place.
	Grab(n int) []byte
}

// StreamRegions sends the query intersection of a dataset's triples over a
// response stream, splitting each intersection region into sub-boxes that
// fit one frame. Bytes move once, from the stored triples into pooled
// frames. Selections are read in place, each intersection lands in one
// scratch box and one chunk iterator splits every region, so a region that
// fits one frame allocates nothing here.
func (n *Node) StreamRegions(st segmentWriter, query *h5.Dataspace) error {
	if n.Kind != h5.KindDataset {
		return fmt.Errorf("lowfive: extract from non-dataset %q", n.Name)
	}
	es := int64(n.Type.Size)
	qBoxes := query.Boxes()
	var (
		region grid.Box      // the intersection at hand, made once, refilled
		it     *h5.ChunkIter // splits each region into frame-sized sub-boxes
		hdr    int           // bytes of a segment header at the query's rank
	)
	for _, tr := range n.Triples {
		var packed []byte // fetched lazily: only if some region intersects
		triBase := int64(0)
		for _, tb := range tr.FileSpace.Boxes() {
			for _, qb := range qBoxes {
				if !tb.Intersects(qb) {
					continue
				}
				if it == nil {
					region = qb.Clone()
					hdr = 8 + 16*region.Dim() + 8
					it = h5.NewChunkIterBoxes(nil, es, st.MaxSegment()-hdr)
				}
				tb.IntersectInto(qb, region)
				if packed == nil {
					packed = tr.PackedData(int(es))
				}
				it.Reset(region)
				for {
					sub, ok := it.Next()
					if !ok {
						break
					}
					segBytes := sub.NumPoints() * es
					dst := st.Grab(hdr + int(segBytes))
					// Encode the segment in place: the appends land inside
					// the grabbed region (capacity capped to its length).
					e := &h5.Encoder{Buf: dst[:0:len(dst)]}
					encodeBox(e, sub)
					e.PutI64(segBytes)
					e.Buf = grid.GatherRegion(e.Buf, packed[triBase*es:], tb, sub, int(es))
				}
			}
			triBase += tb.NumPoints()
		}
	}
	return nil
}

// countStream folds one served data stream into the stats; the caller holds
// serveMu.
func (v *DistMetadataVOL) countStream(bytes, frames int64) {
	v.stats.DataQueries++
	v.stats.BytesServed += bytes
	v.stats.ChunksServed += frames
}

// serveDataStreamAdmitted answers one opDataStream request under admission
// control: acquire a slot (or shed with an overloaded reply), stream
// WITHOUT serveMu — the metadata tree is immutable during a serve session
// and the chunk pool bounds memory — and fold the stats in under serveMu
// afterwards. Runs on its own goroutine, so comm halt panics (this rank
// crashing mid-stream) are recovered here instead of killing the process.
func (v *DistMetadataVOL) serveDataStreamAdmitted(adm *admission, s *icServer, src int, seq uint64, req request) {
	defer func() {
		if r := recover(); r != nil && !mpi.IsHaltPanic(r) {
			panic(r)
		}
	}()
	tenant := v.tenantOf(s.ic)
	if err := adm.acquire(tenant); err != nil {
		var ov *ErrOverloaded
		ra := time.Duration(0)
		if errors.As(err, &ov) {
			ra = ov.RetryAfter
			v.recordShed(src, ov)
		}
		v.serveMu.Lock()
		v.stats.Shed++ // running count; Stats() overwrites from the controller
		v.serveMu.Unlock()
		s.srv.RespondOverloaded(src, seq, ra)
		return
	}
	defer adm.release()
	bytes, frames := v.streamResponse(s, src, seq, req)
	v.serveMu.Lock()
	v.countStream(bytes, frames)
	v.serveMu.Unlock()
}

// recordShed puts one shed into the flight recorder, so a failed storm
// sweep can show who was refused, when, and why.
func (v *DistMetadataVOL) recordShed(src int, ov *ErrOverloaded) {
	if v.Flight == nil {
		return
	}
	v.Flight.Record(metrics.SlowQuery{
		Time:      time.Now(),
		File:      ov.Tenant,
		Producers: []int{src},
		Duration:  ov.RetryAfter,
		Reason:    "shed-" + ov.Reason,
	})
}

// streamResponse writes the response stream of one data-stream request,
// returning the payload bytes and frame count. It touches no shared serve
// state: File is guarded by its own lock and the metadata tree is immutable
// while being served, so admitted streams may run concurrently.
func (v *DistMetadataVOL) streamResponse(s *icServer, src int, seq uint64, req request) (bytes int64, frames int64) {
	v.instruments()
	var t0 time.Time
	tr := v.track()
	if tr != nil || v.mServeLat != nil {
		t0 = time.Now()
	}
	st := s.srv.NewStream(src, seq, v.chunkPool())
	if node := v.streamSource(req); node != nil {
		// An error mid-stream leaves a short stream; the consumer's
		// decoder rejects a truncated segment and falls back.
		_ = node.StreamRegions(st, req.sel)
	}
	st.Close()
	if v.mServeLat != nil {
		v.mServeLat.Observe(time.Since(t0))
	}
	if tr != nil {
		tr.Span("core", "serve.datastream", t0, time.Now(),
			trace.Str("file", req.file), trace.I64("bytes", st.Bytes()),
			trace.I64("chunks", int64(st.Frames())))
	}
	return st.Bytes(), int64(st.Frames())
}

// streamSource resolves the dataset a data-stream request reads, or nil when
// this rank holds nothing for it: the file was removed after serving, the
// path names no dataset, or the selection's rank is not the dataset's. The
// answer is then an empty stream; the consumer's other producers hold the
// data.
func (v *DistMetadataVOL) streamSource(req request) *Node {
	fn, ok := v.File(req.file)
	if !ok {
		return nil
	}
	node, err := fn.Resolve(req.dset)
	if err != nil || node.Kind != h5.KindDataset || node.Space.Rank() != req.sel.Rank() {
		return nil
	}
	return node
}

// chunkPool returns the pool streamed responses draw frames from: the
// explicit override, or the process-wide shared pool for the configured
// chunk size — shared so many producer vols keep one global bound on
// in-flight frames instead of one bound each.
func (v *DistMetadataVOL) chunkPool() *buf.Pool {
	if v.ChunkPool != nil {
		return v.ChunkPool
	}
	return buf.SharedPool(v.ChunkBytes)
}

// streamTarget places the pieces of one read — stream segments, staged log
// chunks, file-fallback reads — directly into a packed destination covering
// fileSel: the consumer half of the single-copy path.
type streamTarget struct {
	dst   []byte
	boxes []grid.Box // fileSel's selection boxes, read in place
	bases []int64    // running element offset of each box in dst
	es    int

	// Scratch of fileSel's rank reused across segments, so consume allocates
	// nothing: the decoded segment box and its intersection with a target box.
	seg, region grid.Box
}

func newStreamTarget(dst []byte, fileSel *h5.Dataspace, es int) *streamTarget {
	rank := fileSel.Rank()
	t := &streamTarget{dst: dst, boxes: fileSel.Boxes(), es: es}
	scratch := make([]int64, 4*rank)
	t.seg = grid.Box{Min: scratch[:rank], Max: scratch[rank : 2*rank]}
	t.region = grid.Box{Min: scratch[2*rank : 3*rank], Max: scratch[3*rank:]}
	t.bases = make([]int64, len(t.boxes))
	base := int64(0)
	for i, b := range t.boxes {
		t.bases[i] = base
		base += b.NumPoints()
	}
	return t
}

// consume scatters every segment of one frame payload into the destination.
// The payload is released by the caller right after consume returns, so all
// bytes are copied out here.
func (t *streamTarget) consume(payload []byte) error {
	r := buf.NewReader(payload)
	for r.Len() > 0 {
		nd := r.I64()
		if !r.OK() || nd <= 0 || nd != int64(t.seg.Dim()) {
			return fmt.Errorf("lowfive: stream segment rank %d does not match the read's rank %d", nd, t.seg.Dim())
		}
		// Count the box's points as it is decoded, bounded by what the rest
		// of the payload could hold, so that hostile bounds cannot overflow
		// the count into agreeing with the length field.
		points, limit := int64(1), int64(r.Len()/max(t.es, 1))
		for k := range t.seg.Min {
			lo, hi := r.I64(), r.I64()
			t.seg.Min[k], t.seg.Max[k] = lo, hi
			if cnt := hi - lo + 1; hi < lo {
				points, limit = 0, 0
			} else if cnt <= 0 || points > limit/cnt {
				return fmt.Errorf("lowfive: stream segment box %v exceeds its frame", t.seg)
			} else {
				points *= cnt
			}
		}
		n := r.I64()
		if !r.OK() || n != points*int64(t.es) {
			return fmt.Errorf("lowfive: stream segment length %d does not match its box", n)
		}
		data := r.Span(int(n))
		if !r.OK() {
			return fmt.Errorf("lowfive: truncated stream segment")
		}
		t.scatter(t.seg, data)
	}
	return nil
}

// place copies one rectangular fragment — box and its row-major bytes, as
// a staging chunk or a file read delivers it — into the destination.
func (t *streamTarget) place(box grid.Box, data []byte) error {
	if box.Dim() != t.seg.Dim() || int64(len(data)) != box.NumPoints()*int64(t.es) {
		return fmt.Errorf("lowfive: fragment %v of %d bytes does not fit the read", box, len(data))
	}
	t.scatter(box, data)
	return nil
}

// scatter copies a validated fragment into every selection box it overlaps.
func (t *streamTarget) scatter(box grid.Box, data []byte) {
	for i, rb := range t.boxes {
		box.IntersectInto(rb, t.region)
		if t.region.IsEmpty() {
			continue
		}
		grid.CopyRegion(t.dst[t.bases[i]*int64(t.es):], rb, data, box, t.region, t.es)
	}
}

// streamWindow is how many streams a consumer requests ahead of the one it
// is draining. Enough look-ahead that producer k+1 fills frames while
// frames from producer k are being placed; small enough that frames parked
// in mailboxes for not-yet-drained streams cannot hoard the chunk pool and
// starve the stream at the drain cursor.
const streamWindow = 2

// queryStream runs Algorithm 3 with a streamed data step: the redirect
// answers of the intersecting blocks' owners (asked once per layout id, see
// redirect), then one stream per producer holding data, drained in producer
// order with each frame scattered straight into target. Streams are requested a sliding window ahead of the
// drain cursor.
func (v *DistMetadataVOL) queryStream(client *rpc.Client, ic *mpi.Intercomm, file string, rd *redirect, fileSpace *h5.Dataspace, target *streamTarget) error {
	bb := fileSpace.Bounds()
	if bb.IsEmpty() {
		return nil
	}
	v.instruments()
	var csBefore rpc.ClientStats
	if v.Flight != nil {
		csBefore = client.Stats()
	}
	start := time.Now()
	order, boxWait, err := v.queryOwners(client, ic, file, rd, bb)
	if err != nil {
		return err
	}
	req := encodeDataStreamReq(file, rd.path, fileSpace)
	t1 := time.Now()
	calls := make([]*rpc.StreamCall, len(order))
	started := 0
	startThrough := func(n int) {
		for ; started < n && started < len(order); started++ {
			calls[started] = client.StartStream(order[started], req)
		}
	}
	startThrough(streamWindow)
	var chunks, dataBytes int64
	for i, sc := range calls {
		err := sc.Drain(func(payload []byte) error {
			chunks++
			dataBytes += int64(len(payload))
			return target.consume(payload)
		})
		if err != nil {
			// Drain the window's other started streams before giving up:
			// abandoning them would strand their in-flight frames (pooled
			// chunks) in the mailbox.
			for j := i + 1; j < started; j++ {
				calls[j].Discard()
			}
			return fmt.Errorf("lowfive: data stream from producer %d: %w", order[i], err)
		}
		startThrough(i + 1 + streamWindow)
	}
	v.qmu.Lock()
	v.qstats.DataQueries += int64(len(order))
	v.qstats.BytesFetched += dataBytes
	v.qstats.ChunksFetched += chunks
	v.qstats.WaitTime += boxWait + time.Since(t1)
	v.qmu.Unlock()
	total := time.Since(start)
	v.mQueryLat.Observe(total)
	if v.Flight.Slow(total) {
		// Attempts/hedging come from the client counter deltas across this
		// query; concurrent queries on the same client can inflate them, but
		// a slow query during a fault sweep is exactly when that attribution
		// is still the right lead.
		cs := client.Stats()
		self := v.local.WorldRank(v.local.Rank())
		v.Flight.Record(metrics.SlowQuery{
			Time:      time.Now(),
			Epoch:     v.local.World().Epoch(self),
			File:      file,
			Dataset:   rd.path,
			Box:       fmt.Sprintf("%v-%v", bb.Min, bb.Max),
			Producers: order,
			Attempts:  1 + cs.Retries - csBefore.Retries,
			Hedged:    cs.HedgedCalls > csBefore.HedgedCalls,
			Bytes:     dataBytes,
			Chunks:    chunks,
			Duration:  total,
			Reason:    "slow",
			Phases: []metrics.Phase{
				{Name: "boxes", Duration: boxWait},
				{Name: "stream", Duration: time.Since(t1)},
			},
		})
	}
	return nil
}
