// Streaming call mode: a response too large (or too useful to pipeline) to
// travel as one sealed body is framed as a sequence of bounded chunks under
// the same seq+CRC envelope the scalar calls use. The server writes frame
// headers into pooled buffers in place (no re-buffering of the body), the
// client consumes frames in order and releases each one back to its pool,
// so peak transport memory is O(frames in flight) instead of O(response).
//
// A frame is a sealed envelope whose body begins with a frame index and a
// flags byte:
//
//	[seq 8][crc32 4][deadline 8][idx 4][flags 1][payload]
//
// The CRC covers seq+deadline+idx+flags+payload, so the existing
// corrupt-discard logic applies unchanged; like every envelope's, it is 0
// and unchecked on an intact world. Response frames carry a zero deadline
// — only requests are budget-checked. Recovery reuses the scalar retry
// contract: if a frame is lost or corrupted the client times out and
// resends the request (same seq); the server forgets a stream's seq as
// soon as its last frame is sent, so the retry re-dispatches the handler,
// which re-streams from frame 0 and the client discards every index it
// has already consumed.
package rpc

import (
	"encoding/binary"
	"time"

	"lowfive/internal/buf"
)

const (
	// FrameOverhead is the per-frame header: the seal envelope
	// (seq+CRC+deadline) plus the frame index and flags.
	FrameOverhead = headerLen + 5

	flagLast = 1 << 0
)

// Stream is the server-side sender of one streamed response. Handlers Grab
// contiguous regions, fill them in place, and Close; framing and flushing
// are automatic. Close sends the final frame (flagged last, possibly empty)
// and forgets the request's dedup entry so a client retry re-dispatches.
type Stream struct {
	srv    *Server
	src    int
	seq    uint64
	idx    uint32
	w      *buf.Writer
	frames int
	bytes  int64
}

// NewStream starts a streamed response to the (src, seq) request previously
// obtained from Recv. pool nil uses buf.Default.
func (s *Server) NewStream(src int, seq uint64, pool *buf.Pool) *Stream {
	st := &Stream{srv: s, src: src, seq: seq}
	st.w = buf.NewWriter(pool, FrameOverhead, func(frame []byte) { st.send(frame, false) })
	return st
}

// MaxSegment returns the largest Grab that still fits a pooled frame.
func (st *Stream) MaxSegment() int { return st.w.MaxGrab() }

// Grab returns an n-byte region of the current frame for the handler to
// fill in place; a full frame is sent before a fresh one is started.
func (st *Stream) Grab(n int) []byte { return st.w.Grab(n) }

// Close sends the pending data as the stream's last frame (an empty last
// frame if nothing is pending) and releases the request's dedup entry.
func (st *Stream) Close() {
	frame := st.w.Take()
	if frame == nil {
		frame = make([]byte, FrameOverhead)
	}
	st.send(frame, true)
	st.srv.Forget(st.src, st.seq)
}

// Frames returns how many frames were sent, Bytes the payload bytes.
func (st *Stream) Frames() int { return st.frames }

// Bytes returns the total payload bytes sent.
func (st *Stream) Bytes() int64 { return st.bytes }

// send seals one frame in place and hands it to the transport. Ownership of
// the frame transfers with the send: the receiver releases it. A stream
// answering a notification sends nothing and releases each frame here.
func (st *Stream) send(frame []byte, last bool) {
	if st.seq&notifyBit != 0 {
		buf.Release(frame)
		return
	}
	binary.LittleEndian.PutUint64(frame[0:], st.seq)
	binary.LittleEndian.PutUint64(frame[12:], 0) // pooled frame: clear the deadline field
	binary.LittleEndian.PutUint32(frame[headerLen:], st.idx)
	var flags byte
	if last {
		flags |= flagLast
	}
	frame[headerLen+4] = flags
	var crc uint32 // pooled frame: an intact world leaves the field 0
	if !st.srv.IC.Intact() {
		crc = checksum(frame)
	}
	binary.LittleEndian.PutUint32(frame[8:], crc)
	st.srv.IC.Send(st.src, tagResponse, frame)
	st.idx++
	st.frames++
	st.bytes += int64(len(frame) - FrameOverhead)
}

// Forget drops the dedup entry for (src, seq) so a duplicate or retried
// request re-dispatches the handler instead of being swallowed. Streamed
// responses cannot be replayed from cache, so re-dispatch is their replay.
func (s *Server) Forget(src int, seq uint64) {
	if !s.dedups(seq) {
		return
	}
	s.mu.Lock()
	if m := s.seen[src]; m != nil {
		delete(m, seq&^marks)
	}
	s.mu.Unlock()
}

// StreamCall is the client side of one streamed response.
type StreamCall struct {
	c       *Client
	dest    int
	seq     uint64
	overall int64 // absolute end-to-end deadline from the client's Budget
	req     []byte
	sent    time.Time // when StartStream posted the request
	err     error     // breaker fast-fail, surfaced by Drain before any receive
}

// StartStream sends req to dest and returns the handle to drain the framed
// response. The request body must stay valid until Drain returns (it is
// resent on retry). If dest's circuit breaker is open the request is not
// sent; Drain returns the *BreakerOpenError immediately.
func (c *Client) StartStream(dest int, req []byte) *StreamCall {
	if err := c.breakerAllow(dest, req); err != nil {
		return &StreamCall{err: err}
	}
	sc := &StreamCall{c: c, dest: dest, seq: c.nextSeq(), overall: c.deadline(), req: req, sent: time.Now()}
	c.IC.Send(dest, tagRequest, seal(c.IC.Intact(), sc.seq, sc.overall, req))
	return sc
}

// Drain receives the stream's frames in order, invoking onFrame with each
// payload. The payload aliases a pooled buffer that is released when
// onFrame returns, so onFrame must consume (scatter/copy) it before
// returning. An onFrame error aborts the drain and is returned.
//
// Loss recovery mirrors Call: with a Timeout configured, a silent gap
// resends the request (same seq) and the server re-streams from frame 0;
// already-consumed indices are discarded. Each accepted frame starts a
// fresh attempt, still within the Budget. A crashed peer returns a
// *CallError wrapping mpi.RankFailedError.
func (sc *StreamCall) Drain(onFrame func(payload []byte) error) error {
	if sc.err != nil {
		return sc.err // breaker fast-fail: the request was never sent
	}
	return sc.drain(onFrame)
}

// Discard drains the stream's remaining frames without consuming them,
// releasing each back to its pool — the cleanup path for a windowed query
// that is abandoning streams it already started after another producer
// failed. An overloaded reply ends the discard immediately (the server
// refused; nothing more is coming), as does a crashed peer. In timeout mode
// the discard gives up after one quiet attempt; stragglers that arrive
// later are released by the stale-seq handling of subsequent calls.
func (sc *StreamCall) Discard() {
	if sc.err == nil {
		sc.drain(nil)
	}
}

// drain runs the stream's wait, accepting exactly the next frame index each
// time. Anything else — an already-consumed index from a re-stream, or a
// gapped index after a loss — is released; retry recovers the gap. A nil
// onFrame discards: the call then feeds neither the metrics nor the
// breaker.
func (sc *StreamCall) drain(onFrame func(payload []byte) error) error {
	cl := sc.c.newCall(sc.dest, sc.seq, sc.overall, sc.req)
	// The stream's clock — its latency histogram, labeled by the request's
	// method (the data-stream op), and a CallError's Elapsed — runs from
	// StartStream's send, like any scalar call's.
	cl.start = sc.sent
	cl.begin()
	cl.discard = onFrame == nil
	if !cl.discard {
		defer cl.observe()
	}
	for {
		msg, body, src, err := cl.wait()
		if err != nil {
			return err
		}
		if len(body) < 5 || binary.LittleEndian.Uint32(body) != cl.idx {
			buf.Release(msg)
			continue
		}
		cl.idx++
		var ferr error
		if onFrame != nil {
			ferr = onFrame(body[5:])
		}
		last := body[4]&flagLast != 0
		buf.Release(msg)
		if ferr != nil {
			return ferr
		}
		if last {
			if !cl.discard {
				sc.c.breakerOnSuccess(src, sc.req)
			}
			return nil
		}
		// A stream that is moving is not quiet: each frame starts a fresh
		// attempt, with its retries and backoff, still within the Budget.
		cl.attempts, cl.backoff = 1, sc.c.Backoff
		cl.arm()
	}
}
