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
// The CRC covers deadline+idx+flags+payload, so the existing
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
	"lowfive/internal/spin"
	"lowfive/mpi"
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
// the frame transfers with the send: the receiver releases it.
func (st *Stream) send(frame []byte, last bool) {
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
		crc = checksum(frame[12:])
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
	s.mu.Lock()
	if m := s.seen[src]; m != nil {
		delete(m, seq)
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
	next    uint32
	sent    time.Time // when StartStream posted the request, for the latency histogram
	err     error     // breaker fast-fail, surfaced by Drain before any receive
}

// StartStream sends req to dest and returns the handle to drain the framed
// response. The request body must stay valid until Drain returns (it is
// resent on retry). If dest's circuit breaker is open the request is not
// sent; Drain returns the *BreakerOpenError immediately.
func (c *Client) StartStream(dest int, req []byte) *StreamCall {
	if err := c.breakerAllow(dest, req); err != nil {
		return &StreamCall{c: c, dest: dest, req: req, sent: time.Now(), err: err}
	}
	seq := c.nextSeq()
	dl := c.deadline()
	sent := time.Now()
	c.IC.Send(dest, tagRequest, seal(c.IC.Intact(), seq, dl, req))
	return &StreamCall{c: c, dest: dest, seq: seq, overall: dl, req: req, sent: sent}
}

// Drain receives the stream's frames in order, invoking onFrame with each
// payload. The payload aliases a pooled buffer that is released when
// onFrame returns, so onFrame must consume (scatter/copy) it before
// returning. An onFrame error aborts the drain and is returned.
//
// Loss recovery mirrors Call: with a Timeout configured, a silent gap
// resends the request (same seq) and the server re-streams from frame 0;
// already-consumed indices are discarded. A crashed peer returns a
// *CallError wrapping mpi.RankFailedError.
func (sc *StreamCall) Drain(onFrame func(payload []byte) error) (err error) {
	if sc.err != nil {
		return sc.err // breaker fast-fail: the request was never sent
	}
	c := sc.c
	start := time.Now()
	attempts := 1
	// The stream's latency covers the whole call — StartStream's request
	// send to the last frame — labeled by the request's method (the
	// data-stream op), like any scalar call.
	c.instruments()
	defer func() { c.observe(sc.req, sc.sent, attempts) }()
	defer func() {
		if r := recover(); r != nil {
			if rf, ok := r.(*mpi.RankFailedError); ok {
				c.breakerOnFailure(sc.dest, sc.req)
				err = &CallError{Dest: sc.dest, Attempts: attempts, Elapsed: time.Since(start), Err: rf}
				return
			}
			panic(r)
		}
	}()
	var ss shedState
	if c.Timeout <= 0 {
		// Fail-stop mode: the transport delivers in order and never drops,
		// so block per frame until the last flag.
		for {
			msg, _ := c.IC.Recv(sc.dest, tagResponse)
			if ra, isShed := sc.shedCheck(msg); isShed {
				buf.Release(msg)
				retry, serr := c.handleShed(&ss, sc.dest, sc.seq, sc.overall, ra, sc.req)
				if !retry {
					return serr
				}
				continue
			}
			payload, last, ok := sc.accept(msg)
			if !ok {
				continue
			}
			ferr := onFrame(payload)
			buf.Release(msg)
			if ferr != nil {
				return ferr
			}
			if last {
				c.breakerOnSuccess(sc.dest, sc.req)
				return nil
			}
		}
	}
	backoff := c.Backoff
	var down *mpi.RankFailedError
	for attempt := 0; ; attempt++ {
		attempts = attempt + 1
		deadline := time.Now().Add(c.Timeout)
		if sc.overall != 0 {
			if od := time.Unix(0, sc.overall); od.Before(deadline) {
				deadline = od
			}
		}
		for time.Now().Before(deadline) {
			msg, got, pd := c.tryRecv(sc.dest)
			if pd != nil {
				down = pd
				spin.Wait(pollInterval)
				continue
			}
			if !got {
				spin.Wait(pollInterval)
				continue
			}
			if ra, isShed := sc.shedCheck(msg); isShed {
				buf.Release(msg)
				retry, serr := c.handleShed(&ss, sc.dest, sc.seq, sc.overall, ra, sc.req)
				if !retry {
					return serr
				}
				// The post-backoff resend re-streams from frame 0; the
				// cursor stays put so already-consumed indices are skipped,
				// exactly like loss recovery. A shed proves the server
				// alive, so restart the attempt clock.
				deadline = time.Now().Add(c.Timeout)
				if sc.overall != 0 {
					if od := time.Unix(0, sc.overall); od.Before(deadline) {
						deadline = od
					}
				}
				continue
			}
			payload, last, ok := sc.accept(msg)
			if !ok {
				continue
			}
			ferr := onFrame(payload)
			buf.Release(msg)
			if ferr != nil {
				return ferr
			}
			if last {
				c.breakerOnSuccess(sc.dest, sc.req)
				return nil
			}
			// Progress: each accepted frame refreshes the deadline and the
			// retry budget.
			deadline = time.Now().Add(c.Timeout)
			attempt = 0
			backoff = c.Backoff
		}
		spent := sc.overall != 0 && time.Now().UnixNano() >= sc.overall
		if attempt >= c.Retries || spent {
			c.timeouts.Add(1)
			c.mTimeouts.Inc()
			c.breakerOnFailure(sc.dest, sc.req)
			if down != nil {
				return &CallError{Dest: sc.dest, Attempts: attempts, Elapsed: time.Since(start), Err: down}
			}
			to := &TimeoutError{Dest: sc.dest, Timeout: c.Timeout, Attempts: attempts, Elapsed: time.Since(start)}
			return &CallError{Dest: sc.dest, Attempts: attempts, Elapsed: time.Since(start), Err: to}
		}
		if backoff > 0 {
			spin.Wait(backoff)
			backoff *= 2
		}
		if down != nil {
			// The peer crashed mid-stream (and may be relaunched by a
			// supervisor). Restart the accept cursor along with the
			// re-dispatch: a restarted producer may segment the re-streamed
			// response differently (its rejoined triples need not match the
			// originals), so discarding "already consumed" indices could
			// skip regions the new segmentation packs there. Re-consuming
			// is safe on this path — streamed frames are self-describing
			// box-addressed scatters, applied in stream order. Plain loss
			// recovery (no crash) keeps the cursor: the re-stream is
			// identical and consumed indices are skipped as before.
			sc.next = 0
			down = nil
		}
		c.noteRetry(sc.dest, attempt+1)
		c.IC.Send(sc.dest, tagRequest, seal(c.IC.Intact(), sc.seq, sc.overall, sc.req))
	}
}

// Discard drains the stream's remaining frames without consuming them,
// releasing each back to its pool — the cleanup path for a windowed query
// that is abandoning streams it already started after another producer
// failed. An overloaded reply ends the discard immediately (the server
// refused; nothing more is coming), as does a crashed peer. In timeout mode
// the discard gives up after one quiet Timeout; stragglers that arrive later
// are released by the stale-seq handling of subsequent calls.
func (sc *StreamCall) Discard() {
	if sc.err != nil {
		return // never sent
	}
	c := sc.c
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*mpi.RankFailedError); ok {
				return
			}
			panic(r)
		}
	}()
	if c.Timeout <= 0 {
		for {
			msg, _ := c.IC.Recv(sc.dest, tagResponse)
			if _, isShed := sc.shedCheck(msg); isShed {
				buf.Release(msg)
				return
			}
			_, last, ok := sc.accept(msg)
			if !ok {
				continue
			}
			buf.Release(msg)
			if last {
				return
			}
		}
	}
	deadline := time.Now().Add(c.Timeout)
	for time.Now().Before(deadline) {
		msg, got, pd := c.tryRecv(sc.dest)
		if pd != nil {
			return
		}
		if !got {
			spin.Wait(pollInterval)
			continue
		}
		if _, isShed := sc.shedCheck(msg); isShed {
			buf.Release(msg)
			return
		}
		_, last, ok := sc.accept(msg)
		if !ok {
			continue
		}
		buf.Release(msg)
		if last {
			return
		}
		deadline = time.Now().Add(c.Timeout)
	}
}

// shedCheck recognizes an overloaded reply addressed to this stream: a
// sealed empty body whose envelope deadline is negative, carrying
// -RetryAfter. A shed reply is exactly headerLen bytes and every frame is
// longer (accept requires idx+flags), so a frame is left for accept to
// verify — once — without an unseal here. The message is not released;
// the caller owns it either way.
func (sc *StreamCall) shedCheck(msg []byte) (retryAfter time.Duration, isShed bool) {
	if len(msg) != headerLen {
		return 0, false
	}
	rseq, rdl, _, ok := unseal(sc.c.IC.Intact(), msg)
	if !ok || rseq != sc.seq {
		return 0, false
	}
	return shedRetryAfter(rdl)
}

// accept validates one received message against the stream: envelope CRC,
// sequence number, and the exact next frame index. Anything else — corrupt,
// stale seq, an already-consumed index from a re-stream, or a gapped index
// after a loss — is discarded and released; retry recovers the gap.
func (sc *StreamCall) accept(msg []byte) (payload []byte, last bool, ok bool) {
	rseq, _, body, ok := unseal(sc.c.IC.Intact(), msg)
	if !ok || rseq != sc.seq || len(body) < 5 {
		buf.Release(msg)
		return nil, false, false
	}
	idx := binary.LittleEndian.Uint32(body[0:4])
	if idx != sc.next {
		buf.Release(msg)
		return nil, false, false
	}
	sc.next++
	return body[5:], body[4]&flagLast != 0, true
}
