// Package rpc provides the minimal remote-procedure-call abstraction over
// MPI intercommunicators that the paper's index, serve and query functions
// are written in (§III-B): a client sends a tagged request to a rank of the
// remote group and blocks for the reply; a server receives requests from any
// remote rank, dispatches them to a handler, and sends the reply back.
//
// Requests and responses travel in a small envelope — a per-client sequence
// number, a CRC, and the call's end-to-end deadline — that makes the
// exchange safe under an unreliable transport: a duplicated request is
// answered once (the server replays the cached response instead of
// re-dispatching), and a retried call reuses its sequence number so the
// server recognizes it. Integrity is asked of the world, not re-checked:
// the CRC is computed and verified only when mpi.Intercomm.Intact reports
// that the world can corrupt payloads (a FaultPlan with a FaultCorrupt
// rule), and then a corrupted payload is discarded as if lost. On an
// intact world — the chan engine hands payloads over by reference, the
// sock engine checks and resends every wire frame itself — the CRC field
// is 0 and no checksum pass runs. With
// a Timeout configured, Call bounds each attempt and retries with
// exponential backoff; a Budget bounds the whole call end to end, and the
// deadline travels in the envelope so a server receiving a request whose
// budget is already spent rejects it without dispatching work no one
// awaits. CallHedged races the primary against a replica after a hedge
// delay, the tail-latency defense of Dean & Barroso's "The Tail at Scale".
// A crashed peer surfaces as a typed error instead of a hang.
package rpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"lowfive/internal/buf"
	"lowfive/internal/spin"
	"lowfive/metrics"
	"lowfive/mpi"
	"lowfive/trace"
)

// TagRequest and TagResponse are the message tags RPC traffic travels on,
// exported so fault plans (mpi.FaultRule.Tag) can target request or response
// messages specifically.
const (
	TagRequest  = 71
	TagResponse = 72

	tagRequest  = TagRequest
	tagResponse = TagResponse

	headerLen = 20 // seq (8) + crc32 (4) + deadline (8)

	// dedupWindow bounds the server's per-source response cache: entries
	// more than this many sequence numbers behind the newest are pruned.
	// Duplicates are reorderings of recent traffic, never arbitrarily old.
	dedupWindow = 256

	// pollInterval paces the timeout-mode receive poll.
	pollInterval = 200 * time.Microsecond
)

// checksum is the envelope CRC, a variable so tests can count how many
// passes the rpc path makes over payload bytes.
var checksum = crc32.ChecksumIEEE

// seal wraps a body in the wire envelope: sequence number, CRC, and the
// call's absolute end-to-end deadline (UnixNano; 0 means unbounded). The
// CRC covers the deadline too, so a corrupted deadline is discarded as
// lost rather than silently extending or expiring a request. On an intact
// world (mpi.Intercomm.Intact) the CRC field is left 0: nothing between
// sender and receiver can change the bytes, so the pass would catch
// nothing. Deadlines are absolute because all ranks share one process
// clock; a multi-node port would carry the remaining budget instead.
func seal(intact bool, seq uint64, deadline int64, body []byte) []byte {
	buf := make([]byte, headerLen+len(body))
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint64(buf[12:], uint64(deadline))
	copy(buf[headerLen:], body)
	if !intact {
		binary.LittleEndian.PutUint32(buf[8:], checksum(buf[12:]))
	}
	return buf
}

// unseal unwraps an envelope, verifying the CRC unless the world is
// intact. ok=false means the message is truncated or corrupt and must be
// treated as lost.
func unseal(intact bool, msg []byte) (seq uint64, deadline int64, body []byte, ok bool) {
	if len(msg) < headerLen {
		return 0, 0, nil, false
	}
	seq = binary.LittleEndian.Uint64(msg[0:])
	if !intact && checksum(msg[12:]) != binary.LittleEndian.Uint32(msg[8:]) {
		return 0, 0, nil, false
	}
	deadline = int64(binary.LittleEndian.Uint64(msg[12:]))
	return seq, deadline, msg[headerLen:], true
}

// TimeoutError reports that a call's attempts all expired without a reply.
// Attempts and Elapsed make a chaos-run timeout diagnosable without
// replaying it: they say whether the budget died retrying a silent peer or
// never got a second attempt.
type TimeoutError struct {
	// Dest is the remote rank that did not answer.
	Dest int
	// Timeout is the per-attempt deadline that expired.
	Timeout time.Duration
	// Attempts is how many attempts (including the first send) were made.
	Attempts int
	// Elapsed is the total wall time from the first send to giving up.
	Elapsed time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("rpc: call to rank %d timed out after %d attempts over %v (per-attempt timeout %v)",
		e.Dest, e.Attempts, e.Elapsed.Round(time.Microsecond), e.Timeout)
}

// CallError wraps a failure of one call with the rank it addressed, so
// callers fanning out to many ranks know which peer to fail over from.
type CallError struct {
	// Dest is the remote rank the failed call addressed.
	Dest int
	// Attempts is how many attempts were made before the call failed.
	Attempts int
	// Elapsed is the total wall time the call spent before failing.
	Elapsed time.Duration
	// Err is the underlying failure (a *TimeoutError or *mpi.RankFailedError).
	Err error
}

func (e *CallError) Error() string {
	return fmt.Sprintf("rpc: call to rank %d failed after %d attempts over %v: %v",
		e.Dest, e.Attempts, e.Elapsed.Round(time.Microsecond), e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *CallError) Unwrap() error { return e.Err }

// Client issues blocking calls to ranks of the remote group. The zero value
// (plus IC) behaves like the original fail-stop client: calls block forever
// and a crashed peer is the only possible error. Setting Timeout turns on
// bounded attempts with retries.
type Client struct {
	IC *mpi.Intercomm

	// Timeout bounds each call attempt; zero or negative blocks forever.
	Timeout time.Duration
	// Retries is how many times a timed-out attempt is resent.
	Retries int
	// Backoff is the wait after the first timed-out attempt; it doubles per
	// retry. Zero means retry immediately.
	Backoff time.Duration
	// RetryFailed keeps polling when the addressed peer has crashed instead
	// of failing the call immediately: under a supervised workflow the peer
	// may be torn down and relaunched, and a retried request (sends to a
	// dead rank are silently dropped) reaches the fresh incarnation. The
	// call still fails once the retry budget is spent with the peer down,
	// with a *CallError wrapping mpi.RankFailedError — so the budget bounds
	// how long a restart may take. Requires a Timeout; the fail-stop path
	// ignores it.
	RetryFailed bool
	// Budget bounds each call end to end: however many attempts the retry
	// schedule would still allow, the call fails once the budget is spent.
	// The deadline travels in the request envelope so the server can reject
	// a request whose caller has already given up. Zero means unbounded
	// (per-attempt timeouts only). Requires a Timeout.
	Budget time.Duration
	// HedgeDelay is how long CallHedged waits for the primary before also
	// sending the request to the hedge rank. Zero defaults to a quarter of
	// Timeout.
	HedgeDelay time.Duration
	// Track, when set, records rpc.retry and rpc.hedge trace instants so a
	// chaos run shows where a client burned its budget.
	Track *trace.Track
	// Metrics, when set, records this client's side of the metrics plane:
	// a per-method call-latency histogram ("rpc.client.call_us.<method>",
	// microseconds, covering the whole call including retries and hedges),
	// an attempts histogram, and retry/timeout/hedge counters. Method
	// classifies a request body to its method name for the latency
	// histogram; nil labels every call "call".
	Metrics *metrics.Registry
	Method  func(req []byte) string

	// ShedRetries is how many overloaded (load-shed) replies a call absorbs
	// — backing off by at least the server's RetryAfter each time — before
	// giving up with a *OverloadedError. Zero fails on the first shed.
	ShedRetries int
	// BreakerThreshold arms a circuit breaker per (destination rank, method
	// class): after this many consecutive failures (sheds, timeouts, peer
	// crashes) of one method against one rank, calls of that method to it
	// fast-fail with *BreakerOpenError until BreakerCooldown elapses and a
	// half-open probe succeeds. Keying by method keeps healthy scalar
	// metadata responses from resetting a saturated stream path's failure
	// count. Zero disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open interval before a half-open probe is
	// allowed. Zero defaults to 25ms.
	BreakerCooldown time.Duration

	mu  sync.Mutex
	seq uint64

	retries      atomic.Int64
	timeouts     atomic.Int64
	hedged       atomic.Int64
	hedgeWins    atomic.Int64
	sheds        atomic.Int64
	breakerOpens atomic.Int64

	bmu sync.Mutex
	brk map[breakerKey]*breaker

	// Instrument handles, resolved once so recording never touches the
	// registry lock; per-method histograms are cached under histMu.
	instOnce     sync.Once
	mAttempts    *metrics.Histogram
	mRetries     *metrics.Counter
	mTimeouts    *metrics.Counter
	mHedged      *metrics.Counter
	mHedgeWin    *metrics.Counter
	mSheds       *metrics.Counter
	mBreakerOpen *metrics.Counter
	histMu       sync.Mutex
	mCalls       map[string]*metrics.Histogram
}

// instruments lazily resolves the client's fixed instrument handles. With
// no registry attached the handles stay nil, and every record on them is a
// nil-safe no-op.
func (c *Client) instruments() {
	c.instOnce.Do(func() {
		if c.Metrics == nil {
			return
		}
		c.mAttempts = c.Metrics.Histogram("rpc.client.attempts")
		c.mRetries = c.Metrics.Counter("rpc.client.retries")
		c.mTimeouts = c.Metrics.Counter("rpc.client.timeouts")
		c.mHedged = c.Metrics.Counter("rpc.client.hedged")
		c.mHedgeWin = c.Metrics.Counter("rpc.client.hedge_wins")
		c.mSheds = c.Metrics.Counter("rpc.client.sheds")
		c.mBreakerOpen = c.Metrics.Counter("rpc.client.breaker_opens")
		c.mCalls = map[string]*metrics.Histogram{}
	})
}

// callHist returns the latency histogram for the method of req, caching
// handles so steady-state calls cost one small map lookup and no
// allocation.
func (c *Client) callHist(req []byte) *metrics.Histogram {
	method := "call"
	if c.Method != nil {
		method = c.Method(req)
	}
	c.histMu.Lock()
	h, ok := c.mCalls[method]
	if !ok {
		h = c.Metrics.Histogram("rpc.client.call_us." + method)
		c.mCalls[method] = h
	}
	c.histMu.Unlock()
	return h
}

// observe records one completed call — success or failure — into the
// per-method latency histogram and the attempts histogram.
func (c *Client) observe(req []byte, start time.Time, attempts int) {
	if c.Metrics == nil {
		return
	}
	c.callHist(req).ObserveSince(start)
	c.mAttempts.Record(int64(attempts))
}

// ClientStats is a snapshot of a client's retry and hedging counters.
type ClientStats struct {
	// Retries counts resent attempts (beyond each call's first send).
	Retries int64
	// Timeouts counts calls that failed with their budget spent.
	Timeouts int64
	// HedgedCalls counts hedged calls whose hedge was actually sent.
	HedgedCalls int64
	// HedgeWins counts hedged calls the hedge rank answered first.
	HedgeWins int64
	// Sheds counts overloaded (load-shed) replies absorbed by this client.
	Sheds int64
	// BreakerOpens counts circuit-breaker transitions to open.
	BreakerOpens int64
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Retries:      c.retries.Load(),
		Timeouts:     c.timeouts.Load(),
		HedgedCalls:  c.hedged.Load(),
		HedgeWins:    c.hedgeWins.Load(),
		Sheds:        c.sheds.Load(),
		BreakerOpens: c.breakerOpens.Load(),
	}
}

// deadline computes the absolute end-to-end deadline for a call starting
// now, or 0 when the client has no Budget.
func (c *Client) deadline() int64 {
	if c.Budget <= 0 {
		return 0
	}
	return time.Now().Add(c.Budget).UnixNano()
}

// noteRetry counts one resend, for the stats, the metrics and the trace.
func (c *Client) noteRetry(dest, attempt int) {
	c.retries.Add(1)
	c.mRetries.Inc()
	if c.Track != nil {
		c.Track.Instant("rpc", "rpc.retry",
			trace.I64("dst", int64(dest)), trace.I64("attempt", int64(attempt)))
	}
}

func (c *Client) nextSeq() uint64 {
	c.mu.Lock()
	c.seq++
	s := c.seq
	c.mu.Unlock()
	return s
}

// Call sends req to remote rank dest and blocks for its response. A crashed
// peer returns a *CallError wrapping mpi.RankFailedError; with a Timeout
// configured, lost or corrupted messages return a *CallError wrapping
// TimeoutError once the retry budget is spent.
func (c *Client) Call(dest int, req []byte) ([]byte, error) {
	if err := c.breakerAllow(dest, req); err != nil {
		return nil, err
	}
	seq := c.nextSeq()
	dl := c.deadline()
	c.IC.Send(dest, tagRequest, seal(c.IC.Intact(), seq, dl, req))
	return c.await(dest, seq, dl, req)
}

// CallAll pipelines the same request to several remote ranks: all sends are
// posted before any response is awaited (the nonblocking-send pattern of
// the paper's query step), and the responses are returned in dests order.
// The first failed call aborts with its *CallError (identifying the rank,
// for failover); responses already received stay in their slots, the failed
// and later slots are nil.
func (c *Client) CallAll(dests []int, req []byte) ([][]byte, error) {
	for _, d := range dests {
		if err := c.breakerAllow(d, req); err != nil {
			return make([][]byte, len(dests)), err
		}
	}
	seqs := make([]uint64, len(dests))
	dl := c.deadline() // posted together, so the calls share one deadline
	for i, d := range dests {
		seqs[i] = c.nextSeq()
		c.IC.Send(d, tagRequest, seal(c.IC.Intact(), seqs[i], dl, req))
	}
	out := make([][]byte, len(dests))
	for i, d := range dests {
		resp, err := c.await(d, seqs[i], dl, req)
		if err != nil {
			return out, err
		}
		out[i] = resp
	}
	return out, nil
}

// Notify sends req to remote rank dest without expecting a response. It is
// fire-and-forget: with no reply there is nothing to time out on, so callers
// that must know the notification arrived should use Call against a server
// that acknowledges.
func (c *Client) Notify(dest int, req []byte) {
	// No deadline: a notification with no reply has no caller to give up,
	// so the server must never reject it as expired.
	c.IC.Send(dest, tagRequest, seal(c.IC.Intact(), c.nextSeq(), 0, req))
}

// await blocks for the response carrying seq from dest, resending the
// request on timeout (same sequence number — the server deduplicates).
// Responses with other sequence numbers are stale replies to abandoned
// attempts and are discarded. overall (the envelope deadline, 0 for none)
// caps the whole call: no attempt outlives it, and once it passes the call
// fails even with retries left.
func (c *Client) await(dest int, seq uint64, overall int64, req []byte) (resp []byte, err error) {
	start := time.Now()
	attempts := 1
	c.instruments()
	defer func() { c.observe(req, start, attempts) }()
	defer func() {
		if r := recover(); r != nil {
			if rf, ok := r.(*mpi.RankFailedError); ok {
				c.breakerOnFailure(dest, req)
				resp, err = nil, &CallError{Dest: dest, Attempts: attempts, Elapsed: time.Since(start), Err: rf}
				return
			}
			panic(r)
		}
	}()
	var ss shedState
	if c.Timeout <= 0 {
		// Fail-stop mode: block until the response (or a peer crash) arrives.
		for {
			msg, _ := c.IC.Recv(dest, tagResponse)
			rseq, rdl, body, ok := unseal(c.IC.Intact(), msg)
			if ok && rseq == seq {
				if ra, isShed := shedRetryAfter(rdl); isShed {
					buf.Release(msg)
					retry, serr := c.handleShed(&ss, dest, seq, overall, ra, req)
					if !retry {
						return nil, serr
					}
					continue
				}
				c.breakerOnSuccess(dest, req)
				return body, nil
			}
			// Stale or corrupt — possibly a pooled frame from an abandoned
			// stream; recycle it.
			buf.Release(msg)
		}
	}
	backoff := c.Backoff
	var down *mpi.RankFailedError
	pacer := newPollPacer(c.Timeout)
	for attempt := 0; ; attempt++ {
		attempts = attempt + 1
		deadline := time.Now().Add(c.Timeout)
		if overall != 0 {
			if od := time.Unix(0, overall); od.Before(deadline) {
				deadline = od
			}
		}
		for time.Now().Before(deadline) {
			msg, got, pd := c.tryRecv(dest)
			if pd != nil {
				down = pd
				pacer.wait(deadline)
				continue
			}
			if !got {
				pacer.reset()
				spin.Wait(pollInterval)
				continue
			}
			rseq, rdl, body, ok := unseal(c.IC.Intact(), msg)
			if ok && rseq == seq {
				if ra, isShed := shedRetryAfter(rdl); isShed {
					buf.Release(msg)
					retry, serr := c.handleShed(&ss, dest, seq, overall, ra, req)
					if !retry {
						return nil, serr
					}
					// A shed proves the server alive: restart the attempt
					// clock for the post-backoff resend instead of charging
					// the sleep against this attempt's receive window.
					deadline = time.Now().Add(c.Timeout)
					if overall != 0 {
						if od := time.Unix(0, overall); od.Before(deadline) {
							deadline = od
						}
					}
					continue
				}
				c.breakerOnSuccess(dest, req)
				return body, nil
			}
			buf.Release(msg)
		}
		spent := overall != 0 && time.Now().UnixNano() >= overall
		if attempt >= c.Retries || spent {
			c.timeouts.Add(1)
			c.mTimeouts.Inc()
			c.breakerOnFailure(dest, req)
			if down != nil {
				return nil, &CallError{Dest: dest, Attempts: attempts, Elapsed: time.Since(start), Err: down}
			}
			to := &TimeoutError{Dest: dest, Timeout: c.Timeout, Attempts: attempts, Elapsed: time.Since(start)}
			return nil, &CallError{Dest: dest, Attempts: attempts, Elapsed: time.Since(start), Err: to}
		}
		if backoff > 0 {
			spin.Wait(backoff)
			backoff *= 2
		}
		down = nil
		c.noteRetry(dest, attempt+1)
		c.IC.Send(dest, tagRequest, seal(c.IC.Intact(), seq, overall, req))
	}
}

// CallHedged sends req to dest and, if no response arrives within
// HedgeDelay (or dest is observed down), also to hedge — racing the
// primary against a replica so one straggling or partitioned rank cannot
// hold the call to its full timeout. The first valid response wins and is
// returned with the rank that produced it; the loser's late response is
// discarded by sequence matching on a later call. Requires a Timeout and a
// distinct hedge rank, otherwise it degrades to a plain Call.
func (c *Client) CallHedged(dest, hedge int, req []byte) (resp []byte, winner int, err error) {
	if c.Timeout <= 0 || hedge == dest {
		resp, err = c.Call(dest, req)
		return resp, dest, err
	}
	if berr := c.breakerAllow(dest, req); berr != nil {
		// Primary's breaker is open: route straight to the replica (its own
		// breaker gate applies inside Call) instead of fast-failing the
		// whole query.
		resp, err = c.Call(hedge, req)
		return resp, hedge, err
	}
	start := time.Now()
	c.instruments()
	seq := c.nextSeq()
	overall := c.deadline()
	c.IC.Send(dest, tagRequest, seal(c.IC.Intact(), seq, overall, req))
	hd := c.HedgeDelay
	if hd <= 0 {
		hd = c.Timeout / 4
	}
	targets := []int{dest}
	downs := make(map[int]*mpi.RankFailedError)
	shedRA := make(map[int]time.Duration) // last RetryAfter per shed target
	shedCount := 0
	hedgedSent := false
	sendHedge := func() {
		hedgedSent = true
		c.hedged.Add(1)
		c.mHedged.Inc()
		if c.Track != nil {
			c.Track.Instant("rpc", "rpc.hedge",
				trace.I64("primary", int64(dest)), trace.I64("hedge", int64(hedge)))
		}
		c.IC.Send(hedge, tagRequest, seal(c.IC.Intact(), seq, overall, req))
		targets = append(targets, hedge)
	}
	attempts := 1
	defer func() { c.observe(req, start, attempts) }()
	backoff := c.Backoff
	pacer := newPollPacer(c.Timeout)
	for attempt := 0; ; attempt++ {
		attempts = attempt + 1
		deadline := time.Now().Add(c.Timeout)
		if overall != 0 {
			if od := time.Unix(0, overall); od.Before(deadline) {
				deadline = od
			}
		}
		for time.Now().Before(deadline) {
			if !hedgedSent && (time.Since(start) >= hd || downs[dest] != nil || shedRA[dest] > 0) {
				sendHedge()
			}
			progress := false
			for _, d := range targets {
				msg, got, pd := c.tryRecvSafe(d)
				if pd != nil {
					downs[d] = pd
					continue
				}
				if !got {
					continue
				}
				progress = true
				rseq, rdl, body, ok := unseal(c.IC.Intact(), msg)
				if ok && rseq == seq {
					if ra, isShed := shedRetryAfter(rdl); isShed {
						// This target shed us: count it, feed its breaker,
						// and let the race continue — the other target (or
						// the next timed resend) may still answer.
						buf.Release(msg)
						c.noteShed(d)
						c.breakerOnFailure(d, req)
						shedRA[d] = ra
						shedCount++
						continue
					}
					c.breakerOnSuccess(d, req)
					if d == hedge {
						c.hedgeWins.Add(1)
						c.mHedgeWin.Inc()
					}
					return body, d, nil
				}
				buf.Release(msg)
			}
			if !progress {
				if !c.RetryFailed && hedgedSent && downs[dest] != nil && downs[hedge] != nil {
					// Both targets are down and no restart is coming.
					c.timeouts.Add(1)
					c.mTimeouts.Inc()
					return nil, dest, &CallError{Dest: dest, Attempts: attempts, Elapsed: time.Since(start), Err: downs[dest]}
				}
				if len(downs) > 0 {
					pacer.wait(deadline)
				} else {
					pacer.reset()
					spin.Wait(pollInterval)
				}
			}
		}
		spent := overall != 0 && time.Now().UnixNano() >= overall
		if attempt >= c.Retries || spent {
			c.timeouts.Add(1)
			c.mTimeouts.Inc()
			c.breakerOnFailure(dest, req)
			if hedgedSent {
				c.breakerOnFailure(hedge, req)
			}
			if pd := downs[dest]; pd != nil {
				return nil, dest, &CallError{Dest: dest, Attempts: attempts, Elapsed: time.Since(start), Err: pd}
			}
			if ra := shedRA[dest]; ra > 0 && shedCount > 0 {
				// The primary's last word was a shed, not silence: surface
				// the overload (with its backoff hint) rather than a timeout.
				return nil, dest, &OverloadedError{Dest: dest, RetryAfter: ra, Sheds: shedCount}
			}
			to := &TimeoutError{Dest: dest, Timeout: c.Timeout, Attempts: attempts, Elapsed: time.Since(start)}
			return nil, dest, &CallError{Dest: dest, Attempts: attempts, Elapsed: time.Since(start), Err: to}
		}
		if backoff > 0 {
			spin.Wait(backoff)
			backoff *= 2
		}
		for d := range downs {
			delete(downs, d)
		}
		for d := range shedRA {
			delete(shedRA, d)
		}
		for _, d := range targets {
			c.noteRetry(d, attempt+1)
			c.IC.Send(d, tagRequest, seal(c.IC.Intact(), seq, overall, req))
		}
	}
}

// tryRecvSafe is tryRecv with a crashed peer always surfaced as a value
// instead of a panic, regardless of RetryFailed: a hedged call outlives the
// death of one of its targets as long as the other can still answer.
func (c *Client) tryRecvSafe(dest int) (msg []byte, got bool, down *mpi.RankFailedError) {
	defer func() {
		if r := recover(); r != nil {
			if rf, ok := r.(*mpi.RankFailedError); ok {
				msg, got, down = nil, false, rf
				return
			}
			panic(r)
		}
	}()
	return c.tryRecv(dest)
}

// tryRecv polls for one response message from dest. With RetryFailed set, a
// crashed peer surfaces as a non-nil down error instead of a panic, so the
// polling loops can wait out a supervised restart window; without it the
// mpi.RankFailedError panic propagates (fail-stop behavior, recovered by the
// callers' deferred handlers).
func (c *Client) tryRecv(dest int) (msg []byte, got bool, down *mpi.RankFailedError) {
	if c.RetryFailed {
		defer func() {
			if r := recover(); r != nil {
				if rf, ok := r.(*mpi.RankFailedError); ok {
					msg, got, down = nil, false, rf
					return
				}
				panic(r)
			}
		}()
	}
	msg, _, got = c.IC.TryRecv(dest, tagResponse)
	return msg, got, nil
}

// Handler processes one request from remote rank src. Returning a nil
// response with respond=false means the request was a one-way notification.
type Handler func(src int, req []byte) (resp []byte, respond bool)

// reqState tracks one (src, seq) request through the server: seen but not
// yet answered (in flight or parked), or answered with a cached response.
type reqState struct {
	answered bool
	resp     []byte
}

// Server answers requests arriving on an intercommunicator. It deduplicates
// by (source, sequence): a duplicate of an already-answered request gets the
// cached response resent, and a duplicate of one still in flight (parked,
// or a one-way notification) is swallowed, so client retries are idempotent.
type Server struct {
	IC      *mpi.Intercomm
	Handler Handler

	// Metrics, when set, counts deadline-rejected requests as
	// "rpc.server.deadline_rejected".
	Metrics *metrics.Registry

	mu     sync.Mutex
	seen   map[int]map[uint64]*reqState
	newest map[int]uint64

	expired  atomic.Int64
	expOnce  sync.Once
	mExpired *metrics.Counter
}

// Expired counts requests rejected because their end-to-end deadline had
// already passed on arrival — work the server refused to dispatch because
// no caller was still awaiting the answer.
func (s *Server) Expired() int64 { return s.expired.Load() }

// ServeOne blocks for a single request, dispatches it, and replies if the
// handler produced a response. It returns the source rank.
func (s *Server) ServeOne() int {
	src, seq, req := s.Recv()
	resp, respond := s.Handler(src, req)
	if respond {
		s.Respond(src, seq, resp)
	}
	return src
}

// Recv blocks for one fresh request, for servers that need to defer or
// re-queue requests instead of answering immediately. Corrupt envelopes are
// dropped (the client's retry recovers them); duplicates never reach the
// caller.
func (s *Server) Recv() (src int, seq uint64, req []byte) {
	for {
		msg, st := s.IC.Recv(mpi.AnySource, tagRequest)
		rseq, deadline, body, ok := unseal(s.IC.Intact(), msg)
		if !ok {
			continue // corrupt on the wire; treated as lost
		}
		if deadline != 0 && time.Now().UnixNano() > deadline {
			// The caller's end-to-end budget is spent: nobody awaits this
			// answer, so reject without dispatching the handler.
			s.expired.Add(1)
			if s.Metrics != nil {
				s.expOnce.Do(func() {
					s.mExpired = s.Metrics.Counter("rpc.server.deadline_rejected")
				})
				s.mExpired.Inc()
			}
			buf.Release(msg)
			continue
		}
		if cached, dup := s.register(st.Source, rseq); dup {
			if cached != nil {
				// Already answered: replay the response for the retry.
				s.IC.Send(st.Source, tagResponse, seal(s.IC.Intact(), rseq, 0, cached.resp))
			}
			continue
		}
		return st.Source, rseq, body
	}
}

// Respond sends a response for a request previously obtained via Recv and
// caches it so duplicates of the request replay it.
func (s *Server) Respond(src int, seq uint64, resp []byte) {
	s.mu.Lock()
	if m := s.seen[src]; m != nil {
		if st, ok := m[seq]; ok {
			st.answered = true
			st.resp = resp
		}
	}
	s.mu.Unlock()
	s.IC.Send(src, tagResponse, seal(s.IC.Intact(), seq, 0, resp))
}

// register records a (src, seq) sighting. It returns dup=true when the
// request was seen before; cached is non-nil when it was already answered.
func (s *Server) register(src int, seq uint64) (cached *reqState, dup bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen == nil {
		s.seen = map[int]map[uint64]*reqState{}
		s.newest = map[int]uint64{}
	}
	m := s.seen[src]
	if m == nil {
		m = map[uint64]*reqState{}
		s.seen[src] = m
	}
	if st, ok := m[seq]; ok {
		if st.answered {
			return st, true
		}
		return nil, true
	}
	if newest := s.newest[src]; newest > dedupWindow && seq < newest-dedupWindow {
		// An ancient duplicate whose state was already pruned: it can only
		// be a replay of a request answered long ago (the client moved on
		// hundreds of sequence numbers), so swallow it rather than treat it
		// as fresh and re-dispatch the handler.
		return nil, true
	}
	m[seq] = &reqState{}
	if seq > s.newest[src] {
		s.newest[src] = seq
		// Prune states that have fallen out of the duplicate window so the
		// cache stays bounded over long many-timestep runs.
		if seq > dedupWindow {
			for old := range m {
				if old < seq-dedupWindow {
					delete(m, old)
				}
			}
		}
	}
	return nil, false
}

// Pending reports whether a request is waiting (for multiplexing several
// servers on one thread).
func (s *Server) Pending() bool {
	_, ok := s.IC.Iprobe(mpi.AnySource, tagRequest)
	return ok
}
