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
// server recognizes it. A retry of a request the server still holds
// unanswered (parked until its answer can be built) gets a pending reply,
// which the client counts as progress, so a held request spends none of
// its client's retries. Dedup is kept only for a request that can arrive
// twice: one its client may re-send (a client with a Timeout), or any
// request on a world that can copy a message (mpi.Intercomm.DeliversOnce
// false). A client without a Timeout marks its seqs, and on a world that
// delivers once the server hands such a request out with no bookkeeping.
// A notification (Notify) is never answered: its seq carries a mark the
// server strips for dedup and obeys on every answer path, so no response
// nobody reads piles up in a client's mailbox. The CRC covers the seq as
// well as the deadline and body. Integrity is asked of the world, not
// re-checked: the CRC is computed and verified only when
// mpi.Intercomm.Intact reports that the world can corrupt payloads (a
// FaultPlan with a FaultCorrupt rule), and then a corrupted payload is
// discarded as if lost. On an intact world — the chan engine hands
// payloads over by reference, the sock engine checks and resends every
// wire frame itself — the CRC field is 0 and no checksum pass runs. With a
// Timeout configured, Call bounds each attempt and retries with
// exponential backoff; a Budget bounds the whole call end to end, and the
// deadline travels in the envelope so a server receiving a request whose
// budget is already spent rejects it without dispatching work no one
// awaits. CallHedged races the primary against a replica after a hedge
// delay, the tail-latency defense of Dean & Barroso's "The Tail at Scale".
// A crashed peer surfaces as a typed error instead of a hang.
//
// Every call shape — Call and CallAll, CallHedged, a stream's Drain and
// Discard — waits in one attempt loop (call.wait), which owns each rule
// once: the attempt deadline clamped to the Budget, resend under the same
// seq, retry backoff, shed handling, breaker feedback, waiting out a
// crashed peer under RetryFailed, and the typed errors. The loop blocks in
// one deadline-aware receive (mpi.Intercomm.RecvUntil) and never polls:
// without a Timeout it blocks until answered, with one it wakes at the
// attempt's deadline.
package rpc

import (
	"encoding/binary"
	"errors"
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

	// notifyBit marks the envelope seq of a notification (Notify). The
	// server never answers a marked request, so no unread response is left
	// in the client's mailbox.
	notifyBit = 1 << 63
	// onceBit marks the envelope seq of a request its client never re-sends
	// to the same server (a client without a Timeout). On a world that
	// delivers each message once (mpi.Intercomm.DeliversOnce) nothing can
	// duplicate such a request, so the server keeps no dedup state for it.
	onceBit = 1 << 62
	// marks are stripped from a seq for every piece of the server's dedup
	// bookkeeping; answers echo the marked seq, so client matching sees the
	// seq it sent. Sequence numbers never reach 2^62.
	marks = notifyBit | onceBit

	// pendingMark in a response envelope's deadline field marks a pending
	// reply: the server holds the request and will answer it. An answer
	// carries 0 there and a shed reply a negative RetryAfter.
	pendingMark = 1
)

// checksum is the envelope CRC: one pass over everything but the CRC field
// itself — the seq [0:8], then the deadline and body [12:]. It is a
// variable so tests can count how many passes the rpc path makes.
var checksum = func(env []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(env[:8]), crc32.IEEETable, env[12:])
}

// seal wraps a body in the wire envelope: sequence number, CRC, and the
// call's absolute end-to-end deadline (UnixNano; 0 means unbounded). The
// CRC covers the seq and the deadline too, so a corrupted seq or deadline
// is discarded as lost rather than misrouting a response, turning a call
// into a notification, or silently extending or expiring a request. On an
// intact world (mpi.Intercomm.Intact) the CRC field is left 0: nothing
// between sender and receiver can change the bytes, so the pass would
// catch nothing. Deadlines are absolute because all ranks share one process
// clock; a multi-node port would carry the remaining budget instead.
func seal(intact bool, seq uint64, deadline int64, body []byte) []byte {
	buf := make([]byte, headerLen+len(body))
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint64(buf[12:], uint64(deadline))
	copy(buf[headerLen:], body)
	if !intact {
		binary.LittleEndian.PutUint32(buf[8:], checksum(buf))
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
	if !intact && checksum(msg) != binary.LittleEndian.Uint32(msg[8:]) {
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
	// Without a Timeout a call never re-sends its request to the server it
	// addressed, so on a world that delivers each message once the server
	// skips its dedup bookkeeping for the client's requests. A request is
	// marked for that when it is sent, so change Timeout only while no call
	// or stream of the client is outstanding.
	Timeout time.Duration
	// Retries is how many times a timed-out attempt is resent.
	Retries int
	// Backoff is the wait after the first timed-out attempt; it doubles per
	// retry. Zero means retry immediately.
	Backoff time.Duration
	// RetryFailed keeps waiting when the addressed peer has crashed instead
	// of failing the call immediately: under a supervised workflow the peer
	// may be torn down and relaunched, and a retried request (sends to a
	// dead rank are silently dropped) reaches the fresh incarnation. The
	// call still fails once the retry budget is spent with the peer down,
	// with a *CallError wrapping mpi.RankFailedError — so the budget bounds
	// how long a restart may take. The wait is a blocking receive, so the
	// waiting rank never looks hung to heartbeat detection. Requires a
	// Timeout; the fail-stop path ignores it.
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

// nextSeq draws the seq of a new request, marked with onceBit when the
// client has no Timeout and so never re-sends it to the same server: a shed
// resend goes to a server that has forgotten the seq, and a hedge goes to
// another server.
func (c *Client) nextSeq() uint64 {
	c.mu.Lock()
	c.seq++
	s := c.seq
	c.mu.Unlock()
	if c.Timeout <= 0 {
		s |= onceBit
	}
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
	cl := c.newCall(dest, c.nextSeq(), c.deadline(), req)
	cl.post(dest)
	resp, _, err := cl.await()
	return resp, err
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
		cl := c.newCall(d, seqs[i], dl, req)
		resp, _, err := cl.await()
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
// that acknowledges. The server dispatches a notification like any request
// but never answers it, even when its handler responds, so nothing is left
// unread in this client's mailbox.
func (c *Client) Notify(dest int, req []byte) {
	// No deadline: a notification with no reply has no caller to give up,
	// so the server must never reject it as expired.
	c.IC.Send(dest, tagRequest, seal(c.IC.Intact(), c.nextSeq()|notifyBit, 0, req))
}

// CallHedged sends req to dest and, if no response arrives within
// HedgeDelay, or dest is observed down or sheds the call, also to hedge —
// racing the primary against a replica so one straggling or partitioned
// rank cannot hold the call to its full timeout. The first valid response
// wins and is returned with the rank that produced it; the loser's late
// response is discarded by sequence matching on a later call. The delay
// defaults to a quarter of Timeout, so without either the hedge goes out
// only on a crash or a shed. A hedge equal to dest degrades to a plain
// Call.
func (c *Client) CallHedged(dest, hedge int, req []byte) (resp []byte, winner int, err error) {
	if hedge == dest {
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
	cl := c.newCall(dest, c.nextSeq(), c.deadline(), req)
	cl.to[1], cl.want = hedge, 2
	cl.post(dest)
	hd := c.HedgeDelay
	if hd <= 0 {
		hd = c.Timeout / 4
	}
	if hd > 0 {
		cl.hedgeAt = time.Now().Add(hd)
	}
	resp, winner, err = cl.await()
	if err != nil {
		return nil, dest, err
	}
	if winner == hedge {
		c.hedgeWins.Add(1)
		c.mHedgeWin.Inc()
	}
	return resp, winner, nil
}

// call is one request's progress through the client's wait loop. Every
// call shape — Call and CallAll, CallHedged, a stream's Drain and Discard —
// runs the same loop and differs only in what it does with each response
// and in the few policy fields below.
type call struct {
	c        *Client
	req      []byte
	seq      uint64
	overall  int64  // envelope deadline, UnixNano; 0 when the client has no Budget
	to       [2]int // ranks the request goes to: the primary, then a hedge
	n, want  int    // targets sent to so far, and allowed (2 for a hedged call)
	start    time.Time
	attempts int
	backoff  time.Duration
	deadline time.Time            // the attempt's end; zero blocks until answered
	hedgeAt  time.Time            // when a pending hedge goes out unprompted (zero: never)
	down     *mpi.RankFailedError // every target crashed this attempt and RetryFailed waits it out
	ss       shedState
	shedRA   time.Duration // the primary's last shed this attempt, for a hedged call's error
	discard  bool          // Discard: a quiet attempt, a shed or a crash ends the wait, silently
	idx      uint32        // a stream's next frame index; re-asking a crashed peer rewinds it
}

// newCall prepares a call of req to dest under seq. The caller posts the
// request.
func (c *Client) newCall(dest int, seq uint64, overall int64, req []byte) call {
	return call{c: c, req: req, seq: seq, overall: overall, to: [2]int{dest}, n: 1, want: 1, attempts: 1, backoff: c.Backoff}
}

// post sends the call's request to dest (again, on a retry: the server
// deduplicates by seq).
func (cl *call) post(dest int) {
	cl.c.IC.Send(dest, tagRequest, seal(cl.c.IC.Intact(), cl.seq, cl.overall, cl.req))
}

// begin starts the first attempt; a stream's clock already runs from
// StartStream.
func (cl *call) begin() {
	cl.c.instruments()
	if cl.start.IsZero() {
		cl.start = time.Now()
	}
	cl.arm()
}

// observe records the finished call on the metrics plane.
func (cl *call) observe() { cl.c.observe(cl.req, cl.start, cl.attempts) }

// arm starts an attempt: its deadline is Timeout from now, clamped to the
// Budget. Without a Timeout there is no deadline, so the call blocks until
// answered and never resends.
func (cl *call) arm() {
	if cl.c.Timeout <= 0 {
		return
	}
	cl.deadline = time.Now().Add(cl.c.Timeout)
	if cl.overall != 0 {
		if od := time.Unix(0, cl.overall); od.Before(cl.deadline) {
			cl.deadline = od
		}
	}
}

// await waits for a scalar call's response body and the rank that sent it.
func (cl *call) await() (body []byte, src int, err error) {
	cl.begin()
	defer cl.observe()
	_, body, src, err = cl.wait()
	if err != nil {
		return nil, src, err
	}
	cl.c.breakerOnSuccess(src, cl.req)
	return body, src, nil
}

// wait is the client's one wait loop. It blocks until a response carrying
// the call's seq arrives and returns it — the caller owns msg, which body
// aliases — or returns the call's final error. On the way it releases
// stale and corrupt messages, handles sheds, sends a pending hedge, waits
// out crashed targets under RetryFailed, and ends each quiet attempt
// through retry.
func (cl *call) wait() (msg, body []byte, src int, err error) {
	c := cl.c
	for {
		msg, src, ok, down := cl.recv()
		switch {
		case down != nil:
			switch {
			case cl.n < cl.want:
				cl.sendHedge() // the primary is gone; the hedge may still answer
			case cl.discard:
				return nil, nil, src, down
			case c.RetryFailed && !cl.deadline.IsZero():
				cl.down = down // a supervisor may relaunch it: wait out the attempt
			default:
				c.breakerOnFailure(cl.to[0], cl.req)
				return nil, nil, src, cl.callError(down)
			}
		case ok:
			rseq, rdl, body, valid := unseal(c.IC.Intact(), msg)
			if !valid || rseq != cl.seq {
				// Stale or corrupt — possibly a pooled frame from an
				// abandoned stream; recycle it.
				buf.Release(msg)
				continue
			}
			if rdl == pendingMark {
				// The server holds the request: nothing was lost, so this
				// is a fresh attempt, still within the Budget, the way
				// each stream frame is. A hedge keeps its timer.
				buf.Release(msg)
				cl.attempts, cl.backoff = 1, c.Backoff
				cl.arm()
				continue
			}
			ra, shed := shedRetryAfter(rdl)
			if !shed {
				return msg, body, src, nil
			}
			buf.Release(msg)
			if err := cl.shed(src, ra); err != nil {
				return nil, nil, src, err
			}
		case cl.n < cl.want && !cl.hedgeAt.IsZero() && !time.Now().Before(cl.hedgeAt):
			cl.sendHedge()
		default:
			if err := cl.retry(); err != nil {
				return nil, nil, cl.to[0], err
			}
		}
	}
}

// recv is one blocking receive on the call's targets, until the attempt
// deadline or a pending hedge's send time. Waiting out crashed targets, it
// blocks on no source at all, so the rank still counts as blocked in a
// receive and heartbeat hang detection leaves it alone. A crash of every
// target comes back as down rather than a panic.
func (cl *call) recv() (msg []byte, src int, ok bool, down *mpi.RankFailedError) {
	defer func() {
		if r := recover(); r != nil {
			rf, isRF := r.(*mpi.RankFailedError)
			if !isRF {
				panic(r)
			}
			down = rf
		}
	}()
	srcs, until := cl.to[:cl.n], cl.deadline
	if cl.down != nil {
		srcs = nil
	}
	if cl.n < cl.want && !cl.hedgeAt.IsZero() && (until.IsZero() || cl.hedgeAt.Before(until)) {
		until = cl.hedgeAt
	}
	msg, st, ok := cl.c.IC.RecvUntil(srcs, tagResponse, until)
	return msg, st.Source, ok, nil
}

// sendHedge races the hedge rank against the primary.
func (cl *call) sendHedge() {
	c := cl.c
	c.hedged.Add(1)
	c.mHedged.Inc()
	if c.Track != nil {
		c.Track.Instant("rpc", "rpc.hedge",
			trace.I64("primary", int64(cl.to[0])), trace.I64("hedge", int64(cl.to[1])))
	}
	cl.post(cl.to[1])
	cl.n = 2
}

// shed handles an overloaded reply from src. Discard stops; a hedged call
// counts it, feeds src's breaker and races on, sending the hedge if the
// primary shed; any other call backs off and resends through handleShed,
// restarting the attempt clock because a shed proves the server alive.
func (cl *call) shed(src int, ra time.Duration) error {
	c := cl.c
	switch {
	case cl.discard:
		return errGaveUp
	case cl.want > 1:
		cl.ss.sheds++
		c.noteShed(src)
		c.breakerOnFailure(src, cl.req)
		if src == cl.to[0] {
			cl.shedRA = ra
			if cl.n < cl.want {
				cl.sendHedge()
			}
		}
		return nil
	}
	retry, err := c.handleShed(&cl.ss, src, cl.seq, cl.overall, ra, cl.req)
	if retry {
		cl.arm()
	}
	return err
}

// retry ends an attempt whose deadline passed unanswered. The call fails
// once its retries or its Budget are spent — with the crash it waited out,
// the primary's last shed, or a timeout — and otherwise backs off and
// resends to every target under the same seq. Discard gives up at once.
func (cl *call) retry() error {
	c := cl.c
	if cl.discard {
		return errGaveUp
	}
	spent := cl.overall != 0 && time.Now().UnixNano() >= cl.overall
	if cl.attempts > c.Retries || spent {
		c.timeouts.Add(1)
		c.mTimeouts.Inc()
		for _, d := range cl.to[:cl.n] {
			c.breakerOnFailure(d, cl.req)
		}
		switch {
		case cl.down != nil:
			return cl.callError(cl.down)
		case cl.shedRA > 0:
			// The primary's last word was a shed, not silence: surface the
			// overload (with its backoff hint) rather than a timeout.
			return &OverloadedError{Dest: cl.to[0], RetryAfter: cl.shedRA, Sheds: cl.ss.sheds}
		}
		return cl.callError(&TimeoutError{Dest: cl.to[0], Timeout: c.Timeout, Attempts: cl.attempts, Elapsed: time.Since(cl.start)})
	}
	if cl.backoff > 0 {
		spin.Wait(cl.backoff)
		cl.backoff *= 2
	}
	if cl.down != nil {
		// Re-asking a peer that crashed (and may have been relaunched by a
		// supervisor) restarts a stream's cursor too: a restarted producer
		// may segment the re-streamed response differently (its rejoined
		// triples need not match the originals), so skipping "already
		// consumed" indices could skip regions the new segmentation packs
		// there. Re-consuming is safe — streamed frames are self-describing
		// box-addressed scatters, applied in stream order. Plain loss
		// recovery keeps the cursor: the re-stream is identical and
		// consumed indices are skipped.
		cl.idx = 0
	}
	cl.down, cl.shedRA = nil, 0
	for _, d := range cl.to[:cl.n] {
		c.noteRetry(d, cl.attempts)
		cl.post(d)
	}
	cl.attempts++
	cl.arm()
	return nil
}

// callError wraps a failure of the call with its primary rank.
func (cl *call) callError(err error) error {
	return &CallError{Dest: cl.to[0], Attempts: cl.attempts, Elapsed: time.Since(cl.start), Err: err}
}

// errGaveUp ends a Discard; nobody sees it.
var errGaveUp = errors.New("rpc: discard gave up")

// Handler processes one request from remote rank src. Returning a nil
// response with respond=false means the request was a one-way notification.
type Handler func(src int, req []byte) (resp []byte, respond bool)

// reqState tracks one (src, seq) request through the server: held (seen but
// not yet answered: in flight or parked), or answered with a cached
// response. The zero state is neither: a request out of the dedup window.
type reqState struct {
	held     bool
	answered bool
	resp     []byte
}

// Server answers requests arriving on an intercommunicator. It deduplicates
// by (source, sequence) the requests that can arrive twice — those whose
// client may re-send them (a client with a Timeout), and every request on a
// world with a FaultDuplicate rule: a duplicate of an already-answered
// request gets the cached response resent, and a duplicate of one still
// held (in flight or parked) gets a pending reply, so client retries are
// idempotent and a request held past its client's timeout does not spend
// the client's retries. A request that can arrive only once is handed out
// with no bookkeeping at all. A notification (Notify) is never answered:
// the seq Recv returns for it keeps its mark, and Respond,
// RespondOverloaded, a Stream, the duplicate replay and the pending reply
// all send nothing for a marked seq.
type Server struct {
	IC      *mpi.Intercomm
	Handler Handler

	// Metrics, when set, counts deadline-rejected requests as
	// "rpc.server.deadline_rejected".
	Metrics *metrics.Registry

	mu     sync.Mutex
	seen   map[int]map[uint64]reqState
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
// caller: an answered request's is answered from the cache, a held one's
// with a pending reply.
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
		if !s.dedups(rseq) {
			return st.Source, rseq, body
		}
		if cached, dup := s.register(st.Source, rseq); dup {
			switch {
			case rseq&notifyBit != 0:
				// A notification is never answered.
			case cached.answered:
				// Already answered: replay the response for the retry.
				s.IC.Send(st.Source, tagResponse, seal(s.IC.Intact(), rseq, 0, cached.resp))
			case cached.held:
				// Held: the answer is coming, the client's timer is not.
				s.IC.Send(st.Source, tagResponse, seal(s.IC.Intact(), rseq, pendingMark, nil))
			}
			continue
		}
		return st.Source, rseq, body
	}
}

// Respond sends a response for a request previously obtained via Recv and,
// if the server dedups the request, caches it so duplicates of the request
// replay it. For a notification it only marks the request answered and
// sends nothing.
func (s *Server) Respond(src int, seq uint64, resp []byte) {
	if s.dedups(seq) {
		s.answer(src, seq, resp)
	}
	if seq&notifyBit != 0 {
		return
	}
	s.IC.Send(src, tagResponse, seal(s.IC.Intact(), seq, 0, resp))
}

// dedups reports whether the server keeps dedup state for a request: every
// request but one its client never re-sends, on a world that never copies a
// message.
func (s *Server) dedups(seq uint64) bool {
	return seq&onceBit == 0 || !s.IC.DeliversOnce()
}

// register records a (src, seq) sighting. It returns dup=true when the
// request was seen before; cached.answered is set when it was already
// answered, cached.held when it still awaits its answer. Per source it
// holds at most 2*dedupWindow+1 entries and costs O(1) amortized: a sweep
// runs only once the map has doubled past the window, and then deletes at
// least dedupWindow entries.
func (s *Server) register(src int, seq uint64) (cached reqState, dup bool) {
	seq &^= marks
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen == nil {
		s.seen = map[int]map[uint64]reqState{}
		s.newest = map[int]uint64{}
	}
	newest := s.newest[src]
	if newest > dedupWindow && seq < newest-dedupWindow {
		// An ancient duplicate, out of the window whether or not a sweep
		// has deleted its state yet: it can only be a replay of a request
		// answered long ago (the client moved on hundreds of sequence
		// numbers), so swallow it rather than replay or re-dispatch it.
		return reqState{}, true
	}
	m := s.seen[src]
	if m == nil {
		m = map[uint64]reqState{}
		s.seen[src] = m
	}
	if st, ok := m[seq]; ok {
		return st, true
	}
	m[seq] = reqState{held: true}
	if seq > newest {
		newest = seq
		s.newest[src] = seq
	}
	if len(m) > 2*dedupWindow {
		// Sweep out the states behind the window so the cache stays bounded
		// over long many-timestep runs. Every key is distinct and at least
		// newest-dedupWindow survives, so at most dedupWindow+1 remain.
		for old := range m {
			if old < newest-dedupWindow {
				delete(m, old)
			}
		}
	}
	return reqState{}, false
}

// answer caches resp as the answer to a registered (src, seq) request, so a
// duplicate of it replays resp. A request the server no longer tracks is
// left alone.
func (s *Server) answer(src int, seq uint64, resp []byte) {
	seq &^= marks
	s.mu.Lock()
	if m := s.seen[src]; m != nil {
		if _, ok := m[seq]; ok {
			m[seq] = reqState{answered: true, resp: resp}
		}
	}
	s.mu.Unlock()
}

// Pending reports whether a request is waiting (for multiplexing several
// servers on one thread).
func (s *Server) Pending() bool {
	_, ok := s.IC.Iprobe(mpi.AnySource, tagRequest)
	return ok
}
