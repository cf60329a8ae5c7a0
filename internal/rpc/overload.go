// Overload protection, client side of the wire contract: a saturated server
// sheds a request with a typed overloaded reply instead of queueing it
// unboundedly, and the client honors the carried RetryAfter with full-jitter
// backoff before resending — so a storm of consumers backs off instead of
// amplifying itself with blind retries.
//
// The shed reply reuses the response envelope: responses normally carry a
// zero deadline field (only requests are budget-checked), so a *negative*
// deadline is free wire space. RespondOverloaded seals an empty body whose
// deadline field holds -RetryAfter nanoseconds; the CRC covers it like any
// envelope, and the client's one wait loop recognizes it by sign for every
// call shape. No new message format, no collision with any legal
// response body.
package rpc

import (
	"fmt"
	"time"

	"lowfive/internal/backoff"
	"lowfive/internal/spin"
	"lowfive/trace"
)

// OverloadedError reports that the server shed the call under admission
// control: it refused to queue the request and told the caller when to come
// back.
type OverloadedError struct {
	// Dest is the remote rank that shed the call.
	Dest int
	// RetryAfter is the server's load-shedding hint: how long the caller
	// should back off before resending.
	RetryAfter time.Duration
	// Sheds is how many overloaded replies this call absorbed (including
	// the final one) before giving up.
	Sheds int
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("rpc: rank %d overloaded, shed %d time(s) (retry after %v)",
		e.Dest, e.Sheds, e.RetryAfter)
}

// BreakerOpenError is the typed fast-fail of an open circuit breaker: the
// destination rank shed or timed out enough consecutive calls that this
// client stops sending to it entirely until the cooldown elapses.
type BreakerOpenError struct {
	// Dest is the remote rank the breaker guards.
	Dest int
	// RetryAfter is the remaining cooldown before a half-open probe is
	// allowed.
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("rpc: circuit breaker open for rank %d (retry after %v)",
		e.Dest, e.RetryAfter.Round(time.Microsecond))
}

// minRetryAfter floors the advertised backoff so a shed reply can never
// instruct an immediate (hot-loop) resend.
const minRetryAfter = time.Millisecond

// RespondOverloaded sheds the (src, seq) request previously obtained from
// Recv: the client gets an empty-body reply whose envelope deadline is
// -retryAfter nanoseconds. The reply is not cached and the dedup entry is
// dropped, so a post-backoff resend of the same sequence number re-enters
// the server's dispatch (and admission) path instead of replaying the shed.
// A shed notification is only forgotten: nobody awaits its answer.
func (s *Server) RespondOverloaded(src int, seq uint64, retryAfter time.Duration) {
	if retryAfter < minRetryAfter {
		retryAfter = minRetryAfter
	}
	s.Forget(src, seq)
	if seq&notifyBit != 0 {
		return
	}
	s.IC.Send(src, tagResponse, seal(s.IC.Intact(), seq, -int64(retryAfter), nil))
}

// shedRetryAfter decodes the overload marker from a response envelope's
// deadline field: negative means shed, carrying -RetryAfter nanoseconds.
func shedRetryAfter(deadline int64) (time.Duration, bool) {
	if deadline >= 0 {
		return 0, false
	}
	return time.Duration(-deadline), true
}

// shedState tracks one call's absorbed sheds and its jittered backoff ramp.
// It is created lazily on the first shed so unshed calls pay nothing.
type shedState struct {
	sheds int
	bo    *backoff.Backoff
}

// wait sleeps out one shed: at least the server's RetryAfter, jittered
// upward by the full-jitter ramp so simultaneously-shed clients decorrelate.
func (ss *shedState) wait(retryAfter time.Duration, extra uint64) {
	if ss.bo == nil {
		ss.bo = backoff.New(retryAfter, 8*retryAfter, extra)
	}
	d := ss.bo.Next(time.Time{})
	if d < retryAfter {
		d = retryAfter
	}
	spin.Wait(d)
}

// handleShed processes one overloaded reply inside a receive loop: count it,
// feed the breaker, and either back off and resend (returning retry=true) or
// give up with the typed error. overall is the call's absolute end-to-end
// deadline (0 for none) — a call whose budget cannot absorb the backoff
// fails immediately rather than sleeping past its own deadline.
func (c *Client) handleShed(ss *shedState, dest int, seq uint64, overall int64, retryAfter time.Duration, req []byte) (retry bool, err error) {
	ss.sheds++
	c.noteShed(dest)
	opened := c.breakerOnFailure(dest, req)
	budgetSpent := overall != 0 && time.Now().Add(retryAfter).UnixNano() >= overall
	if ss.sheds > c.ShedRetries || opened || budgetSpent {
		return false, &OverloadedError{Dest: dest, RetryAfter: retryAfter, Sheds: ss.sheds}
	}
	ss.wait(retryAfter, seq)
	c.IC.Send(dest, tagRequest, seal(c.IC.Intact(), seq, overall, req))
	return true, nil
}

// noteShed counts one overloaded reply on the stats and metrics planes.
func (c *Client) noteShed(dest int) {
	c.sheds.Add(1)
	c.mSheds.Inc()
	if c.Track != nil {
		c.Track.Instant("rpc", "rpc.shed", trace.I64("dst", int64(dest)))
	}
}
