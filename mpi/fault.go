package mpi

import (
	"fmt"

	"lowfive/internal/buf"
	"lowfive/internal/transport"
	"lowfive/trace"
)

// Fault injection ("chaos") at the message layer. The vocabulary and the
// decision engine are transport's (transport.Plan, transport.Injector),
// shared with the sock engine's wire faults; this file applies the
// verdicts to messages. Only user traffic (non-negative tags) is
// perturbed, so the recovery paths above point-to-point messaging (RPC
// retries, replica re-routing, file fallback) are exercised instead of
// deadlocking the collectives, which have no retry protocol.

type (
	// FaultPlan is a seeded set of fault rules for one run.
	FaultPlan = transport.Plan
	// FaultRule arms one fault.
	FaultRule = transport.Rule
	// FaultAction is the kind of perturbation a FaultRule injects.
	FaultAction = transport.Action
)

// Fault actions; transport.Action documents each one.
const (
	FaultDelay     = transport.Delay
	FaultDrop      = transport.Drop
	FaultDuplicate = transport.Duplicate
	FaultCorrupt   = transport.Corrupt
	FaultCrash     = transport.Crash
	FaultHang      = transport.Hang
	FaultPartition = transport.Partition
	FaultThrottle  = transport.Throttle
	// FaultReset hard-closes a connection mid-write; wire plans only.
	FaultReset = transport.Reset
)

// AnyRank matches every world rank in a FaultRule.
const AnyRank = transport.AnyRank

// DstRank encodes world rank r for FaultRule.Dst, whose zero value means
// "any destination".
func DstRank(r int) int { return transport.DstRank(r) }

// WithFaultPlan attaches a fault-injection plan to the world's messages.
// For a rule the message layer cannot honour, NewWorld panics with a
// *transport.RuleError and NewSockWorld returns it.
func WithFaultPlan(plan FaultPlan) Option {
	return func(w *World) { w.faultPlan = &plan }
}

// Intact reports whether every payload the world delivers arrives exactly
// as it was sent. The chan engine hands a payload over by reference, and
// the sock engine checks a CRC-32C on every frame and resends what fails
// it, so only a FaultCorrupt rule attached with WithFaultPlan makes it
// false; the same rule in SockWorldConfig.Wire does not. The plan is fixed
// when the world is built and shared by every rank, so all ranks agree and
// the answer never changes. Layers above use it to skip end-to-end
// checksums that could only ever catch injected corruption.
func (w *World) Intact() bool { return w.intact }

// DeliversOnce reports whether the world delivers each message at most
// once. Only a FaultDuplicate rule attached with WithFaultPlan makes it
// false: the chan engine hands each message over once, the wire layer
// rejects duplicate rules, and a sock session numbers its frames and drops
// any it has already delivered, so it delivers exactly once across
// reconnects. Like Intact, the answer is fixed when the world is built and
// shared by every rank. Layers above use it to skip duplicate suppression
// for messages that only the world itself could copy.
func (w *World) DeliversOnce() bool { return w.once }

// RankFailedError is the typed failure delivered to a rank blocked on (or
// probing for) a message from a crashed peer, instead of letting the whole
// world sit in a deadlock until the watchdog fires. It propagates by panic
// through the blocking operation, exactly like AbortedError; fault-tolerant
// layers (the RPC client) recover it and surface it as an error value.
type RankFailedError struct {
	// Rank is the world rank that failed.
	Rank int
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed", e.Rank)
}

// rankCrashPanic terminates the goroutine of a rank that an injected
// FaultCrash killed. World.Run recognizes it and does not abort the world.
type rankCrashPanic struct{ rank int }

// IsHaltPanic reports whether a recovered panic value is one of the
// shutdown panics a helper goroutine performing MPI operations on behalf
// of a rank (a serve loop, an Isend) should swallow: an injected rank
// crash, a failed peer, or a world abort. Application code does not
// normally need this; layers that spawn such helpers do.
func IsHaltPanic(r any) bool {
	switch r.(type) {
	case rankCrashPanic, *RankFailedError, *AbortedError:
		return true
	}
	return false
}

// faultSend applies the plan's verdict to an outgoing message: delivered
// now (possibly corrupted or twice), later on another goroutine (delay,
// throttle), or never (drop, partition; the payload returns to its pool).
// The clean path delivers by reference with no copy. A crash does not
// return: the rank dies by panic.
func (w *World) faultSend(worldSrc, worldDst int, m message, tr *trace.Track) {
	v, fire := w.fault.Decide(worldSrc, worldDst, m.Tag, false, len(m.Data))
	if !fire {
		w.deliver(worldDst, m)
		return
	}
	w.noteFault()
	if tr != nil {
		tr.Instant("fault", "fault."+v.Action.String(),
			trace.I64("tag", int64(m.Tag)), trace.I64("dst", int64(worldDst)),
			trace.I64("bytes", int64(len(m.Data))))
	}
	switch v.Action {
	case FaultDelay, FaultThrottle:
		w.deliverAsync(worldDst, m, v)
	case FaultDrop, FaultPartition:
		buf.Release(m.Data)
	case FaultDuplicate:
		// The second delivery gets its own copy: the two receives are
		// released independently, so they must not share a pooled chunk.
		dup := append([]byte(nil), m.Data...)
		w.deliver(worldDst, m)
		w.deliver(worldDst, message{CommID: m.CommID, Src: m.Src, WorldSrc: m.WorldSrc, Tag: m.Tag, Data: dup})
	case FaultCorrupt:
		out := v.Flip(m.Data)
		buf.Release(m.Data)
		m.Data = out
		w.deliver(worldDst, m)
	case FaultCrash:
		// The rank dies mid-send and never delivers: the payload's pooled
		// chunk must return to its pool, exactly as deliver() releases a
		// message addressed to a dead rank.
		buf.Release(m.Data)
		w.crash(worldSrc)
	case FaultHang:
		// A hung rank never resumes the send either (it leaves only by
		// dying), so its undelivered payload is released the same way.
		buf.Release(m.Data)
		w.hang(worldSrc)
	default:
		w.deliver(worldDst, m)
	}
}

// deliverAsync delivers m to worldDst on its own goroutine once the verdict
// releases it, modeling in-flight bytes on a slow link: the sender has
// already returned. The verdict's Done is closed even if the world aborted
// meanwhile (the payload then returns to its pool).
func (w *World) deliverAsync(worldDst int, m message, v transport.Verdict) {
	go func() {
		if v.Done != nil {
			defer close(v.Done)
		}
		defer func() {
			if r := recover(); r != nil {
				if !IsHaltPanic(r) {
					panic(r)
				}
				buf.Release(m.Data) // aborted world: nobody will receive it
			}
		}()
		v.Hold()
		w.deliver(worldDst, m)
	}()
}

// injectRecv runs the plan against a receive operation (crash and hang
// rules only — message perturbations are sender-side).
func (w *World) injectRecv(worldRank, tag int, tr *trace.Track) {
	v, fire := w.fault.Decide(worldRank, -1, tag, true, 0)
	if !fire {
		return
	}
	w.noteFault()
	if tr != nil {
		tr.Instant("fault", "fault."+v.Action.String(), trace.I64("tag", int64(tag)))
	}
	switch v.Action {
	case FaultCrash:
		w.crash(worldRank)
	case FaultHang:
		w.hang(worldRank)
	}
}

// hang parks the calling rank's goroutine until something declares it dead:
// the supervisor's heartbeat marking the rank failed, or a world abort. The
// mailbox's waiting flag stays false, so the rank looks live-but-silent —
// deadlock detection cannot see it, only the heartbeat deadline can. The
// blocked counter is still incremented so the unsupervised watchdog covers
// a hang in worlds without a supervisor.
func (w *World) hang(worldRank int) {
	w.blocked.Add(1)
	defer w.blocked.Add(-1)
	w.failMu.Lock()
	ch := w.failedCh[worldRank]
	w.failMu.Unlock()
	select {
	case <-ch:
		panic(rankCrashPanic{rank: worldRank})
	case <-w.abortCh:
		panic(&AbortedError{Err: w.abortReason()})
	}
}

// crash marks the rank failed, wakes every blocked receiver so peers
// waiting on it observe the failure, and kills the calling goroutine.
func (w *World) crash(worldRank int) {
	w.markFailed(worldRank)
	panic(rankCrashPanic{rank: worldRank})
}

// markFailed records a rank failure and wakes all mailboxes so blocked
// operations re-check their peer. Under supervision it also pushes the rank
// onto the failure event stream the supervisor consumes; failMu serializes
// it against reviveRank so a failure and a revival cannot interleave on the
// same failedCh slot.
func (w *World) markFailed(worldRank int) {
	w.failMu.Lock()
	if w.failed[worldRank].Swap(true) {
		w.failMu.Unlock()
		return
	}
	w.crashed.Add(1)
	ch := w.failedCh[worldRank]
	events := w.failEvents
	w.failMu.Unlock()
	close(ch)
	if events != nil {
		select {
		case events <- worldRank:
		default:
			// The supervisor's buffer is full (it is draining); never block
			// a crashing rank's goroutine on event delivery.
			go func() { events <- worldRank }()
		}
	}
	for _, b := range w.boxes {
		b.wakeAll()
	}
}

// RankFailed reports whether a world rank has been crashed by fault
// injection.
func (w *World) RankFailed(worldRank int) bool {
	return w.failed[worldRank].Load()
}

// FailedRanks lists the world ranks that have crashed, in rank order.
func (w *World) FailedRanks() []int {
	var out []int
	for r := range w.failed {
		if w.failed[r].Load() {
			out = append(out, r)
		}
	}
	return out
}

// FailedChan returns a channel closed when the given world rank fails;
// layers parking a rank's main goroutine on an in-process condition (e.g.
// a serve session) select on it so an injected crash releases them. Read
// under failMu because reviveRank replaces the channel on restart.
func (w *World) FailedChan(worldRank int) <-chan struct{} {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failedCh[worldRank]
}
