package mpi

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lowfive/internal/buf"
	"lowfive/internal/spin"
	"lowfive/trace"
)

// Fault injection ("chaos") layer. A FaultPlan attached to a World with
// WithFaultPlan perturbs tagged user messages — delaying, dropping,
// duplicating or corrupting them — and can crash a rank outright at its
// Nth matching send or receive. Rules may also be scoped to a single
// src→dst link (FaultRule.Dst) and model degraded links rather than lost
// messages: FaultPartition severs a link for a duration and then heals it,
// FaultThrottle caps its bandwidth. Injection is seeded and deterministic
// per rank: the same plan over the same message sequence makes the same
// decisions, so a failing chaos run can be replayed. (Link actions deliver
// asynchronously, so their arrival interleaving is scheduler-dependent;
// the layers above tolerate reordering.)
//
// Only user traffic (non-negative tags) is ever perturbed. Internal
// collective messages use reserved negative tags and are exempt, because
// the collectives have no retry protocol — chaos there would turn every
// run into a deadlock instead of exercising the recovery paths layered
// above point-to-point messaging (RPC retries, replica re-routing, file
// fallback).

// FaultAction is the kind of perturbation a FaultRule injects.
type FaultAction uint8

const (
	// FaultDelay delivers the message Rule.Delay late. The sender is not
	// stalled — delay models link latency, not head-of-line blocking — so a
	// delayed message to one peer never holds up traffic to another, and
	// two messages given the same delay may arrive reordered.
	FaultDelay FaultAction = iota
	// FaultDrop discards the message; the receiver never sees it.
	FaultDrop
	// FaultDuplicate delivers the message twice.
	FaultDuplicate
	// FaultCorrupt flips bytes in a copy of the payload before delivery
	// (the original buffer is never modified — it may be shared zero-copy).
	FaultCorrupt
	// FaultCrash kills the rank at the matching operation: the rank is
	// marked failed, peers blocked on it get a RankFailedError, and the
	// rank's goroutine terminates.
	FaultCrash
	// FaultHang parks the rank at the matching operation without marking it
	// failed: peers see a live-but-silent rank, the scenario heartbeat
	// detection exists for. The rank wakes (and dies) only when the
	// supervisor declares it failed or the world aborts.
	FaultHang
	// FaultPartition silently drops all matching traffic for Rule.Duration,
	// measured from the rule's first armed match, then heals: later matches
	// pass untouched. Scoped with Dst it severs one src→dst link; an
	// asymmetric partition is one direction only (the reverse link needs its
	// own rule). Count and Prob are ignored — a partition is a condition of
	// the link, not a per-message coin flip.
	FaultPartition
	// FaultThrottle caps a link at Rule.Bandwidth bytes per second: each
	// matching message is delivered when the link has transmitted it, so big
	// frames on a slow link take proportionally long. Deliveries on one
	// throttled link are serialized FIFO (no overtaking); the sender is
	// never stalled.
	FaultThrottle
)

// String names the action (for trace instants and error messages).
func (a FaultAction) String() string {
	switch a {
	case FaultDelay:
		return "delay"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultCorrupt:
		return "corrupt"
	case FaultCrash:
		return "crash"
	case FaultHang:
		return "hang"
	case FaultPartition:
		return "partition"
	case FaultThrottle:
		return "throttle"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// AnyRank matches every world rank in a FaultRule.
const AnyRank = -1

// DstRank encodes a world rank for FaultRule.Dst, which keeps its zero
// value meaning "any destination" (so pre-link plans are unchanged) while
// still letting a rule scope to destination rank 0.
func DstRank(r int) int { return r + 1 }

// FaultRule arms one fault. A rule matches an operation when the acting
// rank, the message tag and the operation kind all match; the rule then
// counts matching operations, lets After of them pass untouched, and fires
// on subsequent ones (each with probability Prob, at most Count times).
type FaultRule struct {
	// Action is the perturbation to inject.
	Action FaultAction
	// Rank is the world rank whose operations the rule applies to
	// (AnyRank for all). For message faults this is the sender.
	Rank int
	// Dst scopes a message fault to one destination world rank, making the
	// rule a link fault (Rank→Dst). Zero matches every destination; use
	// DstRank to name a specific one. Receive-side rules (OnRecv) have no
	// destination and never match a Dst-scoped rule.
	Dst int
	// Tag matches the message tag: a specific user tag, or AnyTag for
	// every user tag. Internal (negative) tags never match.
	Tag int
	// OnRecv makes the rule count and fire on receive operations instead
	// of sends. Only meaningful for FaultCrash (message perturbations are
	// injected sender-side).
	OnRecv bool
	// After is the number of matching operations that pass untouched
	// before the rule arms ("crash at the Nth send" = After: N-1).
	After int
	// Count caps how many times the rule fires; 0 means unlimited.
	// Bounding Count makes a lossy plan deterministically survivable:
	// a retry budget larger than Count cannot be exhausted.
	Count int
	// Prob is the probability an armed rule fires on a matching
	// operation; outside (0,1) the rule always fires.
	Prob float64
	// Delay is the injected latency for FaultDelay.
	Delay time.Duration
	// Duration is how long a FaultPartition stays severed, measured from
	// the rule's first armed match; afterwards the link heals. Zero never
	// heals.
	Duration time.Duration
	// Bandwidth is the FaultThrottle link capacity in bytes per second.
	Bandwidth float64
}

// FaultPlan is a seeded set of fault rules for one run.
type FaultPlan struct {
	// Seed derives the per-rank random streams for probabilistic rules.
	Seed int64
	// Rules are evaluated in order; the first rule that fires on an
	// operation decides its fate.
	Rules []FaultRule
}

// WithFaultPlan attaches a fault-injection plan to the world.
func WithFaultPlan(plan FaultPlan) Option {
	return func(w *World) { w.faultPlan = &plan }
}

// corrupts reports whether any rule of the plan flips payload bytes.
func (p FaultPlan) corrupts() bool {
	for _, r := range p.Rules {
		if r.Action == FaultCorrupt {
			return true
		}
	}
	return false
}

// Intact reports whether every payload the world delivers arrives exactly
// as it was sent. The chan engine hands a payload over by reference, and
// the sock engine checks a CRC-32C on every frame and resends what fails
// it, so only an attached FaultPlan with a FaultCorrupt rule makes it
// false; a sock WirePlan does not. The plan is fixed when the world is
// built and shared by every rank of a run, so all ranks agree and the
// answer never changes. Layers above use it to skip end-to-end checksums
// that could only ever catch injected corruption.
func (w *World) Intact() bool { return w.intact }

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

// faultState is the runtime of an attached plan: per-rank op counters and
// random streams, per-rule firing counts. One mutex guards it all — chaos
// runs are about semantics, not peak message rate.
type faultState struct {
	plan FaultPlan

	mu        sync.Mutex
	rngs      []*rand.Rand // per world rank
	matched   [][]uint64   // [rule][rank]: matching ops seen
	fired     []int        // [rule]: total firings
	partStart []time.Time  // [rule]: when a FaultPartition began (zero: not yet)
	links     map[linkKey]*linkState
}

// linkKey identifies one throttled src→dst link under one rule.
type linkKey struct{ rule, src, dst int }

// linkState serializes the asynchronous deliveries of one throttled link:
// freeAt is when the link finishes transmitting everything queued so far,
// and last is closed when the most recently queued message has been
// delivered, so the next delivery can preserve FIFO order.
type linkState struct {
	freeAt time.Time
	last   chan struct{}
}

func newFaultState(plan FaultPlan, size int) *faultState {
	fs := &faultState{
		plan:      plan,
		rngs:      make([]*rand.Rand, size),
		matched:   make([][]uint64, len(plan.Rules)),
		fired:     make([]int, len(plan.Rules)),
		partStart: make([]time.Time, len(plan.Rules)),
	}
	for r := range fs.rngs {
		mix := int64(uint64(0x9e3779b97f4a7c15) * uint64(r+1))
		fs.rngs[r] = rand.New(rand.NewSource(plan.Seed ^ mix))
	}
	for i := range fs.matched {
		fs.matched[i] = make([]uint64, size)
	}
	return fs
}

// decide evaluates the plan for one operation and returns the rule that
// fires (and its index, for per-rule link state), if any. dst is the
// destination world rank for send operations and -1 for receives, where
// Dst-scoped rules never match.
func (fs *faultState) decide(rank, dst, tag int, recv bool) (FaultRule, int, bool) {
	if tag < 0 {
		return FaultRule{}, -1, false // internal collective traffic is exempt
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i, rule := range fs.plan.Rules {
		if rule.OnRecv != recv {
			continue
		}
		if rule.Rank != AnyRank && rule.Rank != rank {
			continue
		}
		if rule.Dst != 0 && rule.Dst != DstRank(dst) {
			continue
		}
		if rule.Tag != AnyTag && rule.Tag != tag {
			continue
		}
		fs.matched[i][rank]++
		if fs.matched[i][rank] <= uint64(rule.After) {
			continue
		}
		if rule.Action == FaultPartition {
			// A partition is a time window on the link, not a counted
			// per-message fault: it opens at the first armed match and
			// closes (heals) Duration later. Count and Prob do not apply.
			if fs.partStart[i].IsZero() {
				fs.partStart[i] = time.Now()
			}
			if rule.Duration > 0 && time.Since(fs.partStart[i]) >= rule.Duration {
				continue // healed
			}
			fs.fired[i]++
			return rule, i, true
		}
		if rule.Count > 0 && fs.fired[i] >= rule.Count {
			continue
		}
		if rule.Prob > 0 && rule.Prob < 1 && fs.rngs[rank].Float64() >= rule.Prob {
			continue
		}
		fs.fired[i]++
		return rule, i, true
	}
	return FaultRule{}, -1, false
}

// throttleSlot books one message onto a throttled link and returns its
// delivery schedule: at is when the link finishes transmitting it, after is
// the previous delivery's completion (nil for the first message, closed
// channels preserve FIFO), and done must be closed once this delivery lands.
func (fs *faultState) throttleSlot(rule, src, dst, bytes int, bw float64) (at time.Time, after <-chan struct{}, done chan struct{}) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.links == nil {
		fs.links = map[linkKey]*linkState{}
	}
	k := linkKey{rule: rule, src: src, dst: dst}
	ls := fs.links[k]
	if ls == nil {
		ls = &linkState{}
		fs.links[k] = ls
	}
	start := time.Now()
	if ls.freeAt.After(start) {
		start = ls.freeAt
	}
	if bw <= 0 {
		bw = 1
	}
	at = start.Add(time.Duration(float64(bytes) / bw * float64(time.Second)))
	ls.freeAt = at
	after = ls.last
	done = make(chan struct{})
	ls.last = done
	return at, after, done
}

// corrupt returns a copy of data with up to four bytes flipped at seeded
// positions. A zero-length payload is returned unchanged (nothing to flip).
func (fs *faultState) corrupt(rank int, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	fs.mu.Lock()
	rng := fs.rngs[rank]
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		out[rng.Intn(len(out))] ^= 0xff
	}
	fs.mu.Unlock()
	return out
}

// faultSend runs the plan against an outgoing message on the sender's
// world rank and disposes of it: delivered now (possibly corrupted or
// twice), delivered later on another goroutine (delay, throttle), or never
// (drop, partition — the payload is released back to its pool). The clean
// path (no rule fires — the overwhelmingly common case) delivers data by
// reference with no copy. A firing crash rule does not return: the rank
// dies by panic.
func (w *World) faultSend(worldSrc, worldDst int, m *message, tr *trace.Track) {
	rule, idx, fire := w.fault.decide(worldSrc, worldDst, m.Tag, false)
	if !fire {
		w.deliver(worldDst, m)
		return
	}
	w.noteFault()
	if tr != nil {
		tr.Instant("fault", "fault."+rule.Action.String(),
			trace.I64("tag", int64(m.Tag)), trace.I64("dst", int64(worldDst)),
			trace.I64("bytes", int64(len(m.Data))))
	}
	switch rule.Action {
	case FaultDelay:
		w.deliverAsync(worldDst, m, time.Now().Add(rule.Delay), nil, nil)
	case FaultThrottle:
		at, after, done := w.fault.throttleSlot(idx, worldSrc, worldDst, len(m.Data), rule.Bandwidth)
		w.deliverAsync(worldDst, m, at, after, done)
	case FaultDrop, FaultPartition:
		buf.Release(m.Data)
	case FaultDuplicate:
		// The second delivery gets its own copy: the two receives are
		// released independently, so they must not share a pooled chunk.
		dup := append([]byte(nil), m.Data...)
		w.deliver(worldDst, m)
		w.deliver(worldDst, &message{CommID: m.CommID, Src: m.Src, WorldSrc: m.WorldSrc, Tag: m.Tag, Data: dup})
	case FaultCorrupt:
		out := w.fault.corrupt(worldSrc, m.Data)
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

// deliverAsync delivers m to worldDst at the given time on its own
// goroutine, modeling in-flight bytes on a slow link: the sender has
// already returned. after (if non-nil) is awaited first so a throttled
// link's deliveries cannot overtake each other; done (if non-nil) is closed
// once this delivery lands, even if the world aborted meanwhile (in which
// case the payload returns to its pool).
func (w *World) deliverAsync(worldDst int, m *message, at time.Time, after <-chan struct{}, done chan struct{}) {
	go func() {
		if done != nil {
			defer close(done)
		}
		defer func() {
			if r := recover(); r != nil {
				if !IsHaltPanic(r) {
					panic(r)
				}
				buf.Release(m.Data) // aborted world: nobody will receive it
			}
		}()
		if after != nil {
			<-after
		}
		if d := time.Until(at); d > 0 {
			spin.Wait(d)
		}
		w.deliver(worldDst, m)
	}()
}

// injectRecv runs the plan against a receive operation (crash rules only —
// message perturbations are sender-side).
func (w *World) injectRecv(worldRank, tag int, tr *trace.Track) {
	rule, _, fire := w.fault.decide(worldRank, -1, tag, true)
	if !fire {
		return
	}
	w.noteFault()
	if tr != nil {
		tr.Instant("fault", "fault."+rule.Action.String(), trace.I64("tag", int64(tag)))
	}
	switch rule.Action {
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
