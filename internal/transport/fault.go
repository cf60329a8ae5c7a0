package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"lowfive/internal/spin"
)

// Fault injection ("chaos"), one vocabulary for the two places a Plan
// attaches: an mpi world's messages (mpi.WithFaultPlan), above the
// transport, and a sock world's outgoing connection writes
// (SockConfig.Faults), below the frame codec. One Injector makes every
// decision — rule matching, the After/Count/Prob gates, partition windows,
// throttle pacing, corrupt positions — and each layer only applies the
// Verdict. Decisions are seeded and deterministic per rank, so a failing
// chaos run can be replayed.
//
// Messages on internal (negative) tags are exempt, because the collectives
// have no retry protocol. The wire cannot tell a collective's frame from a
// payload, so there everything is perturbed, handshakes included: the
// reconnect-and-resend machinery has to keep every layer above it correct.

// Action is the kind of perturbation a Rule injects.
type Action uint8

const (
	// Delay holds the operation Rule.Delay. A delayed message does not
	// stall its sender (two messages given the same delay may arrive
	// reordered); a delayed write stalls the writer, like a congested link.
	Delay Action = iota
	// Drop discards the operation. A dropped write reports success: only
	// the receiver's sequence gap or the sender's ack timeout reveals it.
	Drop
	// Duplicate delivers the message twice. Messages only.
	Duplicate
	// Corrupt inverts 1–4 bytes at seeded positions in a copy of the
	// payload or write; the original buffer may be shared and is never
	// modified.
	Corrupt
	// Crash kills the rank at the matching operation: it is marked failed,
	// peers blocked on it get a RankFailedError, and its goroutine ends.
	// Messages only.
	Crash
	// Hang parks the rank at the matching operation without marking it
	// failed — live but silent, the case heartbeats exist for — until the
	// supervisor declares it failed or the world aborts. Messages only.
	Hang
	// Partition drops all matching traffic for Rule.Duration from the
	// rule's first armed match, then heals; a zero Duration never heals.
	// Scoped with Dst it severs one direction of one link. Count and Prob
	// are ignored: a partition is a condition of the link, not a coin flip.
	Partition
	// Throttle caps each src→dst link the rule matches at Rule.Bandwidth
	// bytes per second (which must be positive), releasing the link's
	// operations FIFO as it transmits them. A throttled message is
	// delivered asynchronously; a throttled write stalls the writer.
	Throttle
	// Reset writes half the buffer and hard-closes the connection: the
	// receiver sees a truncated frame, the writer an error. Wire only.
	Reset
)

var actionNames = [...]string{"delay", "drop", "duplicate", "corrupt", "crash", "hang", "partition", "throttle", "reset"}

// String names the action (for trace instants and error messages).
func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// AnyRank matches every rank in Rule.Rank.
const AnyRank = -1

// AnyTag matches every user tag in Rule.Tag.
const AnyTag = -1

// DstRank encodes a rank for Rule.Dst, which keeps its zero value meaning
// "any destination" while still letting a rule scope to rank 0.
func DstRank(r int) int { return r + 1 }

// Rule arms one fault. A rule matches an operation when the acting rank,
// the destination, the tag and the operation kind all match; it then counts
// matching operations per rank, lets After of them pass untouched, and
// fires on later ones (each with probability Prob, at most Count times).
type Rule struct {
	// Action is the perturbation to inject.
	Action Action
	// Rank is the rank whose operations the rule applies to (AnyRank for
	// all): the sender of a message, the writer of a wire write.
	Rank int
	// Dst scopes the rule to one destination rank, making it a link fault
	// (Rank→Dst). Zero matches every destination; use DstRank to name one.
	// Receive-side rules (OnRecv) have no destination and never match a
	// Dst-scoped rule.
	Dst int
	// Tag matches the message tag: a specific user tag, or AnyTag for every
	// user tag. Internal (negative) tags never match. The wire carries no
	// tags, so a wire rule leaves Tag zero.
	Tag int
	// OnRecv makes the rule count and fire on receive operations instead
	// of sends. Only meaningful for Crash and Hang (perturbations are
	// injected sender-side). Messages only.
	OnRecv bool
	// After is the number of matching operations that pass untouched
	// before the rule arms ("crash at the Nth send" = After: N-1).
	After int
	// Count caps how many times the rule fires; 0 means unlimited.
	// Bounding Count makes a lossy plan deterministically survivable: a
	// retry budget larger than Count cannot be exhausted.
	Count int
	// Prob is the probability an armed rule fires on a matching operation;
	// outside (0,1) the rule always fires.
	Prob float64
	// Delay is the injected latency of a Delay.
	Delay time.Duration
	// Duration is how long a Partition stays severed; zero never heals.
	Duration time.Duration
	// Bandwidth is the Throttle link capacity in bytes per second.
	Bandwidth float64
}

// matches reports whether the rule covers an operation by rank toward dst
// (-1 for a receive, which no Dst-scoped rule covers).
func (r *Rule) matches(rank, dst int) bool {
	return (r.Rank == AnyRank || r.Rank == rank) && (r.Dst == 0 || r.Dst == DstRank(dst))
}

// Plan is a seeded set of fault rules for one run.
type Plan struct {
	// Seed derives the per-rank random streams of probabilistic rules and
	// corrupt positions.
	Seed int64
	// Rules are evaluated in order; the first rule that fires on an
	// operation decides its fate.
	Rules []Rule
}

// Corrupts reports whether any rule of the plan corrupts payload bytes.
func (p Plan) Corrupts() bool { return p.has(Corrupt) }

// Duplicates reports whether any rule of the plan delivers a message twice.
func (p Plan) Duplicates() bool { return p.has(Duplicate) }

// has reports whether any rule of the plan takes action a.
func (p Plan) has(a Action) bool {
	for _, r := range p.Rules {
		if r.Action == a {
			return true
		}
	}
	return false
}

// Layer is where a plan attaches.
type Layer uint8

const (
	Messages Layer = iota // an mpi world's messages
	Wire                  // a sock world's outgoing connection writes
)

// RuleError reports a rule the layer it was attached to cannot honour.
type RuleError struct {
	Layer  Layer
	Index  int // position in Plan.Rules
	Action Action
	Reason string
}

func (e *RuleError) Error() string {
	layer := [...]string{"message", "wire"}[e.Layer]
	return fmt.Sprintf("fault plan: rule %d (%v) at the %s layer: %s", e.Index, e.Action, layer, e.Reason)
}

// check returns a *RuleError for the first rule the layer cannot honour.
func (p Plan) check(at Layer) error {
	for i, r := range p.Rules {
		reason := ""
		switch {
		case int(r.Action) >= len(actionNames):
			reason = "unknown action"
		case r.Action == Throttle && r.Bandwidth <= 0:
			reason = "throttle needs a positive Bandwidth"
		case at == Messages && r.Action == Reset:
			reason = "a message has no connection to reset"
		case at == Wire && (r.Action == Duplicate || r.Action == Crash || r.Action == Hang):
			reason = "the wire can only delay, drop, corrupt, partition, throttle or reset a write"
		case at == Wire && r.OnRecv:
			reason = "the wire perturbs writes only"
		case at == Wire && r.Tag != 0:
			reason = "the wire carries no tags"
		}
		if reason != "" {
			return &RuleError{Layer: at, Index: i, Action: r.Action, Reason: reason}
		}
	}
	return nil
}

// Injector is the runtime of one attached plan. One mutex guards it all —
// chaos runs are about semantics, not peak message rate.
type Injector struct {
	plan Plan

	mu        sync.Mutex
	rngs      []*rand.Rand // per rank
	matched   [][]uint64   // [rule][rank]: matching ops seen
	fired     []int        // [rule]: total firings
	partStart []time.Time  // [rule]: when a Partition opened (zero: not yet)
	links     map[link]linkState
}

// link identifies one throttled src→dst link under one rule.
type link struct{ rule, src, dst int }

// linkState paces one throttled link: freeAt is when it has transmitted
// everything booked so far; last is closed once the latest booked
// operation has been applied, so the next one keeps FIFO order.
type linkState struct {
	freeAt time.Time
	last   chan struct{}
}

// NewInjector validates plan for the layer it attaches to (the error is a
// *RuleError) and builds its runtime for a world of size ranks.
func NewInjector(plan Plan, size int, at Layer) (*Injector, error) {
	if err := plan.check(at); err != nil {
		return nil, err
	}
	in := &Injector{
		plan:      plan,
		rngs:      make([]*rand.Rand, size),
		matched:   make([][]uint64, len(plan.Rules)),
		fired:     make([]int, len(plan.Rules)),
		partStart: make([]time.Time, len(plan.Rules)),
		links:     map[link]linkState{},
	}
	for r := range in.rngs {
		mix := int64(uint64(0x9e3779b97f4a7c15) * uint64(r+1))
		in.rngs[r] = rand.New(rand.NewSource(plan.Seed ^ mix))
	}
	for i := range in.matched {
		in.matched[i] = make([]uint64, size)
	}
	return in, nil
}

// Verdict is one operation's fate, resolved under the injector's lock so
// the layer applies it — waits, copies, writes — outside it.
type Verdict struct {
	Action Action
	// At is when a Delay or Throttle releases the operation.
	At time.Time
	// After (Throttle) is closed once the link's previous operation has
	// been applied; Done must be closed once this one has.
	After <-chan struct{}
	Done  chan struct{}
	// Flips are the byte positions a Corrupt inverts.
	Flips []int
}

// Decide evaluates the plan for one operation of n bytes by rank: a send or
// write toward dst, or (recv, dst -1) a receive. It reports the verdict of
// the first rule that fires, if any.
func (in *Injector) Decide(rank, dst, tag int, recv bool, n int) (Verdict, bool) {
	if tag < 0 {
		return Verdict{}, false // internal collective traffic is exempt
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if r.OnRecv != recv || !r.matches(rank, dst) || (r.Tag != AnyTag && r.Tag != tag) {
			continue
		}
		in.matched[i][rank]++
		if in.matched[i][rank] <= uint64(r.After) {
			continue
		}
		now := time.Now()
		if r.Action == Partition {
			if in.partStart[i].IsZero() {
				in.partStart[i] = now
			}
			if r.Duration > 0 && now.Sub(in.partStart[i]) >= r.Duration {
				continue // healed
			}
			in.fired[i]++
			return Verdict{Action: Partition}, true
		}
		if r.Count > 0 && in.fired[i] >= r.Count {
			continue
		}
		rng := in.rngs[rank]
		if r.Prob > 0 && r.Prob < 1 && rng.Float64() >= r.Prob {
			continue
		}
		in.fired[i]++
		v := Verdict{Action: r.Action}
		switch r.Action {
		case Delay:
			v.At = now.Add(r.Delay)
		case Throttle:
			k := link{rule: i, src: rank, dst: dst}
			ls := in.links[k]
			if ls.freeAt.Before(now) {
				ls.freeAt = now
			}
			ls.freeAt = ls.freeAt.Add(time.Duration(float64(n) / r.Bandwidth * float64(time.Second)))
			v.At, v.After, v.Done = ls.freeAt, ls.last, make(chan struct{})
			ls.last = v.Done
			in.links[k] = ls
		case Corrupt:
			if n > 0 {
				v.Flips = make([]int, 1+rng.Intn(4))
				for j := range v.Flips {
					v.Flips[j] = rng.Intn(n)
				}
			}
		}
		return v, true
	}
	return Verdict{}, false
}

// Hold blocks until the verdict releases its operation: after the link's
// previous operation, then until At.
func (v Verdict) Hold() {
	if v.After != nil {
		<-v.After
	}
	spin.Wait(time.Until(v.At))
}

// Flip returns a copy of b with the verdict's positions inverted; an empty
// b is returned as is.
func (v Verdict) Flip(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	out := append([]byte(nil), b...)
	for _, p := range v.Flips {
		out[p] ^= 0xff
	}
	return out
}

// wrap interposes the injector on a connection from src to dst unless no
// rule matches that link: the fault layer's fast path is its absence.
func (in *Injector) wrap(conn net.Conn, src, dst int) net.Conn {
	if in == nil {
		return conn
	}
	for i := range in.plan.Rules {
		if in.plan.Rules[i].matches(src, dst) {
			return &faultConn{Conn: conn, in: in, src: src, dst: dst}
		}
	}
	return conn
}

// faultConn applies an injector's verdicts to one connection's writes.
// Reads and closes pass through untouched. The wire carries no tags, so
// every write is decided as user tag 0.
type faultConn struct {
	net.Conn
	in       *Injector
	src, dst int
}

// errWireReset is the write error a Reset surfaces to the writer.
var errWireReset = errors.New("transport: wire fault: connection reset mid-frame")

func (fc *faultConn) Write(b []byte) (int, error) {
	if len(b) == 0 {
		return fc.Conn.Write(b)
	}
	v, fire := fc.in.Decide(fc.src, fc.dst, 0, false, len(b))
	if !fire {
		return fc.Conn.Write(b)
	}
	if v.Done != nil {
		defer close(v.Done)
	}
	v.Hold()
	switch v.Action {
	case Drop, Partition:
		// Report success, deliver nothing: the bytes die on the wire.
		return len(b), nil
	case Corrupt:
		return fc.Conn.Write(v.Flip(b))
	case Reset:
		n, _ := fc.Conn.Write(b[:len(b)/2])
		fc.Conn.Close()
		return n, errWireReset
	}
	return fc.Conn.Write(b)
}
