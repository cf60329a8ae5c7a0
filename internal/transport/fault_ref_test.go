package transport

import (
	"math/rand"
	"sync"
	"time"
)

// Reference copies of the two rule engines the Injector replaced, kept
// verbatim in their logic so TestFaultDifferential can prove the unified
// engine fires on exactly the same operations. Only the names changed:
// both old rule types map onto Rule (the wire's Src field is Rule.Rank),
// and both old action enums onto Action.

// refChan is the message-layer engine: per-rank math/rand streams and
// match counters shared by every rank of the world, per-rule firing counts
// and partition windows, per-(rule, src, dst) throttle links.
type refChan struct {
	rules []Rule

	mu        sync.Mutex
	rngs      []*rand.Rand
	matched   [][]uint64
	fired     []int
	partStart []time.Time
	freeAt    map[link]time.Time
}

func newRefChan(plan Plan, size int) *refChan {
	fs := &refChan{
		rules:     plan.Rules,
		rngs:      make([]*rand.Rand, size),
		matched:   make([][]uint64, len(plan.Rules)),
		fired:     make([]int, len(plan.Rules)),
		partStart: make([]time.Time, len(plan.Rules)),
		freeAt:    map[link]time.Time{},
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

func (fs *refChan) decide(rank, dst, tag int, recv bool) (Rule, int, bool) {
	if tag < 0 {
		return Rule{}, -1, false
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i, rule := range fs.rules {
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
		if rule.Action == Partition {
			if fs.partStart[i].IsZero() {
				fs.partStart[i] = time.Now()
			}
			if rule.Duration > 0 && time.Since(fs.partStart[i]) >= rule.Duration {
				continue
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
	return Rule{}, -1, false
}

// throttleSlot returns when the throttled link finishes transmitting bytes
// (the FIFO channels of the old slot are not needed to compare times).
func (fs *refChan) throttleSlot(rule, src, dst, bytes int, bw float64) time.Time {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	k := link{rule: rule, src: src, dst: dst}
	start := time.Now()
	if fs.freeAt[k].After(start) {
		start = fs.freeAt[k]
	}
	if bw <= 0 {
		bw = 1
	}
	at := start.Add(time.Duration(float64(bytes) / bw * float64(time.Second)))
	fs.freeAt[k] = at
	return at
}

// corrupt returns the positions the old engine flipped in an n-byte payload.
func (fs *refChan) corrupt(rank, n int) []int {
	if n == 0 {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rng := fs.rngs[rank]
	flips := make([]int, 1+rng.Intn(4))
	for i := range flips {
		flips[i] = rng.Intn(n)
	}
	return flips
}

// refWire is the wire engine of one rank process: only the rules scoped
// to that rank, an xorshift64 stream, and per-rule throttle pacing.
type refWire struct {
	mu        sync.Mutex
	rules     []Rule
	rng       uint64
	seen      []int
	fired     []int
	partStart []time.Time
	freeAt    []time.Time
}

// refVerdict is one write's fate under refWire; fired is false to pass.
type refVerdict struct {
	fired  bool
	action Action
	sleep  time.Duration
	flips  []int
}

func newRefWire(plan Plan, rank int) *refWire {
	var rules []Rule
	for _, r := range plan.Rules {
		if r.Rank == AnyRank || r.Rank == rank {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return nil
	}
	seed := uint64(plan.Seed)*0x9e3779b97f4a7c15 ^ uint64(rank+1)*0xbf58476d1ce4e5b9
	if seed == 0 {
		seed = 1
	}
	return &refWire{
		rules:     rules,
		rng:       seed,
		seen:      make([]int, len(rules)),
		fired:     make([]int, len(rules)),
		partStart: make([]time.Time, len(rules)),
		freeAt:    make([]time.Time, len(rules)),
	}
}

func (w *refWire) rand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

func (w *refWire) randFloat() float64 {
	return float64(w.rand()>>11) / float64(1<<53)
}

func (w *refWire) decide(dst, n int) refVerdict {
	if w == nil {
		return refVerdict{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	for i := range w.rules {
		r := &w.rules[i]
		if r.Dst != 0 && r.Dst != DstRank(dst) {
			continue
		}
		if r.Action == Partition && !w.partStart[i].IsZero() {
			if now.Sub(w.partStart[i]) < r.Duration {
				return refVerdict{fired: true, action: Drop}
			}
			continue
		}
		w.seen[i]++
		if w.seen[i] <= r.After {
			continue
		}
		if r.Count > 0 && w.fired[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && w.randFloat() >= r.Prob {
			continue
		}
		w.fired[i]++
		switch r.Action {
		case Partition:
			w.partStart[i] = now
			return refVerdict{fired: true, action: Drop}
		case Throttle:
			if r.Bandwidth <= 0 {
				continue
			}
			cost := time.Duration(float64(n) / r.Bandwidth * float64(time.Second))
			start := now
			if w.freeAt[i].After(start) {
				start = w.freeAt[i]
			}
			w.freeAt[i] = start.Add(cost)
			return refVerdict{fired: true, action: Throttle, sleep: w.freeAt[i].Sub(now)}
		case Corrupt:
			flips := make([]int, int(w.rand()%4)+1)
			for f := range flips {
				flips[f] = int(w.rand() % uint64(n))
			}
			return refVerdict{fired: true, action: Corrupt, flips: flips}
		case Delay:
			return refVerdict{fired: true, action: Delay, sleep: r.Delay}
		default:
			return refVerdict{fired: true, action: r.Action}
		}
	}
	return refVerdict{}
}
