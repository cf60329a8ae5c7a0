// Admission control for the producer's serve path: every data stream takes
// the VOL's one serve slot before it runs, and waits for it in a per-tenant
// weighted fair queue while another stream holds it. One slot is the serve
// discipline of a rank: one stream at a time per VOL, with the receive loop
// free to answer metadata and redirect queries meanwhile.
//
// The scheduler is stride scheduling over tenants: each tenant queue carries
// a pass value advanced by strideK/weight per admitted request, and dispatch
// always picks the non-empty tenant with the smallest pass — so over any
// contended interval tenants are admitted in proportion to their weights,
// FIFO within a tenant, and an idle tenant accumulates no credit (its pass
// is forwarded to the current virtual time when it becomes busy again).
//
// Shedding is opt-in: only a VOL with a queue deadline refuses requests,
// cheapest refusal first:
//
//  1. pool pressure ≥ shedFrac of the byte budget → shed outright;
//  2. queue at the per-tenant cap, when one is set → shed;
//  3. queued longer than the queue deadline → shed that waiter.
//
// A shed is answered with rpc's overloaded reply carrying RetryAfter, so
// consumers back off instead of re-storming. Without a deadline every
// stream waits its turn: each stream releases the slot when it ends, halted
// or not, so the queue always drains.
package core

import (
	"fmt"
	"sync"
	"time"

	"lowfive/internal/buf"
	"lowfive/metrics"
)

// ErrOverloaded reports that admission control refused a request: the
// producer is saturated and the consumer should retry after the hint.
type ErrOverloaded struct {
	// Tenant is the consumer task the refused request belonged to.
	Tenant string
	// RetryAfter is the backoff hint carried back in the shed reply.
	RetryAfter time.Duration
	// Reason says which limit refused: "queue-full", "queue-deadline",
	// "pool-pressure".
	Reason string
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("lowfive: overloaded (%s, tenant %q, retry after %v)",
		e.Reason, e.Tenant, e.RetryAfter)
}

const (
	// strideK is the stride numerator; weights divide it, so relative
	// precision holds for weights up to ~1e4.
	strideK = 1 << 20

	// shedFrac is the pool-pressure threshold, in tenths of the chunk
	// budget, at which a shedding VOL refuses streams outright.
	shedFrac = 9 // 90%
)

// admWaiter is one queued admission request. ready is closed when the
// waiter is admitted; a waiter shed by its deadline is unlinked instead.
type admWaiter struct {
	ready chan struct{}
	tq    *tenantQ
	enq   time.Time
}

// tenantQ is one tenant's FIFO plus its stride-scheduling state.
type tenantQ struct {
	name   string
	stride uint64
	pass   uint64
	q      []*admWaiter
}

// admission is the controller. One per VOL, shared by every intercomm's
// serve loop, so the serve slot and the fairness ledger are global across
// tenants.
type admission struct {
	deadline  time.Duration // 0: never shed
	maxQueued int           // 0: no per-tenant cap
	weights   map[string]int
	pool      *buf.Pool

	mu       sync.Mutex
	idle     *sync.Cond // signaled when inflight+queued returns to zero
	inflight int        // 0 or 1: whether the slot is held
	nqueued  int
	vtime    uint64 // pass of the last dispatched tenant (virtual time)
	tenants  map[string]*tenantQ

	admitted int64
	shed     int64
	queuedEv int64 // requests that had to queue (did not fast-path)

	queueWait *metrics.Histogram // admission queue wait, µs

	mInflight *metrics.Gauge
	mQueued   *metrics.Gauge
	mAdmitted *metrics.Counter
	mShed     *metrics.Counter
}

// newAdmission builds the controller. A zero deadline never sheds; a zero
// maxQueued sets no per-tenant cap. reg may be nil (counters still work;
// only the registry surface is absent). pool may be nil (no pressure
// coupling).
func newAdmission(deadline time.Duration, maxQueued int,
	weights map[string]int, pool *buf.Pool, reg *metrics.Registry) *admission {
	a := &admission{
		deadline:  deadline,
		maxQueued: maxQueued,
		weights:   weights,
		pool:      pool,
		tenants:   map[string]*tenantQ{},
		queueWait: &metrics.Histogram{},
	}
	a.idle = sync.NewCond(&a.mu)
	if reg != nil {
		a.queueWait = reg.Histogram("core.admission.queue_us")
		a.mInflight = reg.Gauge("core.admission.inflight")
		a.mQueued = reg.Gauge("core.admission.queued")
		a.mAdmitted = reg.Counter("core.admission.admitted")
		a.mShed = reg.Counter("core.admission.shed")
	}
	return a
}

// overPressure reports whether the chunk pool is so close to its budget
// that admitting any stream risks overflowing it.
func (a *admission) overPressure() bool {
	if a.deadline <= 0 || a.pool == nil {
		return false
	}
	limit := a.pool.Limit()
	return limit > 0 && a.pool.Outstanding() >= limit*shedFrac/10
}

// tenant returns (creating on demand) the tenant's queue, forwarding its
// pass to the current virtual time so an idle tenant cannot bank credit.
func (a *admission) tenant(name string) *tenantQ {
	tq, ok := a.tenants[name]
	if !ok {
		w := a.weights[name]
		if w < 1 {
			w = 1
		}
		tq = &tenantQ{name: name, stride: strideK / uint64(w)}
		a.tenants[tq.name] = tq
	}
	if len(tq.q) == 0 && tq.pass < a.vtime {
		tq.pass = a.vtime
	}
	return tq
}

// enter admits one request for tenant without blocking: it takes the idle
// slot (returning a nil waiter), queues a waiter for wait, or sheds. Every
// admission, immediate or through wait, must be paired with a release.
func (a *admission) enter(tenant string) (*admWaiter, *ErrOverloaded) {
	a.mu.Lock()
	if a.overPressure() {
		return nil, a.shedAndUnlock(tenant, "pool-pressure")
	}
	if a.nqueued == 0 && a.inflight == 0 {
		a.inflight++
		a.admitted++
		a.mAdmitted.Inc()
		a.mInflight.Set(int64(a.inflight))
		a.mu.Unlock()
		a.queueWait.Record(0)
		return nil, nil
	}
	tq := a.tenant(tenant)
	if a.deadline > 0 && a.maxQueued > 0 && len(tq.q) >= a.maxQueued {
		return nil, a.shedAndUnlock(tenant, "queue-full")
	}
	w := &admWaiter{ready: make(chan struct{}), tq: tq, enq: time.Now()}
	tq.q = append(tq.q, w)
	a.nqueued++
	a.queuedEv++
	a.mQueued.Set(int64(a.nqueued))
	a.mu.Unlock()
	return w, nil
}

// shedAndUnlock counts one refusal and unlocks.
func (a *admission) shedAndUnlock(tenant, reason string) *ErrOverloaded {
	a.shed++
	a.mShed.Inc()
	a.mu.Unlock()
	return &ErrOverloaded{Tenant: tenant, RetryAfter: a.deadline, Reason: reason}
}

// wait blocks until the queued waiter is admitted, or, with a deadline, is
// shed once it has waited that long.
func (a *admission) wait(w *admWaiter) *ErrOverloaded {
	var expired <-chan time.Time
	if a.deadline > 0 {
		t := time.NewTimer(a.deadline)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-w.ready:
		a.queueWait.Observe(time.Since(w.enq))
		return nil
	case <-expired:
	}
	a.mu.Lock()
	select {
	case <-w.ready:
		// Admitted in the race with the timer.
		a.mu.Unlock()
		a.queueWait.Observe(time.Since(w.enq))
		return nil
	default:
	}
	a.removeLocked(w)
	a.maybeIdleLocked()
	return a.shedAndUnlock(w.tq.name, "queue-deadline")
}

// removeLocked unlinks an expired waiter from its tenant's FIFO.
func (a *admission) removeLocked(w *admWaiter) {
	tq := w.tq
	for i, have := range tq.q {
		if have == w {
			tq.q = append(tq.q[:i], tq.q[i+1:]...)
			a.nqueued--
			a.mQueued.Set(int64(a.nqueued))
			return
		}
	}
}

// release frees the slot and hands it to the next queued waiter, if any.
func (a *admission) release() {
	a.mu.Lock()
	a.inflight--
	a.mInflight.Set(int64(a.inflight))
	a.dispatchLocked()
	a.maybeIdleLocked()
	a.mu.Unlock()
}

// dispatchLocked hands the free slot to the next waiter: the head of the
// non-empty tenant with the smallest pass, advancing it by its stride.
func (a *admission) dispatchLocked() {
	var next *tenantQ
	for _, tq := range a.tenants {
		if len(tq.q) == 0 {
			continue
		}
		if next == nil || tq.pass < next.pass ||
			(tq.pass == next.pass && tq.name < next.name) {
			next = tq
		}
	}
	if next == nil {
		return
	}
	w := next.q[0]
	next.q = next.q[1:]
	a.vtime = next.pass
	next.pass += next.stride
	a.nqueued--
	a.inflight++
	a.admitted++
	a.mAdmitted.Inc()
	a.mQueued.Set(int64(a.nqueued))
	a.mInflight.Set(int64(a.inflight))
	close(w.ready)
}

// maybeIdleLocked wakes quiesce waiters when the controller has gone idle.
func (a *admission) maybeIdleLocked() {
	if a.inflight == 0 && a.nqueued == 0 {
		a.idle.Broadcast()
	}
}

// quiesce blocks until no request is in flight or queued — the end-of-serve
// barrier that guarantees no admitted stream goroutine outlives its session
// (and no pooled chunk is left in a half-written frame). Queued waiters
// resolve on their own: they are either dispatched by releases or shed by
// their queue deadline.
func (a *admission) quiesce() {
	a.mu.Lock()
	for a.inflight > 0 || a.nqueued > 0 {
		a.idle.Wait()
	}
	a.mu.Unlock()
}

// admissionStats is a snapshot of the controller's counters.
type admissionStats struct {
	admitted, shed, queued int64
	queueP99               time.Duration
}

func (a *admission) stats() admissionStats {
	a.mu.Lock()
	s := admissionStats{admitted: a.admitted, shed: a.shed, queued: a.queuedEv}
	a.mu.Unlock()
	p99 := a.queueWait.Snapshot().Quantile(0.99)
	s.queueP99 = time.Duration(p99 * float64(time.Microsecond))
	return s
}
