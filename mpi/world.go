package mpi

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lowfive/internal/buf"
	"lowfive/internal/transport"
	"lowfive/metrics"
	"lowfive/trace"
)

// World is a set of ranks that can exchange messages. It plays the role of
// MPI_COMM_WORLD's underlying machine: it owns the mailboxes, the cost
// model, and abort/deadlock handling. Frames move through a pluggable
// transport engine: the in-proc chan engine (every rank a goroutine of
// this process — NewWorld) or the sock engine (every rank its own OS
// process — NewSockWorld).
type World struct {
	size  int
	boxes []*mailbox
	cost  *CostModel

	// xport ships outgoing frames; inbound frames land in enqueue. With the
	// chan engine the two are the same synchronous call chain.
	xport transport.Transport
	// localRank is this process's world rank under the sock engine, or -1
	// when every rank is local (chan engine).
	localRank int

	aborted  atomic.Bool
	abortErr atomic.Pointer[abortError]
	abortCh  chan struct{}

	// progress counters for the deadlock watchdog
	delivered atomic.Uint64
	blocked   atomic.Int64

	watchdog time.Duration

	// fault injection (nil when no plan is attached); failed/failedCh track
	// crashed ranks so peers blocked on them fail fast instead of hanging.
	faultPlan *FaultPlan
	fault     *transport.Injector
	intact    bool // no FaultCorrupt rule in faultPlan; see Intact
	once      bool // no FaultDuplicate rule in faultPlan; see DeliversOnce
	failed    []atomic.Bool
	failedCh  []chan struct{}
	crashed   atomic.Int64
	// exited marks ranks whose main has returned in this process; see
	// sourcesGone.
	exited []atomic.Bool

	// supervision state (active only under RunWorkflowSupervised): per-rank
	// heartbeats, incarnation counters for restart, application epoch
	// markers, and the failure event stream the supervisor consumes. failMu
	// serializes crash/revive transitions so a rank is never observed
	// half-revived.
	supervised bool
	beats      []atomic.Int64  // UnixNano of each rank's last operation
	incs       []atomic.Uint32 // incarnation per rank; bumped by reviveRank
	epochs     []atomic.Int64  // application epoch marker per rank
	failMu     sync.Mutex
	failEvents chan int

	// tracer, when set, records every message-passing operation onto
	// per-world-rank tracks (one append-only buffer per rank, so recording
	// never contends across ranks). Nil tracks make recording a no-op.
	tracer *trace.Tracer
	tracks []*trace.Track

	// metrics, when set (WithMetrics), records transport-level instruments:
	// send/byte counters, a message-size histogram, fault injections fired,
	// and a dense per-link byte matrix (indexed src*size+dst — a matrix
	// rather than size² named instruments, so the hot path stays one atomic
	// add). Nil instrument handles make recording a no-op.
	metrics    *metrics.Registry
	linkBytes  []atomic.Int64
	mSends     *metrics.Counter
	mBytes     *metrics.Counter
	mMsgSize   *metrics.Histogram
	mFaults    *metrics.Counter
	mRecvs     *metrics.Counter
	mRecvBytes *metrics.Counter

	ranksOnce sync.Once
	allRanks  []int
}

type abortError struct{ err error }

// AbortedError is returned by Run when a rank panics or the world is
// aborted; the remaining ranks are woken with this error.
type AbortedError struct{ Err error }

func (e *AbortedError) Error() string { return fmt.Sprintf("mpi: world aborted: %v", e.Err) }
func (e *AbortedError) Unwrap() error { return e.Err }

// RankProgress is one rank's progress snapshot, included in DeadlockError
// so watchdog reports say what each rank was doing instead of just "all N
// ranks blocked".
type RankProgress struct {
	// Rank is the world rank.
	Rank int
	// Blocked reports whether the rank is currently inside a blocking
	// Recv/Probe.
	Blocked bool
	// BlockedFor is how long the current blocking receive has waited.
	BlockedFor time.Duration
	// WaitSrc and WaitTag are the match criteria of the blocking receive
	// (AnySource/AnyTag for wildcards); meaningless unless Blocked.
	WaitSrc, WaitTag int
	// Received counts messages this rank has successfully matched so far.
	Received uint64
	// Queued is how many messages wait unmatched in the rank's mailbox.
	// Every receive scans past them, so a count that grows step after step
	// is a protocol leaving messages nobody reads.
	Queued int
	// BlockedTotal is the cumulative time this rank has spent blocked in
	// receives — the per-rank blocked-in-recv counter.
	BlockedTotal time.Duration
	// Failed reports whether the rank itself has crashed (fault injection
	// or a supervisor teardown).
	Failed bool
	// WaitWorldSrc is the world rank of the peer the blocking receive waits
	// on, or -1 for AnySource; meaningless unless Blocked.
	WaitWorldSrc int
	// WaitSrcFailed reports whether that peer has crashed — the receive can
	// only ever end in RankFailedError, which distinguishes a failure in
	// flight from a genuine deadlock among live ranks.
	WaitSrcFailed bool
}

// String renders one progress line.
func (p RankProgress) String() string {
	if p.Failed {
		return fmt.Sprintf("rank %d: crashed (%d msgs received)", p.Rank, p.Received)
	}
	if !p.Blocked {
		return fmt.Sprintf("rank %d: running (%d msgs received, blocked %s total)",
			p.Rank, p.Received, p.BlockedTotal.Round(time.Millisecond))
	}
	src := "any"
	if p.WaitSrc != AnySource {
		src = fmt.Sprintf("%d", p.WaitSrc)
	}
	tag := "any"
	if p.WaitTag != AnyTag {
		tag = fmt.Sprintf("%d", p.WaitTag)
	}
	peer := ""
	if p.WaitWorldSrc >= 0 {
		if p.WaitSrcFailed {
			peer = " [peer crashed]"
		} else {
			peer = " [peer live]"
		}
	}
	return fmt.Sprintf("rank %d: blocked %s in Recv(src=%s, tag=%s)%s (%d msgs received)",
		p.Rank, p.BlockedFor.Round(time.Millisecond), src, tag, peer, p.Received)
}

// DeadlockError is reported by the watchdog when every rank has been blocked
// in a receive with no message delivered for the watchdog interval. Ranks
// holds each rank's progress snapshot at detection time.
type DeadlockError struct {
	Blocked int
	Ranks   []RankProgress
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	crashed, waitingOnDead := 0, 0
	for _, p := range e.Ranks {
		if p.Failed {
			crashed++
		} else if p.Blocked && p.WaitSrcFailed {
			waitingOnDead++
		}
	}
	fmt.Fprintf(&b, "mpi: deadlock detected: all %d ranks blocked in Recv/Probe", e.Blocked)
	if crashed > 0 || waitingOnDead > 0 {
		fmt.Fprintf(&b, " (%d ranks crashed, %d live ranks waiting on a crashed peer)",
			crashed, waitingOnDead)
	}
	const maxLines = 8
	for i, p := range e.Ranks {
		if i == maxLines {
			fmt.Fprintf(&b, "\n  ... and %d more ranks", len(e.Ranks)-maxLines)
			break
		}
		fmt.Fprintf(&b, "\n  %s", p.String())
	}
	return b.String()
}

// Option configures a World.
type Option func(*World)

// WithCostModel attaches a network cost model: each message charges its
// sender alpha + bytes/beta of wall-clock time before delivery.
func WithCostModel(alpha time.Duration, betaBytesPerSec float64) Option {
	return func(w *World) {
		w.cost = &CostModel{Alpha: alpha, Beta: betaBytesPerSec}
	}
}

// WithWatchdog sets how long the deadlock watchdog waits with zero progress
// and all ranks blocked before aborting the world. Zero disables it.
func WithWatchdog(d time.Duration) Option {
	return func(w *World) { w.watchdog = d }
}

// WithTracer attaches an event recorder: every Send/Recv/collective is
// recorded as a span (with src/dst/tag/bytes arguments) on the calling
// rank's track. RunWorkflow names the tracks after the workflow's tasks;
// a bare World labels them "world"/"rank N".
func WithTracer(t *trace.Tracer) Option {
	return func(w *World) { w.tracer = t }
}

// WithMetrics attaches a metrics registry: every Send records into
// "mpi.sends", "mpi.send.bytes" and the "mpi.msg.bytes" size histogram,
// fault injections count into "mpi.faults.injected", and per-link byte
// totals accumulate for World.LinkBytes.
func WithMetrics(r *metrics.Registry) Option {
	return func(w *World) { w.metrics = r }
}

// NewWorld creates an in-proc world with the given number of ranks: every
// rank is a goroutine of this process and frames move over the chan
// transport engine.
func NewWorld(size int, opts ...Option) *World {
	w, err := newWorldCore(size, 30*time.Second, opts)
	if err != nil {
		panic(err)
	}
	// The chan engine reproduces the original in-proc delivery exactly:
	// the α–β cost charge on the sending goroutine, then a synchronous
	// enqueue at the destination mailbox.
	var cost func(bytes int)
	if w.cost != nil {
		cost = func(bytes int) { w.cost.charge(bytes) }
	}
	w.xport = transport.NewChan(w.enqueue, cost)
	return w
}

// newWorldCore builds the engine-independent part of a World. Its error
// is a fault plan the message layer cannot honour.
func newWorldCore(size int, watchdog time.Duration, opts []Option) (*World, error) {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{size: size, watchdog: watchdog, localRank: -1, abortCh: make(chan struct{})}
	for _, o := range opts {
		o(w)
	}
	w.boxes = make([]*mailbox, size)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.failed = make([]atomic.Bool, size)
	w.exited = make([]atomic.Bool, size)
	w.failedCh = make([]chan struct{}, size)
	for i := range w.failedCh {
		w.failedCh[i] = make(chan struct{})
	}
	w.beats = make([]atomic.Int64, size)
	w.incs = make([]atomic.Uint32, size)
	w.epochs = make([]atomic.Int64, size)
	w.intact, w.once = true, true
	if w.faultPlan != nil {
		var err error
		if w.fault, err = transport.NewInjector(*w.faultPlan, size, transport.Messages); err != nil {
			return nil, err
		}
		w.intact = !w.faultPlan.Corrupts()
		w.once = !w.faultPlan.Duplicates()
	}
	if w.tracer != nil {
		w.tracks = make([]*trace.Track, size)
	}
	if w.metrics != nil {
		w.linkBytes = make([]atomic.Int64, size*size)
		w.mSends = w.metrics.Counter("mpi.sends")
		w.mBytes = w.metrics.Counter("mpi.send.bytes")
		w.mMsgSize = w.metrics.Histogram("mpi.msg.bytes")
		w.mFaults = w.metrics.Counter("mpi.faults.injected")
		w.mRecvs = w.metrics.Counter("mpi.recvs")
		w.mRecvBytes = w.metrics.Counter("mpi.recv.bytes")
	}
	return w, nil
}

// recordSend accounts one message on the metrics plane: aggregate counters,
// the size histogram, and the src→dst link-byte cell. No-op without
// WithMetrics.
func (w *World) recordSend(worldSrc, worldDst, bytes int) {
	if w.metrics == nil {
		return
	}
	w.linkBytes[worldSrc*w.size+worldDst].Add(int64(bytes))
	w.mSends.Inc()
	w.mBytes.Add(int64(bytes))
	w.mMsgSize.Record(int64(bytes))
}

// noteFault counts one fired fault-injection action. No-op without
// WithMetrics.
func (w *World) noteFault() { w.mFaults.Inc() }

// LinkBytes returns the per-link byte totals as a [src][dst] matrix, or nil
// when the world has no metrics attached.
func (w *World) LinkBytes() [][]int64 {
	if w.linkBytes == nil {
		return nil
	}
	out := make([][]int64, w.size)
	for s := 0; s < w.size; s++ {
		row := make([]int64, w.size)
		for d := 0; d < w.size; d++ {
			row[d] = w.linkBytes[s*w.size+d].Load()
		}
		out[s] = row
	}
	return out
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Tracer returns the attached tracer, or nil when tracing is disabled.
func (w *World) Tracer() *trace.Tracer { return w.tracer }

// SetTrack overrides the recording track of a world rank; RunWorkflow uses
// this to label tracks with task names ("processes") and task-local ranks
// ("threads"). It must be called before Run starts.
func (w *World) SetTrack(worldRank int, k *trace.Track) {
	if w.tracks != nil {
		w.tracks[worldRank] = k
	}
}

// track returns the recording track of a world rank (nil when disabled).
func (w *World) track(worldRank int) *trace.Track {
	if w.tracks == nil {
		return nil
	}
	return w.tracks[worldRank]
}

// Abort wakes every blocked rank with an error. It is called automatically
// when a rank panics so the remaining ranks do not deadlock.
func (w *World) Abort(err error) {
	w.abortErr.CompareAndSwap(nil, &abortError{err})
	if !w.aborted.Swap(true) {
		close(w.abortCh)
	}
	for _, b := range w.boxes {
		b.wakeAll()
	}
}

// enableSupervision turns on per-rank heartbeats, incarnation checking and
// the failure event stream. It must be called before Run.
func (w *World) enableSupervision() {
	w.supervised = true
	w.failEvents = make(chan int, 4*w.size)
	now := time.Now().UnixNano()
	for i := range w.beats {
		w.beats[i].Store(now)
	}
}

// opGate guards every communicator operation under supervision: an
// operation through a handle of a previous incarnation (a stale helper
// goroutine that outlived a restart) dies like the crashed rank it belonged
// to, and a live operation refreshes the rank's heartbeat.
func (w *World) opGate(self int, inc uint32) {
	if !w.supervised {
		return
	}
	if w.incs[self].Load() != inc {
		panic(rankCrashPanic{rank: self})
	}
	w.beats[self].Store(time.Now().UnixNano())
}

// lastBeat returns the UnixNano timestamp of the rank's last operation.
func (w *World) lastBeat(worldRank int) int64 { return w.beats[worldRank].Load() }

// reviveRank clears a crashed rank's failure state so a supervisor can
// relaunch it. The incarnation counter is bumped before the failed flag is
// cleared, so a stale goroutine of the previous incarnation that wakes
// after the revive still dies (at its next opGate or mailbox check) instead
// of impersonating the new incarnation. Every message queued at the dead
// rank is discarded — cross-incarnation traffic must never alias — and
// pooled payloads return to their pool. Returns the new incarnation.
func (w *World) reviveRank(worldRank int) uint32 {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	if !w.failed[worldRank].Load() {
		return w.incs[worldRank].Load()
	}
	inc := w.incs[worldRank].Add(1)
	b := w.boxes[worldRank]
	b.mu.Lock()
	for _, m := range b.msgs {
		buf.Release(m.Data)
	}
	b.msgs = nil
	b.cond.Broadcast()
	b.mu.Unlock()
	w.failedCh[worldRank] = make(chan struct{})
	w.exited[worldRank].Store(false)
	w.failed[worldRank].Store(false)
	w.crashed.Add(-1)
	w.beats[worldRank].Store(time.Now().UnixNano())
	return inc
}

// SetEpoch publishes a rank's application epoch marker; TaskFailure events
// report it so a supervisor knows where a failed task was up to.
func (w *World) SetEpoch(worldRank int, epoch int64) { w.epochs[worldRank].Store(epoch) }

// Epoch returns a rank's last published application epoch marker.
func (w *World) Epoch(worldRank int) int64 { return w.epochs[worldRank].Load() }

func (w *World) abortReason() error {
	if p := w.abortErr.Load(); p != nil {
		return p.err
	}
	return fmt.Errorf("unknown reason")
}

// Run starts size goroutines, each executing main with that rank's
// world communicator, and waits for all of them. If any rank panics, the
// world is aborted and the first panic is returned as an error.
func (w *World) Run(main func(c *Comm)) error {
	if w.tracks != nil {
		for r := range w.tracks {
			if w.tracks[r] == nil {
				w.tracks[r] = w.tracer.NewTrack("world", 0, fmt.Sprintf("rank %d", r), r)
			}
		}
	}
	comms := w.commWorld()
	var wg sync.WaitGroup
	errCh := make(chan error, w.size)
	stopWatch := make(chan struct{})
	if w.watchdog > 0 {
		go w.watch(stopWatch)
	}
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			defer w.markExited(c.Rank())
			defer func() {
				if rec := recover(); rec != nil {
					if _, isCrash := rec.(rankCrashPanic); isCrash {
						// An injected crash kills this rank only; the rest
						// of the world keeps running (peers blocked on the
						// dead rank get a RankFailedError instead).
						return
					}
					err, ok := rec.(error)
					if !ok {
						err = fmt.Errorf("rank %d panicked: %v", c.Rank(), rec)
					}
					if _, isAbort := err.(*AbortedError); !isAbort {
						w.Abort(fmt.Errorf("rank %d: %v", c.Rank(), rec))
						errCh <- err
					}
				}
			}()
			main(c)
		}(comms[r])
	}
	wg.Wait()
	close(stopWatch)
	select {
	case err := <-errCh:
		return err
	default:
	}
	if w.aborted.Load() {
		return &AbortedError{Err: w.abortReason()}
	}
	return nil
}

// Run is shorthand for NewWorld(size, opts...).Run(main).
func Run(size int, main func(c *Comm), opts ...Option) error {
	return NewWorld(size, opts...).Run(main)
}

// commWorld builds the per-rank world communicator handles.
func (w *World) commWorld() []*Comm {
	ranks := w.worldRanks()
	comms := make([]*Comm, w.size)
	for r := 0; r < w.size; r++ {
		comms[r] = &Comm{world: w, id: worldCommID, ranks: ranks, rank: r}
	}
	return comms
}

// worldRanks returns the identity rank list [0..size). Cached so every
// world-communicator handle shares one slice.
func (w *World) worldRanks() []int {
	w.ranksOnce.Do(func() {
		w.allRanks = make([]int, w.size)
		for i := range w.allRanks {
			w.allRanks[i] = i
		}
	})
	return w.allRanks
}

func (w *World) watch(stop <-chan struct{}) {
	tick := time.NewTicker(w.watchdog)
	defer tick.Stop()
	var lastDelivered uint64
	stuckSince := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			d := w.delivered.Load()
			// Crashed ranks never block again; a world is stuck when every
			// surviving rank is blocked with no progress.
			if d != lastDelivered || w.blocked.Load() < int64(w.size)-w.crashed.Load() {
				lastDelivered = d
				stuckSince = time.Now()
				continue
			}
			if time.Since(stuckSince) >= w.watchdog {
				w.Abort(&DeadlockError{
					Blocked: int(w.blocked.Load()),
					Ranks:   w.rankProgress(),
				})
				return
			}
		}
	}
}

// message is a single in-flight message: exactly a transport frame. The
// alias keeps the chan engine zero-copy: the value a sender constructs on
// its stack is the value the receiver's mailbox stores, whichever engine
// carried it, and only the payload slice is shared. Messages move by value
// end to end, so a send allocates nothing beyond the payload.
type message = transport.Frame

// mailbox holds undelivered messages for one world rank, plus the rank's
// receive-progress bookkeeping for the deadlock watchdog (all guarded by
// mu, which the blocking receive path already holds).
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message

	waiting          bool
	waitSince        time.Time
	waitSrc, waitTag int
	waitWorldSrc     int
	received         uint64
	blockedTotal     time.Duration

	// timer wakes every waiter at armed, the earliest deadline a waiter
	// asked for since it last fired (zero: none pending). One per mailbox,
	// created by the first deadline-bounded wait.
	timer *time.Timer
	armed time.Time
}

// progress snapshots the receive-progress bookkeeping.
func (b *mailbox) progress(rank int) RankProgress {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := RankProgress{
		Rank:         rank,
		Blocked:      b.waiting,
		WaitSrc:      b.waitSrc,
		WaitTag:      b.waitTag,
		WaitWorldSrc: b.waitWorldSrc,
		Received:     b.received,
		Queued:       len(b.msgs),
		BlockedTotal: b.blockedTotal,
	}
	if b.waiting {
		p.BlockedFor = time.Since(b.waitSince)
	}
	return p
}

// annotate fills a progress snapshot's failure fields from world state.
func (w *World) annotate(p *RankProgress) {
	p.Failed = w.failed[p.Rank].Load()
	if p.Blocked && p.WaitWorldSrc >= 0 {
		p.WaitSrcFailed = w.failed[p.WaitWorldSrc].Load()
	}
}

// rankProgress snapshots every rank's receive progress (for DeadlockError).
func (w *World) rankProgress() []RankProgress {
	out := make([]RankProgress, w.size)
	for r, b := range w.boxes {
		out[r] = b.progress(r)
		w.annotate(&out[r])
	}
	return out
}

// RankProgress returns one rank's current receive-progress snapshot; tools
// can poll it while a workflow runs.
func (w *World) RankProgress(worldRank int) RankProgress {
	p := w.boxes[worldRank].progress(worldRank)
	w.annotate(&p)
	return p
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) wakeAll() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// expire is the deadline timer's callback: it disarms the timer and wakes
// every waiter, each of which re-checks its own deadline and re-arms the
// timer for a later one. A waker that finds no deadline passed is harmless.
func (b *mailbox) expire() {
	b.mu.Lock()
	b.armed = time.Time{}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// armLocked makes the mailbox's timer fire no later than deadline, d from
// now. Caller holds b.mu.
func (b *mailbox) armLocked(deadline time.Time, d time.Duration) {
	if !b.armed.IsZero() && !deadline.Before(b.armed) {
		return
	}
	b.armed = deadline
	if b.timer == nil {
		b.timer = time.AfterFunc(d, b.expire)
	} else {
		b.timer.Reset(d)
	}
}

func (b *mailbox) put(m message) {
	b.mu.Lock()
	b.msgs = append(b.msgs, m)
	// Broadcast, not Signal: a rank may have several goroutines (e.g. serve
	// loops for different intercommunicators) blocked on this mailbox with
	// different match criteria, and Signal could wake one that does not
	// match this message, losing the wakeup for the one that does.
	b.cond.Broadcast()
	b.mu.Unlock()
}

func matches(m *message, commID uint64, src, tag int) bool {
	if m.CommID != commID {
		return false
	}
	if src != AnySource && m.Src != src {
		return false
	}
	if tag != AnyTag && m.Tag != tag {
		return false
	}
	return true
}

// find returns the index of the first queued message on commID with a
// matching tag from one of srcs, or -1. A one-source receive, which every
// caller but a hedged rpc wait makes, scans with one source comparison per
// message: a consumer's mailbox can hold many frames of its other streams.
func (b *mailbox) find(commID uint64, srcs []int, tag int) int {
	if len(srcs) == 1 {
		src := srcs[0]
		for i := range b.msgs {
			if matches(&b.msgs[i], commID, src, tag) {
				return i
			}
		}
		return -1
	}
	for i := range b.msgs {
		for _, src := range srcs {
			if matches(&b.msgs[i], commID, src, tag) {
				return i
			}
		}
	}
	return -1
}

// recv is the receive under Comm.Recv and Intercomm.RecvUntil: the
// operation gate and the OnRecv fault rules run once, then take removes
// the message, or reports false at the deadline. With a tracer attached,
// the span covers the time blocked waiting.
func (w *World) recv(self int, commID uint64, srcs, ranks []int, tag int, inc uint32, deadline time.Time, tr *trace.Track, span string) (message, bool) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	w.opGate(self, inc)
	if w.fault != nil {
		w.injectRecv(self, tag, tr)
	}
	m, ok := w.boxes[self].take(w, self, commID, srcs, ranks, tag, inc, true, deadline)
	if ok && tr != nil {
		tr.Span("mpi", span, t0, time.Now(),
			trace.I64("src", int64(m.Src)), trace.I64("tag", int64(m.Tag)),
			trace.I64("bytes", int64(len(m.Data))))
	}
	return m, ok
}

// peek is the probe under Probe and Iprobe: the status of a matching
// message, without receiving it, waiting until deadline (see take).
func (w *World) peek(self int, commID uint64, src int, ranks []int, tag int, inc uint32, deadline time.Time) (Status, bool) {
	w.opGate(self, inc)
	m, ok := w.boxes[self].take(w, self, commID, []int{src}, ranks, tag, inc, false, deadline)
	if !ok {
		return Status{}, false
	}
	return Status{Source: m.Src, Tag: m.Tag, Bytes: len(m.Data)}, true
}

// take removes and returns the first message on commID with the given tag
// (or AnyTag) from one of srcs — local ranks of a group whose world ranks
// ranks lists, or AnySource. remove=false peeks without removing (Probe).
// A zero deadline blocks until a message arrives; otherwise take reports
// false once the deadline passes, at once when it already has (Iprobe), and
// a blocking wait arms the mailbox's one timer for the earliest deadline
// of its waiters, allocating nothing. While it waits the mailbox is
// marked waiting, so the watchdog and the supervisor see a blocked rank. A
// receive whose every source has crashed fails with RankFailedError (naming
// the first) instead of hanging; an empty srcs matches nothing and waits
// out its deadline. inc is the incarnation of the handle performing the
// receive: after a supervisor restart, a stale waiter from the previous
// incarnation re-checks it on every wakeup and dies instead of stealing
// the new incarnation's messages.
func (b *mailbox) take(w *World, self int, commID uint64, srcs, ranks []int, tag int, inc uint32, remove bool, deadline time.Time) (message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if w.aborted.Load() {
			panic(&AbortedError{Err: w.abortReason()})
		}
		if w.failed[self].Load() {
			// This rank was crashed by fault injection (in a helper
			// goroutine); any further operation on it dies too.
			panic(rankCrashPanic{rank: self})
		}
		if w.supervised && w.incs[self].Load() != inc {
			panic(rankCrashPanic{rank: self})
		}
		if i := b.find(commID, srcs, tag); i >= 0 {
			m := b.msgs[i]
			if remove {
				// Delete clears the vacated tail slot, so the mailbox does
				// not keep a received payload reachable.
				b.msgs = slices.Delete(b.msgs, i, i+1)
			}
			b.received++
			return m, true
		}
		if w.sourcesGone(srcs, ranks, tag) {
			panic(&RankFailedError{Rank: ranks[srcs[0]]})
		}
		if !deadline.IsZero() {
			d := time.Until(deadline)
			if d <= 0 {
				return message{}, false
			}
			b.armLocked(deadline, d)
		}
		if !b.waiting {
			b.waiting = true
			b.waitSince = time.Now()
		}
		b.waitSrc, b.waitWorldSrc = AnySource, -1
		if len(srcs) > 0 && srcs[0] != AnySource {
			b.waitSrc, b.waitWorldSrc = srcs[0], ranks[srcs[0]]
		}
		b.waitTag = tag
		w.blocked.Add(1)
		b.cond.Wait()
		w.blocked.Add(-1)
		if b.waiting {
			b.waiting = false
			b.blockedTotal += time.Since(b.waitSince)
		}
	}
}

// probeNow is a deadline already passed: take looks at what is queued and
// returns without waiting (Iprobe).
var probeNow = time.Unix(0, 1)

// sourcesGone reports, after a receive found nothing queued, that nothing
// matching can ever arrive from any of srcs: each source crashed, or the
// receive is part of a collective (an internal tag) and the source's main
// has already returned. Collective messages are never delayed by fault
// injection and a rank enqueues its part before it returns, so an exited
// peer that left nothing queued has left the collective for good — a rank
// that quit early on an error must not strand its task siblings. AnySource
// and an empty srcs name no peer to watch and are never gone.
func (w *World) sourcesGone(srcs, ranks []int, tag int) bool {
	for _, s := range srcs {
		if s == AnySource {
			return false
		}
		if r := ranks[s]; !w.failed[r].Load() && !(tag < AnyTag && w.exited[r].Load()) {
			return false
		}
	}
	return len(srcs) > 0
}

// markExited records that a rank's main returned (normally or by panic)
// and wakes every mailbox so receivers blocked on it in a collective
// re-check sourcesGone.
func (w *World) markExited(worldRank int) {
	w.exited[worldRank].Store(true)
	for _, b := range w.boxes {
		b.wakeAll()
	}
}

// deliver hands the message to the transport engine for the destination
// world rank. Messages to a crashed rank are dropped — the dead rank will
// never receive them, and queuing would leak. A send the engine reports
// as failed (sock engine: connection broke mid-world) marks the peer
// failed and drops the frame the same way, so transport-level peer death
// flows into the existing RankFailedError machinery.
func (w *World) deliver(worldDest int, m message) {
	if w.aborted.Load() {
		panic(&AbortedError{Err: w.abortReason()})
	}
	if w.failed[worldDest].Load() {
		// The dead rank will never release a pooled payload; do it here so
		// its chunk returns to the pool instead of leaking.
		buf.Release(m.Data)
		return
	}
	if err := w.xport.Send(worldDest, m); err != nil {
		w.markFailed(worldDest)
		buf.Release(m.Data)
	}
}

// enqueue is the inbound half of delivery: the frame lands in the
// destination rank's mailbox. The chan engine calls it synchronously from
// the sender's goroutine; the sock engine calls it from the reader
// goroutine of the connection the frame arrived on.
func (w *World) enqueue(worldDest int, m message) {
	w.boxes[worldDest].put(m)
	w.delivered.Add(1)
}

// enqueueInbound is the sock engine's delivery callback: enqueue plus
// receive-side accounting (the sending process recorded its half of the
// traffic in its own registry; this is the only place the receiving
// process sees the frame).
func (w *World) enqueueInbound(worldDest int, m *message) {
	if w.metrics != nil {
		w.mRecvs.Inc()
		w.mRecvBytes.Add(int64(len(m.Data)))
		if m.WorldSrc != worldDest {
			w.linkBytes[m.WorldSrc*w.size+worldDest].Add(int64(len(m.Data)))
		}
	}
	w.enqueue(worldDest, *m)
}
