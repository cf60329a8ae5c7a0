package core

import (
	"fmt"
	"sync"
	"time"

	"lowfive/h5"
	"lowfive/internal/buf"
	"lowfive/internal/grid"
	"lowfive/internal/rpc"
	"lowfive/internal/stage"
	"lowfive/metrics"
	"lowfive/mpi"
	"lowfive/trace"
)

// DistMetadataVOL is the top VOL class (§III-A-c): it extends the metadata
// VOL with distributed producer/consumer data exchange over MPI
// intercommunicators, implementing the index–serve–query redistribution of
// §III-B (Algorithms 1–3).
//
// Roles are implicit, as in LowFive: a task that creates a file matching a
// data intercomm pattern is a producer for it; closing that file builds the
// distributed index and serves consumer queries until every consumer rank
// has signaled done. A task that opens a file it does not hold locally, and
// that matches a data intercomm pattern, is a consumer: the open fetches the
// file's metadata from its partner producer rank, reads run Algorithm 3, and
// the close sends done.
type DistMetadataVOL struct {
	*MetadataVOL

	local *mpi.Comm

	intercomms   []*mpi.Intercomm
	dataPatterns []icPattern

	// ServeOnClose makes a producer's file close trigger Serve
	// automatically (the LowFive default). When false, the producer must
	// call Serve explicitly — this is the paper's future-work knob for
	// overlapping production with serving.
	ServeOnClose bool

	// CallTimeout bounds each consumer-side RPC attempt. Zero (the default)
	// keeps the original fail-stop behavior: calls block until answered or
	// the peer crashes. Setting it enables retries on lost or corrupted
	// messages and the failover/fallback paths below.
	CallTimeout time.Duration
	// CallRetries is the number of resends after a timed-out attempt.
	CallRetries int
	// CallBackoff is the wait before the first retry, doubling per retry.
	CallBackoff time.Duration
	// CallBudget bounds each consumer-side call end to end, however many
	// attempts the retry schedule would still allow; the deadline travels in
	// the request envelope so producers reject work nobody awaits. Zero
	// means per-attempt timeouts only.
	CallBudget time.Duration
	// HedgeDelay enables tail-latency hedging of queries that any of
	// several producer ranks can answer (metadata opens task-wide, box
	// queries across index replicas when ReplicationFactor > 1): if the
	// primary has not answered within this delay, the same request races a
	// replica and the first response wins. Per-rank response EWMAs pick the
	// hedge target and proactively demote a straggling shard to hedge
	// before its timeout. Zero disables hedging. Requires CallTimeout.
	HedgeDelay time.Duration

	// MaxInflightServes enables producer-side admission control on streamed
	// data queries: at most this many streams are dispatched concurrently
	// (no longer serialized under serveMu), excess requests wait in a
	// per-tenant weighted fair queue, and a full queue or an expired queue
	// deadline sheds the request with an overloaded reply carrying a
	// RetryAfter hint. Zero (the default) keeps the original fully
	// serialized, never-shedding serve path.
	MaxInflightServes int
	// TenantWeights sets the fair-queue share of each tenant (consumer
	// task), by the name registered with SetTenant. Admission under
	// contention is proportional to weight; unlisted tenants weigh 1.
	TenantWeights map[string]int
	// QueueDeadline bounds how long a request may wait for admission before
	// it is shed; it doubles as the RetryAfter hint in shed replies. Zero
	// defaults to 50ms (a deadline must exist, or an abandoned waiter could
	// wedge the serve teardown).
	QueueDeadline time.Duration
	// MaxQueuedPerTenant caps each tenant's admission queue; a request
	// arriving to a full queue is shed immediately. Zero defaults to 64.
	MaxQueuedPerTenant int
	// ShedRetries is how many overloaded replies a consumer-side call
	// absorbs (backing off by the carried RetryAfter) before giving up with
	// the typed overload error. Zero fails on the first shed.
	ShedRetries int
	// BreakerThreshold arms a per-(producer rank, method) circuit breaker on
	// the consumer side: after this many consecutive failures (sheds,
	// timeouts, crashes) of one request kind against one rank, such calls to
	// it fast-fail until BreakerCooldown elapses and a half-open probe
	// succeeds. Zero disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the breaker's open interval before a half-open
	// probe. Zero defaults to 25ms.
	BreakerCooldown time.Duration

	// ReplicationFactor stores each distributed-index entry on this many
	// consecutive ranks of the producer task ((owner+k) mod size), so a
	// consumer can re-route a redirect query around a failed owner. 0 or 1
	// means no replication. Producer and consumer must agree on the value.
	ReplicationFactor int

	// ChunkBytes is the frame size of streamed data responses. Zero uses
	// the default (buf.DefaultChunkBytes, 1 MiB); other sizes draw from a
	// process-wide pool shared by every vol configured with that size.
	// Smaller chunks bound peak transport memory tighter at the cost of
	// more per-frame overhead.
	ChunkBytes int
	// ChunkPool overrides the pool streamed frames are drawn from (mainly
	// for tests asserting the pool's high-water mark). Takes precedence
	// over ChunkBytes.
	ChunkPool *buf.Pool

	// WaitForRestart makes consumer-side RPC clients keep waiting when a
	// producer rank has crashed, instead of failing over immediately: under
	// a supervised workflow the producer may be relaunched, and retried
	// requests reach the fresh incarnation. The retry budget
	// (CallTimeout × CallRetries with backoff) bounds how long a restart
	// may take before the replica/file fallbacks kick in anyway.
	WaitForRestart bool

	// PersistOwnership records each producer rank's written regions into
	// the container file (as __lf_own_<rank> root attributes) when a served
	// file also passes through to storage. A restarted producer rank uses
	// them to Rejoin with its exact pre-crash ownership layout.
	PersistOwnership bool

	// Metrics, when set, records this rank's layer instruments: consumer
	// query latency ("core.query.latency_us") and producer serve latency
	// ("core.serve.latency_us") histograms, per-epoch served bytes/chunks
	// histograms, straggler demotions, and the rpc.client.*/rpc.server.*
	// instruments of every client and server this VOL creates.
	Metrics *metrics.Registry

	// Flight, when set, records every consumer data query slower than the
	// recorder's threshold as a structured SlowQuery — box, producer ranks,
	// attempts, hedging, bytes, and the per-phase breakdown (owner lookup
	// versus stream drain) — into a bounded ring for post-hoc dumps.
	Flight *metrics.FlightRecorder

	// Stage, when set, switches the VOL into staging mode: producer file
	// closes publish epochs into the append-only replicated chunk log
	// instead of serving RPC sessions, consumer opens and reads resolve
	// epoch → log offsets against the store, and restart recovery is log
	// replay (StageReplay) instead of Reindex/Rejoin re-serve.
	Stage *stage.Store
	// StageSubscriber is this rank's subscriber identity for staging
	// watermark acks (e.g. "task/rank"). Empty disables ack/GC
	// participation — reads then never advance the retention watermark.
	StageSubscriber string

	// OnServe, when set, is called with the file name every time this rank
	// starts serving a file (Serve or ServeAsync) — the supervised workflow
	// runner records served files so a restarted task knows what to
	// re-publish.
	OnServe func(name string)

	// OnDoneAcked, when set, is called on the consumer side each time a
	// done notification for a file has been acknowledged by one producer
	// rank; with CallTimeout 0 the done is an rpc notification, which is
	// never answered, and the call follows its send. A supervised runner
	// records these so a restarted producer can credit dones that will
	// never be resent (see CreditDone).
	OnDoneAcked func(ic *mpi.Intercomm, name string, producerRank int)

	// serveMu serializes request handling when several intercommunicators
	// are served concurrently (fan-out).
	serveMu sync.Mutex

	indexes map[string]*builtIndex // file -> the index build it is served under

	// lastIndex is this rank's last index build, which the next file of the
	// same layout reuses (see index.go). Only buildIndex touches it, and a
	// rank runs its builds one at a time: each is a collective.
	lastIndex *builtIndex

	// parked holds consumer requests for files not yet indexed on this rank
	// — e.g. a consumer racing ahead to the next timestep's file while we
	// are still writing it. They are answered when the file's serve session
	// starts (see replayParked).
	parked map[*mpi.Intercomm][]parkedReq

	// servers holds the per-intercommunicator receive loops that multiplex
	// (possibly overlapping) serve sessions.
	servers map[*mpi.Intercomm]*icServer

	// clients holds one RPC client per intercommunicator, shared across
	// file opens: the server deduplicates requests by (source rank,
	// sequence number), so all calls a rank makes over one intercomm must
	// draw from a single monotonic sequence.
	clients map[*mpi.Intercomm]*rpc.Client

	// health tracks per-producer-rank response-time EWMAs for each
	// intercommunicator this rank queries over, feeding hedge-target choice
	// and straggler demotion.
	health map[*mpi.Intercomm]*rankHealth

	// tenants names the consumer task behind each intercommunicator for
	// fair queueing; unnamed intercomms share the "default" tenant.
	tenants map[*mpi.Intercomm]string

	// adm is the producer-side admission controller, created lazily on the
	// first admitted request when MaxInflightServes > 0.
	admOnce sync.Once
	adm     *admission

	stats ServeStats

	// qmu guards qstats and redirects: the consumer side of a rank is
	// single-threaded, but stats may be read while an async serve session
	// is still running, and a file's reads may run concurrently.
	qmu    sync.Mutex
	qstats QueryStats

	// redirects holds the consumer's redirect records (Alg. 3 step 1), one
	// per (intercomm, dataset path), each tagged with the layout id it was
	// fetched under (see redirect.go).
	redirects map[redirectKey]*redirect

	// Instrument handles resolved once from Metrics, so the serve and query
	// paths never touch the registry lock. All nil (recording no-ops)
	// when Metrics is unset.
	instOnce    sync.Once
	mQueryLat   *metrics.Histogram
	mServeLat   *metrics.Histogram
	mEpochBytes *metrics.Histogram
	mEpochChunk *metrics.Histogram
	mDemotions  *metrics.Counter
}

// instruments lazily resolves the VOL's instrument handles. Metrics is
// assigned after construction, so resolution happens on first use instead
// of in NewDistMetadataVOL.
func (v *DistMetadataVOL) instruments() {
	v.instOnce.Do(func() {
		if v.Metrics == nil {
			return
		}
		v.mQueryLat = v.Metrics.Histogram("core.query.latency_us")
		v.mServeLat = v.Metrics.Histogram("core.serve.latency_us")
		v.mEpochBytes = v.Metrics.Histogram("core.serve.epoch_bytes")
		v.mEpochChunk = v.Metrics.Histogram("core.serve.epoch_chunks")
		v.mDemotions = v.Metrics.Counter("core.query.demotions")
	})
}

// ServeStats counts this rank's producer-side serve activity — the
// finer-grain communication profiling the paper lists as future work.
type ServeStats struct {
	// MetadataRequests is the number of file-metadata requests answered.
	MetadataRequests int64
	// BoxQueries is the number of redirect queries answered from the
	// distributed index (Alg. 2 lines 4-8). A consumer asks each owner once
	// per dataset per layout, however many files share that layout, so this
	// counts redirect fetches, not reads or files; it equals the consumers'
	// QueryStats.BoxQueries.
	BoxQueries int64
	// DataQueries is the number of data queries served (Alg. 2 lines 9-14).
	DataQueries int64
	// BytesServed is the total payload bytes of data responses.
	BytesServed int64
	// DoneMessages is the number of consumer done notifications received.
	DoneMessages int64
	// ParkedRequests counts requests that arrived before their file was
	// indexed on this rank; each is counted once and answered when the
	// file's serve session starts.
	ParkedRequests int64
	// ChunksServed is the number of stream frames sent for data queries.
	ChunksServed int64
	// Shed counts requests refused by admission control (overloaded reply
	// sent instead of a stream).
	Shed int64
	// Queued counts admitted requests that had to wait in the fair queue
	// (did not fast-path past an idle controller).
	Queued int64
	// QueueP99 is the 99th-percentile admission queue wait.
	QueueP99 time.Duration
}

// Add folds o into s, as when summing the ranks of a task: QueueP99 keeps
// the larger tail, every other field is summed.
func (s *ServeStats) Add(o ServeStats) {
	s.MetadataRequests += o.MetadataRequests
	s.BoxQueries += o.BoxQueries
	s.DataQueries += o.DataQueries
	s.BytesServed += o.BytesServed
	s.DoneMessages += o.DoneMessages
	s.ParkedRequests += o.ParkedRequests
	s.ChunksServed += o.ChunksServed
	s.Shed += o.Shed
	s.Queued += o.Queued
	s.QueueP99 = max(s.QueueP99, o.QueueP99)
}

// QueryStats counts this rank's consumer-side query activity (Alg. 3) —
// the mirror of ServeStats that makes both ends of an exchange measurable.
type QueryStats struct {
	// MetadataFetches is the number of remote file opens (metadata
	// requests issued to a producer rank).
	MetadataFetches int64
	// BoxQueries is the number of redirect queries issued to the owners of
	// intersecting common-decomposition blocks (Alg. 3 step 1). Each owner
	// is asked once per dataset per layout: later reads, and later files
	// whose metadata carries the same layout id, use its cached answer, so
	// this counts redirect fetches, not reads or files. In a time loop
	// whose decomposition holds, it stops growing after the first step.
	BoxQueries int64
	// DataQueries is the number of data requests issued to producers that
	// hold intersecting boxes (Alg. 3 step 2).
	DataQueries int64
	// BytesFetched is the total payload bytes of data responses received.
	BytesFetched int64
	// WaitTime is the cumulative wall time this rank spent blocked waiting
	// for producers to answer (serve-wait time).
	WaitTime time.Duration
	// Failovers counts queries re-routed to a replica owner or an alternate
	// producer rank after the primary failed.
	Failovers int64
	// FileFallbacks counts reads and opens that degraded to the parallel
	// file system after the in-memory transport failed.
	FileFallbacks int64
	// ChunksFetched is the number of stream frames received for data
	// queries.
	ChunksFetched int64
	// Retries counts RPC attempts resent beyond each call's first send.
	Retries int64
	// HedgedCalls counts queries whose hedge request was actually sent
	// (the primary missed the hedge delay).
	HedgedCalls int64
	// HedgeWins counts hedged queries the hedge rank answered first.
	HedgeWins int64
	// StragglersDemoted counts queries routed away from their preferred
	// rank because its response EWMA marked it a straggler.
	StragglersDemoted int64
	// Sheds counts overloaded (load-shed) replies this rank's queries
	// absorbed from saturated producers.
	Sheds int64
	// BreakerOpens counts circuit-breaker transitions to open across this
	// rank's RPC clients.
	BreakerOpens int64
}

// Add sums o into q field by field, as when summing the ranks of a task.
func (q *QueryStats) Add(o QueryStats) {
	q.MetadataFetches += o.MetadataFetches
	q.BoxQueries += o.BoxQueries
	q.DataQueries += o.DataQueries
	q.BytesFetched += o.BytesFetched
	q.WaitTime += o.WaitTime
	q.Failovers += o.Failovers
	q.FileFallbacks += o.FileFallbacks
	q.ChunksFetched += o.ChunksFetched
	q.Retries += o.Retries
	q.HedgedCalls += o.HedgedCalls
	q.HedgeWins += o.HedgeWins
	q.StragglersDemoted += o.StragglersDemoted
	q.Sheds += o.Sheds
	q.BreakerOpens += o.BreakerOpens
}

type parkedReq struct {
	src int
	seq uint64
	req request
}

type icPattern struct {
	pat  string
	role Role
	ics  []int // indices into intercomms
}

// Role restricts which operations a data intercommunicator registration
// applies to — needed by pipeline tasks that both consume a pattern from an
// upstream task and produce it for a downstream one.
type Role uint8

const (
	// RoleBoth serves created files and opens missing ones (the default).
	RoleBoth Role = iota
	// RoleProduce only serves files this task creates.
	RoleProduce
	// RoleConsume only opens files from the remote task.
	RoleConsume
)

type indexEntry struct {
	box grid.Box
	src int // producer rank that wrote the box
}

// NewDistMetadataVOL builds the distributed VOL for one rank of a task.
// local is the task's communicator; base (optional) handles file passthru.
func NewDistMetadataVOL(local *mpi.Comm, base h5.Connector) *DistMetadataVOL {
	return &DistMetadataVOL{
		MetadataVOL:  NewMetadataVOL(base),
		local:        local,
		ServeOnClose: true,
		indexes:      map[string]*builtIndex{},
		parked:       map[*mpi.Intercomm][]parkedReq{},
	}
}

// ConnectorName implements h5.Connector.
func (v *DistMetadataVOL) ConnectorName() string { return "lowfive-dist-metadata" }

// track returns this rank's recording track (nil when the world has no
// tracer), so index/serve/query phases appear on the same per-rank timeline
// as the mpi operations they are built from.
func (v *DistMetadataVOL) track() *trace.Track {
	if v.local == nil {
		return nil
	}
	return v.local.Track()
}

// SetIntercomm routes files matching the glob pattern over the given
// intercommunicators in both roles: files this task creates are served to
// the remote task (fan-out over all of them); files it opens are fetched
// from the first.
func (v *DistMetadataVOL) SetIntercomm(filePat string, ics ...*mpi.Intercomm) {
	v.SetIntercommRole(filePat, RoleBoth, ics...)
}

// SetIntercommRole is the direction-aware registration used by pipeline
// tasks that consume a pattern from an upstream task (RoleConsume) and
// produce the same pattern for a downstream one (RoleProduce).
func (v *DistMetadataVOL) SetIntercommRole(filePat string, role Role, ics ...*mpi.Intercomm) {
	var idx []int
	for _, ic := range ics {
		found := -1
		for i, have := range v.intercomms {
			if have == ic {
				found = i
				break
			}
		}
		if found < 0 {
			v.intercomms = append(v.intercomms, ic)
			found = len(v.intercomms) - 1
		}
		idx = append(idx, found)
	}
	v.dataPatterns = append(v.dataPatterns, icPattern{pat: filePat, role: role, ics: idx})
}

// SetTenant names the consumer task behind an intercommunicator for
// admission control: requests arriving over ic are queued (and weighted,
// via TenantWeights) under this tenant. Unnamed intercomms share the
// "default" tenant. Call before serving starts.
func (v *DistMetadataVOL) SetTenant(ic *mpi.Intercomm, name string) {
	v.serveMu.Lock()
	if v.tenants == nil {
		v.tenants = map[*mpi.Intercomm]string{}
	}
	v.tenants[ic] = name
	v.serveMu.Unlock()
}

// tenantOf returns the tenant name of an intercommunicator.
func (v *DistMetadataVOL) tenantOf(ic *mpi.Intercomm) string {
	v.serveMu.Lock()
	defer v.serveMu.Unlock()
	if name, ok := v.tenants[ic]; ok {
		return name
	}
	return "default"
}

// admission returns the producer-side admission controller, or nil when
// MaxInflightServes is unset (the legacy serialized serve path).
func (v *DistMetadataVOL) admission() *admission {
	if v.MaxInflightServes <= 0 {
		return nil
	}
	v.admOnce.Do(func() {
		v.adm = newAdmission(v.MaxInflightServes, v.QueueDeadline,
			v.MaxQueuedPerTenant, v.TenantWeights, v.chunkPool(), v.Metrics)
	})
	return v.adm
}

// fileIntercomms returns the intercomms registered for a file name in a
// role compatible with want.
func (v *DistMetadataVOL) fileIntercomms(name string, want Role) []*mpi.Intercomm {
	var out []*mpi.Intercomm
	for _, p := range v.dataPatterns {
		if p.role != RoleBoth && want != RoleBoth && p.role != want {
			continue
		}
		if matchPattern(p.pat, name) {
			for _, i := range p.ics {
				out = append(out, v.intercomms[i])
			}
		}
	}
	return out
}

// FileCreate implements h5.Connector: it creates the file through the
// metadata VOL and, if the file is exchanged over an intercomm, hooks the
// close to index + serve.
func (v *DistMetadataVOL) FileCreate(name string, fapl *h5.FileAccessProps) (h5.FileHandle, error) {
	fh, err := v.MetadataVOL.FileCreate(name, fapl)
	if err != nil {
		return nil, err
	}
	mf := fh.(*metaFile)
	if ics := v.fileIntercomms(name, RoleProduce); len(ics) > 0 && mf.node != nil {
		// A re-created file is not answerable until its new index is built.
		v.serveMu.Lock()
		delete(v.indexes, name)
		v.serveMu.Unlock()
		mf.closeHook = func(f *metaFile) error {
			if !v.ServeOnClose {
				return nil
			}
			if v.Stage != nil {
				return v.stagePublish(f.name)
			}
			return v.Serve(f.name)
		}
	}
	return mf, nil
}

// FileOpen implements h5.Connector: local in-memory files win; otherwise a
// file matching a data intercomm pattern is opened remotely from the
// producer task; otherwise the open passes through to the base connector.
func (v *DistMetadataVOL) FileOpen(name string, fapl *h5.FileAccessProps) (h5.FileHandle, error) {
	if fn, ok := v.File(name); ok && v.memoryOn(name) {
		return &metaFile{vol: v.MetadataVOL, name: name, node: fn.Node}, nil
	}
	if ics := v.fileIntercomms(name, RoleConsume); len(ics) > 0 {
		if v.Stage != nil {
			return v.openStaged(name, ics[0])
		}
		return v.openRemote(name, ics[0])
	}
	return v.MetadataVOL.FileOpen(name, fapl)
}

// --- producer side ---

// Serve builds the distributed index for the named local file (Alg. 1) and
// answers consumer queries (Alg. 2) until every consumer rank on every
// intercomm registered for the file has sent done. It must be called
// collectively by all producer ranks (file close does this automatically
// when ServeOnClose is set).
func (v *DistMetadataVOL) Serve(name string) error {
	fn, ok := v.File(name)
	if !ok {
		return fmt.Errorf("lowfive: Serve(%q): file not in memory", name)
	}
	ics := v.fileIntercomms(name, RoleProduce)
	if len(ics) == 0 {
		return fmt.Errorf("lowfive: Serve(%q): no intercomm registered", name)
	}
	if err := v.buildIndex(fn, false); err != nil {
		return err
	}
	if err := v.persistOwnership(fn); err != nil {
		return err
	}
	if v.OnServe != nil {
		v.OnServe(name)
	}
	// Serve all intercomms concurrently (fan-out); request handling is
	// serialized by serveMu, preserving single-threaded rank semantics.
	before := v.Stats()
	var wg sync.WaitGroup
	errs := make([]error, len(ics))
	for i, ic := range ics {
		wg.Add(1)
		go func(i int, ic *mpi.Intercomm) {
			defer wg.Done()
			errs[i] = v.serveIntercomm(name, ic)
		}(i, ic)
	}
	wg.Wait()
	// With admission control on, wait out any still-running or queued
	// stream goroutines before declaring the epoch done: no admitted stream
	// may outlive its session, and no pooled chunk may be left in a
	// half-written frame.
	if adm := v.admission(); adm != nil {
		adm.quiesce()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	v.recordEpoch(before)
	return nil
}

// recordEpoch folds one completed serve session into the per-epoch
// histograms: the deltas of the serve counters across the session are what
// this epoch actually moved.
func (v *DistMetadataVOL) recordEpoch(before ServeStats) {
	if v.Metrics == nil {
		return
	}
	v.instruments()
	after := v.Stats()
	v.mEpochBytes.Record(after.BytesServed - before.BytesServed)
	v.mEpochChunk.Record(after.ChunksServed - before.ChunksServed)
}

// ServeHandle tracks an asynchronous serve session started by ServeAsync.
type ServeHandle struct {
	done chan error
}

// Wait blocks until the serve session completes (every consumer rank has
// sent done) and returns its error.
func (h *ServeHandle) Wait() error { return <-h.done }

// ServeAsync is the paper's future-work overlap: it builds the index
// synchronously (a collective over the producer task, so all producer
// ranks must call it together) and then serves consumers from a background
// goroutine, returning immediately so the producer can compute — and even
// write the next timestep's file — while the previous one is consumed.
// Call Wait before mutating or removing the served file's data; with
// shallow (zero-copy) datasets that includes the user buffers.
func (v *DistMetadataVOL) ServeAsync(name string) (*ServeHandle, error) {
	fn, ok := v.File(name)
	if !ok {
		return nil, fmt.Errorf("lowfive: ServeAsync(%q): file not in memory", name)
	}
	ics := v.fileIntercomms(name, RoleProduce)
	if len(ics) == 0 {
		return nil, fmt.Errorf("lowfive: ServeAsync(%q): no intercomm registered", name)
	}
	// The index exchange stays synchronous: it is collective over the
	// producer ranks, and overlapping two collectives would reorder them.
	if err := v.buildIndex(fn, false); err != nil {
		return nil, err
	}
	if err := v.persistOwnership(fn); err != nil {
		return nil, err
	}
	if v.OnServe != nil {
		v.OnServe(name)
	}
	h := &ServeHandle{done: make(chan error, 1)}
	before := v.Stats()
	go func() {
		var wg sync.WaitGroup
		errs := make([]error, len(ics))
		for i, ic := range ics {
			wg.Add(1)
			go func(i int, ic *mpi.Intercomm) {
				defer wg.Done()
				errs[i] = v.serveIntercomm(name, ic)
			}(i, ic)
		}
		wg.Wait()
		if adm := v.admission(); adm != nil {
			adm.quiesce()
		}
		var first error
		for _, err := range errs {
			if err != nil {
				first = err
				break
			}
		}
		if first == nil {
			v.recordEpoch(before)
		}
		h.done <- first
	}()
	return h, nil
}

// icServer multiplexes serve sessions for one intercommunicator: a single
// receive loop dispatches requests (for any file) and routes done messages
// to the session that is waiting for them, so an asynchronous serve of one
// timestep's file can overlap the next one's session without the two
// stealing each other's messages.
type icServer struct {
	ic  *mpi.Intercomm
	srv *rpc.Server

	mu          sync.Mutex
	sessions    map[string]*serveSession
	pendingDone map[string]int // dones that arrived before their session
	running     bool
}

type serveSession struct {
	want, got int
	finished  chan struct{}
}

func (v *DistMetadataVOL) icServerFor(ic *mpi.Intercomm) *icServer {
	v.serveMu.Lock()
	defer v.serveMu.Unlock()
	if v.servers == nil {
		v.servers = map[*mpi.Intercomm]*icServer{}
	}
	s, ok := v.servers[ic]
	if !ok {
		s = &icServer{
			ic:          ic,
			srv:         &rpc.Server{IC: ic, Metrics: v.Metrics},
			sessions:    map[string]*serveSession{},
			pendingDone: map[string]int{},
		}
		v.servers[ic] = s
	}
	return s
}

// serveIntercomm implements Algorithm 2 for one intercommunicator: answer
// redirect and data queries until all remote ranks sent done for this file.
// The file is indexed by now, so requests for it that arrived early are
// answered first — whether or not the receive loop is already running for
// another session.
func (v *DistMetadataVOL) serveIntercomm(name string, ic *mpi.Intercomm) error {
	if tr := v.track(); tr != nil {
		t0 := tr.Begin()
		defer func() { tr.End(t0, "core", "serve", trace.Str("file", name)) }()
	}
	s := v.icServerFor(ic)
	v.replayParked(s)

	// Register the session, consuming any dones that arrived early.
	s.mu.Lock()
	sess := &serveSession{want: ic.RemoteSize(), finished: make(chan struct{})}
	sess.got = s.pendingDone[name]
	delete(s.pendingDone, name)
	if sess.got >= sess.want {
		close(sess.finished)
		s.mu.Unlock()
		return nil
	}
	s.sessions[name] = sess
	startLoop := !s.running
	if startLoop {
		s.running = true
	}
	s.mu.Unlock()

	if startLoop {
		go v.serveLoop(s)
	}
	// The serve loop runs on a helper goroutine; an injected crash of this
	// rank fires there, so also watch the world's failure signal — otherwise
	// the crashed rank's main goroutine would wait here forever.
	w := v.local.World()
	self := v.local.WorldRank(v.local.Rank())
	select {
	case <-sess.finished:
	case <-w.FailedChan(self):
		return &mpi.RankFailedError{Rank: self}
	}
	if w.RankFailed(self) {
		return &mpi.RankFailedError{Rank: self}
	}
	return nil
}

// serveLoop is the single receiver for an intercommunicator. It receives
// until every registered session has finished, exiting so a blocked receive
// never outlives the rank. A crash of this rank (or a world abort) unwinds
// here: the loop releases every waiting session instead of killing the
// process with an unhandled panic.
func (v *DistMetadataVOL) serveLoop(s *icServer) {
	defer func() {
		if r := recover(); r != nil {
			if !mpi.IsHaltPanic(r) {
				panic(r)
			}
			s.mu.Lock()
			for name, sess := range s.sessions {
				delete(s.sessions, name)
				close(sess.finished)
			}
			s.running = false
			s.mu.Unlock()
		}
	}()
	for {
		s.mu.Lock()
		active := len(s.sessions)
		if active == 0 {
			s.running = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		src, seq, raw := s.srv.Recv()
		v.processRequest(s, src, seq, raw)
	}
}

// processRequest decodes one request — once, with the one decoder for
// every op — and dispatches it. Nothing makes an undecodable request
// answerable, so it is answered empty instead of parked forever.
func (v *DistMetadataVOL) processRequest(s *icServer, src int, seq uint64, raw []byte) {
	req, err := decodeRequest(raw)
	if err != nil {
		if req.op == opDataStream {
			s.srv.NewStream(src, seq, v.chunkPool()).Close()
		} else {
			s.srv.Respond(src, seq, encodeBoxesResp(nil, 0))
		}
		return
	}
	v.dispatch(s, src, seq, req)
}

// replayParked answers the requests parked on s whose file has been indexed
// since they arrived. A crash of this rank mid-replay unwinds here; the
// session wait that follows reports it.
func (v *DistMetadataVOL) replayParked(s *icServer) {
	defer func() {
		if r := recover(); r != nil && !mpi.IsHaltPanic(r) {
			panic(r)
		}
	}()
	v.serveMu.Lock()
	var ready []parkedReq
	waiting := v.parked[s.ic][:0]
	for _, pr := range v.parked[s.ic] {
		if _, ok := v.indexes[pr.req.file]; ok {
			ready = append(ready, pr)
		} else {
			waiting = append(waiting, pr)
		}
	}
	v.parked[s.ic] = waiting
	v.serveMu.Unlock()
	for _, pr := range ready {
		v.dispatch(s, pr.src, pr.seq, pr.req)
	}
}

// dispatch is the one dispatch for a decoded consumer request. A done
// is always taken; anything else is answerable only once its file is
// indexed on this rank — created, or even closed, is not enough, since a
// half-built tree or a missing index would answer with a partial hierarchy,
// an empty redirect list or an empty stream, and the consumer would read
// zeros without an error. Unanswerable requests park until the file's serve
// session starts. An answerable request is answered inline (metadata and
// redirect queries), streamed under serveMu, or streamed from an admitted
// goroutine (MaxInflightServes > 0).
func (v *DistMetadataVOL) dispatch(s *icServer, src int, seq uint64, req request) {
	v.instruments()
	var t0 time.Time
	tr := v.track()
	if tr != nil || v.mServeLat != nil {
		t0 = time.Now()
	}
	v.serveMu.Lock()
	if req.op == opDone {
		v.stats.DoneMessages++
		v.serveMu.Unlock()
		v.observeServe(req, t0, 0)
		// Acknowledge before the session bookkeeping: a consumer with a
		// CallTimeout sends its done as a call and blocks on this ack, and
		// the server's dedup cache makes a retried done count once. A done
		// sent as a notification (CallTimeout 0) reads no ack, so rpc sends
		// none for it.
		s.srv.Respond(src, seq, []byte{1})
		s.mu.Lock()
		if sess, ok := s.sessions[req.file]; ok {
			sess.got++
			if sess.got >= sess.want {
				delete(s.sessions, req.file)
				close(sess.finished)
			}
		} else {
			// Done for a session not yet registered (another rank's close
			// raced ahead); credit it when the session starts.
			s.pendingDone[req.file]++
		}
		s.mu.Unlock()
		return
	}
	if _, indexed := v.indexes[req.file]; !indexed {
		v.parked[s.ic] = append(v.parked[s.ic], parkedReq{src: src, seq: seq, req: req})
		v.stats.ParkedRequests++
		v.serveMu.Unlock()
		return
	}
	switch adm := v.admission(); {
	case req.op != opDataStream:
		resp := v.answer(req)
		v.serveMu.Unlock()
		v.observeServe(req, t0, len(resp))
		s.srv.Respond(src, seq, resp)
	case adm != nil:
		v.serveMu.Unlock()
		// Dispatch on a goroutine so the receive loop keeps draining (and
		// shedding) while up to MaxInflightServes streams run concurrently.
		// Goroutine count is bounded by the requests actually in flight:
		// each one either holds an admission slot, waits in a capped tenant
		// queue, or sheds within the queue deadline.
		go v.serveDataStreamAdmitted(adm, s, src, seq, req)
	default:
		// Admission control off: the whole stream runs under serveMu,
		// preserving single-threaded rank semantics. A halt mid-stream (this
		// rank crashed, or the world was torn down) unwinds to serveLoop's
		// recover, so the unlock is deferred: the rank's main goroutine may
		// still reach FileCreate, which takes serveMu.
		defer v.serveMu.Unlock()
		v.countStream(v.streamResponse(s, src, seq, req))
	}
}

// answer builds the response to an answerable metadata or redirect query;
// the caller holds serveMu. A metadata answer carries the layout id of the
// file's index build. A redirect query is answered with all of this rank's
// index entries for the dataset, not just those meeting the read: the
// entries follow from the build, so the consumer fetches them once per
// layout id.
func (v *DistMetadataVOL) answer(req request) []byte {
	b := v.indexes[req.file]
	if req.op == opMetadata {
		v.stats.MetadataRequests++
		fn, _ := v.File(req.file) // nil once the file was removed after serving
		return encodeMetadataResp(fn, b.id)
	}
	v.stats.BoxQueries++
	return encodeBoxesResp(b.idx[req.dset], req.box.Dim())
}

// observeServe records one inline-answered request into the serve-latency
// histogram and the trace.
func (v *DistMetadataVOL) observeServe(req request, t0 time.Time, bytes int) {
	if v.mServeLat != nil {
		v.mServeLat.Observe(time.Since(t0))
	}
	if tr := v.track(); tr != nil {
		tr.Span("core", "serve."+opName(req.op), t0, time.Now(),
			trace.Str("file", req.file), trace.I64("bytes", int64(bytes)))
	}
}

// opName names a protocol op for trace spans.
func opName(op uint8) string {
	switch op {
	case opMetadata:
		return "metadata"
	case opBoxes:
		return "boxes"
	case opDone:
		return "done"
	case opDataStream:
		return "datastream"
	default:
		return "unknown"
	}
}

// Stats returns a snapshot of this rank's producer-side serve counters.
// Admission-control counters are folded in at snapshot time.
func (v *DistMetadataVOL) Stats() ServeStats {
	v.serveMu.Lock()
	s := v.stats
	v.serveMu.Unlock()
	if adm := v.admission(); adm != nil {
		as := adm.stats()
		s.Shed = as.shed
		s.Queued = as.queued
		s.QueueP99 = as.queueP99
	}
	return s
}

// QueryStats returns a snapshot of this rank's consumer-side query counters.
// The RPC clients' retry and hedging counters are folded in at snapshot
// time, so the caller sees one coherent view of the rank's query effort.
func (v *DistMetadataVOL) QueryStats() QueryStats {
	v.qmu.Lock()
	defer v.qmu.Unlock()
	qs := v.qstats
	for _, c := range v.clients {
		cs := c.Stats()
		qs.Retries += cs.Retries
		qs.HedgedCalls += cs.HedgedCalls
		qs.HedgeWins += cs.HedgeWins
		qs.Sheds += cs.Sheds
		qs.BreakerOpens += cs.BreakerOpens
	}
	return qs
}

// --- consumer side ---

// clientFor returns this rank's RPC client for an intercommunicator,
// creating it on first use with the VOL's fault-tolerance settings (all
// zero by default: fail-stop semantics). Set CallTimeout/CallRetries/
// CallBackoff before the first remote open.
func (v *DistMetadataVOL) clientFor(ic *mpi.Intercomm) *rpc.Client {
	v.qmu.Lock()
	defer v.qmu.Unlock()
	if v.clients == nil {
		v.clients = map[*mpi.Intercomm]*rpc.Client{}
	}
	c, ok := v.clients[ic]
	if !ok {
		c = &rpc.Client{
			IC: ic, Timeout: v.CallTimeout, Retries: v.CallRetries,
			Backoff: v.CallBackoff, RetryFailed: v.WaitForRestart,
			Budget: v.CallBudget, HedgeDelay: v.HedgeDelay, Track: v.track(),
			Metrics: v.Metrics, Method: rpcMethod,
			ShedRetries:      v.ShedRetries,
			BreakerThreshold: v.BreakerThreshold,
			BreakerCooldown:  v.BreakerCooldown,
		}
		v.clients[ic] = c
	}
	return c
}

// rpcMethod classifies a request body by its protocol op so the RPC client
// can label its per-method latency histograms ("rpc.client.call_us.boxes",
// ".datastream", ...).
func rpcMethod(req []byte) string {
	if len(req) == 0 {
		return "unknown"
	}
	return opName(req[0])
}

// CreditDone pre-credits n consumer done notifications for a file's next
// serve session on this intercommunicator. A restarted producer rank calls
// it before re-serving: consumers that already had their done acknowledged
// by the previous incarnation will never resend it, so the fresh session
// must not wait for them.
func (v *DistMetadataVOL) CreditDone(ic *mpi.Intercomm, name string, n int) {
	if n <= 0 {
		return
	}
	s := v.icServerFor(ic)
	s.mu.Lock()
	s.pendingDone[name] += n
	s.mu.Unlock()
}

// persistOwnership records every rank's written regions into the container
// file as root attributes (__lf_own_<rank>: encoded dataset path + region
// boxes). The lists are allgathered over the producer task so EVERY rank
// writes the complete, identical attribute set — the native connector
// persists whichever rank's metadata block lands last at close, and that is
// only safe when the blocks agree (the base VOL's idempotent-close
// contract). No-op unless PersistOwnership is set and the file passes
// through to storage.
func (v *DistMetadataVOL) persistOwnership(fn *FileNode) error {
	if !v.PersistOwnership || v.base == nil || !v.passthruOn(fn.FileName) {
		return nil
	}
	e := &h5.Encoder{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Kind == h5.KindDataset && len(n.Triples) > 0 {
			var boxes []grid.Box
			for _, tr := range n.Triples {
				boxes = append(boxes, tr.FileSpace.SelectionBoxes()...)
			}
			if len(boxes) > 0 {
				e.PutString(n.Path())
				e.PutI64(int64(len(boxes)))
				for _, b := range boxes {
					encodeBox(e, b)
				}
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(fn.Node)
	// Open before the allgather, write after it: the allgather then fences
	// every rank's read of the container's metadata block from every
	// rank's rewrite of it. A rank opening while a peer already closes
	// would read the old block length over the new, longer block.
	bh, openErr := v.base.FileOpen(fn.FileName, nil)
	all := v.local.Allgather(e.Buf)
	if openErr != nil {
		return fmt.Errorf("lowfive: persisting ownership of %q: %w", fn.FileName, openErr)
	}
	for k, blob := range all {
		if len(blob) == 0 {
			continue
		}
		sp := h5.NewSimple(int64(len(blob)))
		if err := bh.AttributeWrite(fmt.Sprintf("%s%d", ownPrefix, k), h5.U8, sp, blob); err != nil {
			bh.Close()
			return err
		}
	}
	return bh.Close()
}

func (v *DistMetadataVOL) openRemote(name string, ic *mpi.Intercomm) (h5.FileHandle, error) {
	client := v.clientFor(ic)
	n := ic.RemoteSize()
	partner := ic.LocalRank() % n
	tr := v.track()
	var root *Node
	var id uint64
	var lastErr error
	// Any producer rank can answer a metadata request (the hierarchy is
	// replicated task-wide), so fail over through all of them before giving
	// up on the in-memory transport. With hedging on, the first attempt
	// races the partner against the healthiest of the other ranks (every
	// rank is a metadata replica), so a straggling partner costs a hedge
	// delay instead of a timeout ladder.
	for k := 0; k < n; k++ {
		p := (partner + k) % n
		t0 := time.Now()
		var resp []byte
		var err error
		if k == 0 && v.hedging() {
			resp, err = v.hedgedCall(client, ic, p, n, n, encodeMetadataReq(name))
		} else {
			resp, err = client.Call(p, encodeMetadataReq(name))
		}
		wait := time.Since(t0)
		if tr != nil {
			tr.Span("core", "query.metadata", t0, time.Now(),
				trace.Str("file", name), trace.I64("bytes", int64(len(resp))))
		}
		v.qmu.Lock()
		v.qstats.MetadataFetches++
		v.qstats.WaitTime += wait
		if k > 0 {
			v.qstats.Failovers++
		}
		v.qmu.Unlock()
		if err != nil {
			lastErr = err
			if tr != nil {
				tr.Instant("core", "query.failover",
					trace.Str("file", name), trace.I64("rank", int64(p)))
			}
			continue
		}
		root, id, err = decodeMetadataResp(resp)
		if err != nil {
			return nil, fmt.Errorf("lowfive: opening %q remotely: %w", name, err)
		}
		break
	}
	if root == nil {
		// Every producer rank is unreachable: degrade to the paper's file
		// transport if the file also went to storage.
		if fh, ferr := v.fileFallbackOpen(name); ferr == nil {
			return fh, nil
		}
		return nil, fmt.Errorf("lowfive: opening %q remotely: %w", name, lastErr)
	}
	return v.newRemoteFile(name, root, &liveSource{ic: ic, client: client, id: id}), nil
}

// fileFallbackOpen opens the named file through the base connector (full
// file mode) when the in-memory transport is unreachable.
func (v *DistMetadataVOL) fileFallbackOpen(name string) (h5.FileHandle, error) {
	if v.base == nil {
		return nil, fmt.Errorf("lowfive: no base connector for file fallback of %q", name)
	}
	bh, err := v.base.FileOpen(name, nil)
	if err != nil {
		return nil, err
	}
	v.qmu.Lock()
	v.qstats.FileFallbacks++
	v.qmu.Unlock()
	if tr := v.track(); tr != nil {
		tr.Instant("core", "query.file-fallback", trace.Str("file", name))
	}
	return &metaFile{vol: v.MetadataVOL, name: name, base: bh}, nil
}

// callReplicas retries a failed query on the replica owners of a block:
// (owner+k) mod n for k < repl, which hold the same index entries when the
// producer built the index with the matching ReplicationFactor.
func (v *DistMetadataVOL) callReplicas(client *rpc.Client, owner, repl, n int, req []byte) ([]byte, error) {
	var lastErr error
	for k := 0; k < repl; k++ {
		dest := (owner + k) % n
		resp, err := client.Call(dest, req)
		if err == nil {
			if k > 0 {
				v.qmu.Lock()
				v.qstats.Failovers++
				v.qmu.Unlock()
				if tr := v.track(); tr != nil {
					tr.Instant("core", "query.failover",
						trace.I64("owner", int64(owner)), trace.I64("replica", int64(dest)))
				}
			}
			return resp, nil
		}
		lastErr = err
	}
	return nil, lastErr
}
