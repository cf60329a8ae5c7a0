// Package lowfive is a Go implementation of LowFive, the in situ data
// transport layer for high-performance workflows described in Peterka et
// al., "LowFive: In Situ Data Transport for High-Performance Workflows"
// (IPDPS 2023).
//
// LowFive is a VOL (Virtual Object Layer) plugin under the HDF5-like data
// model of package lowfive/h5: applications keep writing and reading
// "files" of groups, datasets and attributes, and the plugin decides —
// per file-name pattern — whether the data goes to a container file on a
// (simulated) parallel file system, stays in an in-memory metadata
// hierarchy, is served in situ over MPI to the processes of another task,
// or any combination.
//
// The three VOL classes of the paper map to:
//
//   - Base VOL:        NewBaseVOL (native container-file I/O)
//   - Metadata VOL:    NewMetadataVOL (in-memory hierarchy + passthru)
//   - Dist. metadata:  NewDistMetadataVOL (index–serve–query over MPI)
//
// A minimal producer/consumer workflow:
//
//	mpi.RunWorkflow([]mpi.TaskSpec{
//	    {Name: "producer", Procs: 3, Main: func(p *mpi.Proc) {
//	        vol := lowfive.NewDistMetadataVOL(p.Task, nil)
//	        vol.SetIntercomm("*.h5", p.Intercomm("consumer"))
//	        fapl := h5.NewFileAccessProps(vol)
//	        f, _ := h5.CreateFile("step1.h5", fapl)
//	        // ... create groups/datasets, write local selections ...
//	        f.Close() // publishes the data and serves the consumer
//	    }},
//	    {Name: "consumer", Procs: 2, Main: func(p *mpi.Proc) {
//	        vol := lowfive.NewDistMetadataVOL(p.Task, nil)
//	        vol.SetIntercomm("*.h5", p.Intercomm("producer"))
//	        fapl := h5.NewFileAccessProps(vol)
//	        f, _ := h5.OpenFile("step1.h5", fapl)
//	        // ... open datasets, read any selections: data is
//	        //     redistributed from 3 producers to 2 consumers ...
//	        f.Close() // signals done
//	    }},
//	})
package lowfive

import (
	"lowfive/h5"
	"lowfive/internal/buf"
	"lowfive/internal/core"
	"lowfive/internal/native"
	"lowfive/internal/pfs"
	"lowfive/internal/stage"
	"lowfive/mpi"
	"lowfive/trace"
)

// MetadataVOL is the in-memory metadata hierarchy VOL (paper §III-A-b).
type MetadataVOL = core.MetadataVOL

// DistMetadataVOL is the distributed metadata VOL (paper §III-A-c).
type DistMetadataVOL = core.DistMetadataVOL

// ServeStats counts a producer rank's serve-side activity (requests
// answered, bytes served) for communication profiling.
type ServeStats = core.ServeStats

// QueryStats counts a consumer rank's query-side activity (requests issued,
// bytes fetched, time blocked waiting) — the mirror of ServeStats.
type QueryStats = core.QueryStats

// ServeHandle tracks an asynchronous serve session started with
// DistMetadataVOL.ServeAsync (set ServeOnClose to false first); Wait blocks
// until every consumer rank has signaled done.
type ServeHandle = core.ServeHandle

// Ownership selects deep copies or shallow (zero-copy) references for
// dataset writes recorded in the metadata hierarchy.
type Ownership = core.Ownership

// Ownership modes.
const (
	OwnDeep    = core.OwnDeep
	OwnShallow = core.OwnShallow
)

// Role restricts a data-intercommunicator registration to producing or
// consuming (for pipeline tasks that do both with one file pattern).
type Role = core.Role

// Intercommunicator roles.
const (
	RoleBoth    = core.RoleBoth
	RoleProduce = core.RoleProduce
	RoleConsume = core.RoleConsume
)

// Tracer records spans, counters and instants from every instrumented
// layer (mpi, vol, core, pfs) into per-rank tracks; export with WriteChrome
// (Perfetto-loadable) or WriteSummaryTable (per-task per-phase breakdown).
// Attach one to a workflow with mpi.WithTracer.
type Tracer = trace.Tracer

// Track is one rank's (or OST's) append-only event buffer. A nil Track is
// a valid no-op recorder, so tracing costs nothing when disabled.
type Track = trace.Track

// NewTracer creates an empty tracer whose time origin is now.
func NewTracer() *Tracer { return trace.New() }

// NewTracingVOL wraps any connector so every VOL operation (dataset reads
// and writes, attribute I/O, file and group lifecycle) is recorded on the
// given track with datatypes, selections and byte counts.
func NewTracingVOL(base h5.Connector, track *Track) *h5.TracingVOL {
	return h5.NewTracingVOL(base, track)
}

// OSTStat is the cumulative load of one simulated object storage target.
type OSTStat = pfs.OSTStat

// FS is a simulated striped parallel file system shared by the ranks of a
// workflow (the stand-in for Lustre).
type FS = pfs.FS

// FSOptions configure the simulated parallel file system.
type FSOptions = pfs.Options

// NewFS creates a simulated parallel file system.
func NewFS(opts FSOptions) *FS { return pfs.New(opts) }

// NewZeroCostFS creates a simulated file system without timing costs.
func NewZeroCostFS() *FS { return pfs.NewZeroCost() }

// DefaultFSOptions resembles a mid-size Lustre scratch allocation, scaled
// for laptop-speed runs.
func DefaultFSOptions() FSOptions { return pfs.DefaultOptions() }

// NewBaseVOL returns the Base VOL: native container-file I/O on a simulated
// parallel file system (the "pure HDF5" path of the paper's experiments).
func NewBaseVOL(fs *FS) h5.Connector { return native.New(native.PFSBackend(fs)) }

// NewOSBaseVOL returns a Base VOL storing container files as real files in
// a local directory (no simulated striping costs).
func NewOSBaseVOL(dir string) h5.Connector { return native.New(native.OSBackend(dir)) }

// NewMetadataVOL builds the metadata VOL over an optional base connector.
// With base nil, all files matching the (default "*") memory patterns live
// purely in memory.
func NewMetadataVOL(base h5.Connector) *MetadataVOL { return core.NewMetadataVOL(base) }

// NewDistMetadataVOL builds the distributed metadata VOL for one rank of a
// task. local is the task's communicator; base (optional) handles files
// that pass through to storage.
func NewDistMetadataVOL(local *mpi.Comm, base h5.Connector) *DistMetadataVOL {
	return core.NewDistMetadataVOL(local, base)
}

// --- streaming data plane ---

// ChunkPool is a bounded pool of fixed-size reference-counted chunks — the
// buffer plane of the streaming data path. Assign one to a
// DistMetadataVOL's ChunkPool field to give its streamed responses a
// private bound, and read its HighWater/Outstanding/Overflow counters to
// observe peak transport buffering.
type ChunkPool = buf.Pool

// NewChunkPool builds a pool of size-byte chunks with at most limit
// outstanding (limit <= 0 means unbounded).
func NewChunkPool(size, limit int) *ChunkPool { return buf.NewPool(size, limit) }

// DefaultChunkBytes is the default frame size of streamed data responses;
// override per VOL with DistMetadataVOL.ChunkBytes.
const DefaultChunkBytes = buf.DefaultChunkBytes

// --- fault injection and fault tolerance ---

// FaultPlan is a seeded, deterministic set of fault-injection rules. Attached
// to a workflow with mpi.WithFaultPlan, messages on matching user tags are
// delayed, dropped, duplicated or corrupted, links are partitioned or
// throttled, and a rule can crash or hang a rank. The same plan, as a sock
// world's mpi.SockWorldConfig.Wire, perturbs that process's connection
// writes instead. Each attach point rejects a rule it cannot honour. Use it
// to exercise the fault-tolerant transport (RPC retries, index
// replication, file fallback, reconnect and resend) under test.
type FaultPlan = mpi.FaultPlan

// FaultRule arms one fault of a FaultPlan.
type FaultRule = mpi.FaultRule

// FaultAction is the kind of perturbation a FaultRule injects.
type FaultAction = mpi.FaultAction

// Fault actions.
const (
	FaultDelay     = mpi.FaultDelay
	FaultDrop      = mpi.FaultDrop
	FaultDuplicate = mpi.FaultDuplicate
	FaultCorrupt   = mpi.FaultCorrupt
	FaultCrash     = mpi.FaultCrash
	FaultHang      = mpi.FaultHang
	FaultPartition = mpi.FaultPartition
	FaultThrottle  = mpi.FaultThrottle
)

// AnyRank matches every world rank in a FaultRule.
const AnyRank = mpi.AnyRank

// DstRank encodes world rank r as a FaultRule.Dst value, scoping the rule
// to one link direction (the zero Dst matches traffic to every rank).
func DstRank(r int) int { return mpi.DstRank(r) }

// RankFailedError is the typed failure a rank blocked on a crashed peer
// receives. The RPC layer converts it into an error value; raw mpi users
// recover it from the blocking call.
type RankFailedError = mpi.RankFailedError

// --- supervised workflows ---

// TaskFailure is the typed event a supervised run emits when a task rank
// crashes or its heartbeat expires; FailFast policies return it as the
// run's error.
type TaskFailure = mpi.TaskFailure

// Decision is a supervisor policy's answer to a TaskFailure.
type Decision = mpi.Decision

// Supervisor decisions.
const (
	FailWorkflow = mpi.FailWorkflow
	DegradeTask  = mpi.DegradeTask
	RestartTask  = mpi.RestartTask
)

// Supervisor configures the failure monitor of mpi.RunWorkflowSupervised
// (heartbeat deadline, failure policy, restart backoff). The workflow
// package's RunSupervised builds one from a declarative Policy.
type Supervisor = mpi.Supervisor

// WorkflowStats is what a supervised run observed (restarts per task,
// failure events, hang detections).
type WorkflowStats = mpi.WorkflowStats

// RejoinStats reports what a restarted producer rank rebuilt from its
// checkpoint container via DistMetadataVOL.Rejoin.
type RejoinStats = core.RejoinStats

// StageStore is the append-only, epoch-versioned replicated chunk log of
// staging mode: assign one to DistMetadataVOL.Stage (or workflow.Graph.Stage)
// and producers publish each file close as a committed epoch, consumers read
// epochs from the log, and restarted ranks recover by log replay instead of
// Rejoin + Reindex.
type StageStore = stage.Store

// StageOptions configures a StageStore (replication factor, metrics
// registry, GC behavior).
type StageOptions = stage.Options

// NewStageStore creates a staging store.
func NewStageStore(opts StageOptions) *StageStore { return stage.NewStore(opts) }

// ReplayStats reports what a restarted rank rebuilt by staging-log replay
// via DistMetadataVOL.StageReplay, including whether it degraded to the
// PFS container fallback.
type ReplayStats = core.ReplayStats
