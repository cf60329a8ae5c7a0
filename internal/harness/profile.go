package harness

import (
	"sync"

	"lowfive/h5"
	"lowfive/internal/core"
	"lowfive/internal/native"
	"lowfive/internal/pfs"
	"lowfive/internal/workload"
	"lowfive/mpi"
	"lowfive/trace"
)

// ProfileStats aggregates the counters of one profiled exchange across all
// ranks: the producers' serve side, the consumers' query side, and the file
// system's per-OST load.
type ProfileStats struct {
	// Serve sums the producer ranks' ServeStats.
	Serve core.ServeStats
	// Query sums the consumer ranks' QueryStats.
	Query core.QueryStats
	// OSTs is the per-OST load of the simulated file system.
	OSTs []pfs.OSTStat
}

// Profile runs one fully instrumented producer–consumer exchange and
// records it into tr. The exchange uses LowFive's "both" mode — the
// producers serve the data in situ over the intercommunicator and
// simultaneously write it through to the simulated parallel file system —
// so a single run exercises, and traces, every layer: mpi sends/recvs and
// collectives, VOL-level dataset operations, the core index/serve/query
// phases, and per-OST file-system requests.
func (c Config) Profile(tr *trace.Tracer, spec workload.Spec) (ProfileStats, error) {
	fs := pfs.New(c.FS)
	fs.SetTracer(tr)
	if c.Metrics != nil {
		fs.SetMetrics(c.Metrics)
	}

	var (
		mu    sync.Mutex
		stats ProfileStats
	)
	var errs errCollector
	opts := append(c.mpiOpts(), mpi.WithTracer(tr))
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "producer", Procs: spec.Producers, Main: func(p *mpi.Proc) {
			gridVals, partVals := workload.GenerateProducer(spec, p.Task.Rank())
			vol := core.NewDistMetadataVOL(p.Task, native.New(native.PFSBackend(fs)))
			vol.SetIntercomm("*", p.Intercomm("consumer"))
			vol.SetPassthru("*", true)
			vol.ChunkBytes = c.ChunkBytes
			c.instrument(vol, false)
			fapl := h5.NewFileAccessProps(h5.NewTracingVOL(vol, p.Task.Track()))
			p.World.Barrier()
			f, err := h5.CreateFile("synthetic.h5", fapl)
			if err != nil {
				errs.add(err)
				return
			}
			errs.add(workload.WriteSynthetic(f, spec, p.Task.Rank(), gridVals, partVals))
			errs.add(f.Close()) // index + serve + file write
			p.World.Barrier()
			mu.Lock()
			stats.Serve.Add(vol.Stats())
			mu.Unlock()
		}},
		{Name: "consumer", Procs: spec.Consumers, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("producer"))
			c.instrument(vol, true)
			fapl := h5.NewFileAccessProps(h5.NewTracingVOL(vol, p.Task.Track()))
			p.World.Barrier()
			f, err := h5.OpenFile("synthetic.h5", fapl)
			if err != nil {
				errs.add(err)
				return
			}
			gridBuf, partBuf, err := workload.ReadConsumer(f, spec, p.Task.Rank())
			errs.add(err)
			errs.add(f.Close()) // done
			p.World.Barrier()
			if err == nil {
				errs.add(workload.ValidateConsumer(spec, p.Task.Rank(), gridBuf, partBuf))
			}
			mu.Lock()
			stats.Query.Add(vol.QueryStats())
			mu.Unlock()
		}},
	}, opts...)
	if err == nil {
		err = errs.first()
	}
	stats.OSTs = fs.OSTStats()
	return stats, err
}
