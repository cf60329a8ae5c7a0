package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lowfive/h5"
	"lowfive/internal/core"
	"lowfive/internal/native"
	"lowfive/internal/pfs"
	"lowfive/internal/rpc"
	"lowfive/internal/workload"
	"lowfive/mpi"
)

// TestRedirectLockedSurvivesProducerCrash: a producer rank dies between two
// steps of one layout, at the first request it receives for the second
// step. The consumer's second open reuses the redirect record of the
// first, so it asks no owner, and the dead rank's part still arrives bit
// for bit: its data through the file written beside the memory copy, and,
// when the dead rank was the consumer's metadata partner, the metadata
// through another producer.
func TestRedirectLockedSurvivesProducerCrash(t *testing.T) {
	spec := workload.Spec{Producers: 4, Consumers: 1, GridPointsPerProducer: 27, ParticlesPerProducer: 8}
	for _, c := range []struct {
		name string
		rank int // the producer that dies
		// seen is how many requests it receives in the first step: the
		// metadata request if it is the partner, a redirect query and a
		// data stream per dataset, and the done.
		seen int
	}{{"metadata-partner", 0, 6}, {"data-holder", 3, 5}} {
		t.Run(c.name, func(t *testing.T) {
			fs := pfs.NewZeroCost()
			plan := mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{
				// Producer task rank r is world rank r.
				{Action: mpi.FaultCrash, Rank: c.rank, Tag: rpc.TagRequest, OnRecv: true, After: c.seen},
			}}
			var mu sync.Mutex
			var steps []core.QueryStats
			var data [][]byte
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "prod", Procs: spec.Producers, Main: func(p *mpi.Proc) {
					vol := core.NewDistMetadataVOL(p.Task, native.New(native.PFSBackend(fs)))
					vol.SetIntercomm("*", p.Intercomm("cons"))
					vol.SetPassthru("*", true)
					vol.ReplicationFactor = 2
					fapl := h5.NewFileAccessProps(vol)
					r := p.Task.Rank()
					gridVals, partVals := workload.GenerateProducer(spec, r)
					for s := 0; s < 2; s++ {
						f, err := h5.CreateFile(fmt.Sprintf("crash%d.h5", s), fapl)
						if err != nil {
							t.Error(err)
							return
						}
						if err := workload.WriteSynthetic(f, spec, r, gridVals, partVals); err != nil {
							t.Error(err)
						}
						if err := f.Close(); err != nil {
							var rf *mpi.RankFailedError
							if !errors.As(err, &rf) || rf.Rank != p.World.Rank() || s != 1 {
								t.Errorf("producer %d, step %d: %v", r, s, err)
							}
							return
						}
					}
				}},
				{Name: "cons", Procs: spec.Consumers, Main: func(p *mpi.Proc) {
					vol := core.NewDistMetadataVOL(p.Task, native.New(native.PFSBackend(fs)))
					vol.SetIntercomm("*", p.Intercomm("prod"))
					vol.ReplicationFactor = 2
					vol.CallTimeout = 400 * time.Millisecond
					fapl := h5.NewFileAccessProps(vol)
					for s := 0; s < 2; s++ {
						f, err := h5.OpenFile(fmt.Sprintf("crash%d.h5", s), fapl)
						if err != nil {
							t.Error(err)
							return
						}
						gridBuf, partBuf, err := workload.ReadConsumer(f, spec, 0)
						if err == nil {
							err = workload.ValidateConsumer(spec, 0, gridBuf, partBuf)
						}
						if err != nil {
							t.Errorf("step %d: %v", s, err)
						}
						if err := f.Close(); err != nil {
							t.Errorf("step %d: close: %v", s, err)
						}
						mu.Lock()
						steps = append(steps, vol.QueryStats())
						data = append(data, append(h5.Bytes(gridBuf), h5.Bytes(partBuf)...))
						mu.Unlock()
					}
				}},
			}, mpi.WithFaultPlan(plan))
			if err != nil {
				t.Fatal(err)
			}
			if len(steps) != 2 {
				t.Fatalf("consumer finished %d steps, want 2", len(steps))
			}
			first, second := steps[0], steps[1]
			if first.Failovers != 0 || first.FileFallbacks != 0 || first.BoxQueries == 0 {
				t.Errorf("first step: %d failovers, %d file fallbacks, %d box queries; want a clean step that asks the owners",
					first.Failovers, first.FileFallbacks, first.BoxQueries)
			}
			if second.BoxQueries != first.BoxQueries {
				t.Errorf("second step: %d box queries, want 0 (the layout did not change)", second.BoxQueries-first.BoxQueries)
			}
			if second.FileFallbacks == first.FileFallbacks {
				t.Error("second step: no file fallback, so the crash did not hit it")
			}
			if c.rank == 0 && second.Failovers == first.Failovers {
				t.Error("second step: the metadata partner died but the open did not fail over")
			}
			if !bytes.Equal(data[0], data[1]) {
				t.Error("the second step's bytes differ from the first's")
			}
		})
	}
}
