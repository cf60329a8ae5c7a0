package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"lowfive/internal/transport"
	"lowfive/mpi"
)

// runWorld runs the task specs on the named engine and waits for every rank.
// On "chan" it is mpi.RunWorkflow. On "sock" it forms a real sock world
// inside this process — one coordinator and one mpi.NewSockWorld per rank,
// each in its own goroutine, every byte over unix sockets — so the same
// rank code is timed on both engines and no exec sits in the data path.
func runWorld(engine string, specs []mpi.TaskSpec) error {
	if engine == "chan" {
		return mpi.RunWorkflow(specs)
	}
	size := 0
	for _, s := range specs {
		size += s.Procs
	}
	coordPath := filepath.Join(os.TempDir(), fmt.Sprintf("lfc%d.sock", os.Getpid()))
	os.Remove(coordPath) // a stale socket from a killed run would fail the listen
	coord, err := transport.NewCoordinator("unix", coordPath, size)
	if err != nil {
		return err
	}
	defer coord.Close()

	errs := make([]error, size)
	var wg sync.WaitGroup
	// NewSockWorld blocks on the world barrier, so all ranks dial at once.
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w, err := mpi.NewSockWorld(mpi.SockWorldConfig{
				Network: "unix", Coord: coord.Addr(), Rank: r, Size: size,
			})
			if err != nil {
				errs[r] = fmt.Errorf("rank %d: join: %w", r, err)
				return
			}
			if err := w.RunWorkflowLocal(specs); err != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
			}
			if err := w.Close(); err != nil && errs[r] == nil {
				errs[r] = fmt.Errorf("rank %d: close: %w", r, err)
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}
