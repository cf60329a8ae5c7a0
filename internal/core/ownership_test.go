package core_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"lowfive/h5"
	"lowfive/mpi"
)

// TestDataspaceOwnershipRemote pins who owns a dataspace across the
// distributed VOL. A producer that changes its selection after Write does
// not change what it serves. A consumer that changes the dataspace
// Dataset.Dataspace returned (its own copy) changes neither the remote
// dataset's extent nor what a read returns, which reads the extent the
// handle lends.
func TestDataspaceOwnershipRemote(t *testing.T) {
	want := []byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 0, 0, 0}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "producer", Procs: 1, Main: func(p *mpi.Proc) {
			f, err := h5.CreateFile("own.h5", distFapl(p, "consumer"))
			if err != nil {
				t.Error(err)
				return
			}
			ds, err := f.CreateDataset("d", h5.U8, h5.NewSimple(4, 3))
			if err != nil {
				t.Error(err)
				return
			}
			sel := h5.NewSimple(4, 3)
			if err := sel.SelectHyperslab(h5.SelectSet, []int64{1, 0}, []int64{2, 3}); err != nil {
				t.Error(err)
			}
			if err := ds.Write(nil, sel, []byte{1, 2, 3, 4, 5, 6}); err != nil {
				t.Error(err)
			}
			if err := sel.SelectHyperslab(h5.SelectSet, []int64{0, 0}, []int64{1, 3}); err != nil {
				t.Error(err)
			}
			ds.Close()
			if err := f.Close(); err != nil { // indexes and serves
				t.Error(err)
			}
		}},
		{Name: "consumer", Procs: 1, Main: func(p *mpi.Proc) {
			f, err := h5.OpenFile("own.h5", distFapl(p, "producer"))
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			ds, err := f.OpenDataset("d")
			if err != nil {
				t.Error(err)
				return
			}
			defer ds.Close()
			read := func(what string) {
				got := make([]byte, len(want))
				if err := ds.Read(nil, nil, got); err != nil {
					t.Error(err)
				} else if !bytes.Equal(got, want) {
					t.Errorf("%s: read %v, want %v", what, got, want)
				}
			}
			mine := ds.Dataspace()
			if err := mine.SelectHyperslab(h5.SelectSet, []int64{0, 0}, []int64{1, 1}); err != nil {
				t.Error(err)
			}
			if err := mine.SetExtent([]int64{2, 3}); err != nil {
				t.Error(err)
			}
			read("after changing the returned dataspace")
			if s := ds.Dataspace(); !slices.Equal(s.Dims(), []int64{4, 3}) || !s.IsAll() {
				t.Errorf("Dataspace() = %v after a read, want [4 3] with everything selected", s)
			}
			read("again")
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// steadyReadAllocs bounds the mallocs of the second step of
// TestSteadyReadAllocs, counted over the whole process (producers and
// consumer). With handles lending their dataspace, frames moving by value
// and selections read in place, the step made 296 mallocs in most of 120
// runs and at most 313; the bound leaves room for what varies between
// runs.
const steadyReadAllocs = 320

// TestSteadyReadAllocs: the second step of a reused layout (the producer's
// create, write and close; the consumer's open, two reads and close)
// allocates no more than steadyReadAllocs. World barriers fence each step,
// so the count covers that step alone.
func TestSteadyReadAllocs(t *testing.T) {
	dims := []int64{16, 12}
	const steps = 3
	var counts [steps]uint64
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "producer", Procs: 2, Main: func(p *mpi.Proc) {
			fapl := distFapl(p, "consumer")
			for s := 0; s < steps; s++ {
				p.World.Barrier()
				produceGrid(t, p, fapl, "steady.h5", dims)
				p.World.Barrier()
			}
		}},
		{Name: "consumer", Procs: 1, Main: func(p *mpi.Proc) {
			fapl := distFapl(p, "producer")
			halves := [2]*h5.Dataspace{h5.NewSimple(dims...), h5.NewSimple(dims...)}
			for i, sel := range halves {
				if err := sel.SelectHyperslab(h5.SelectSet, []int64{0, int64(i) * 6}, []int64{16, 6}); err != nil {
					t.Fatal(err)
				}
			}
			out := make([]byte, 16*6*8)
			var ms runtime.MemStats
			for s := 0; s < steps; s++ {
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				p.World.Barrier()
				f, err := h5.OpenFile("steady.h5", fapl)
				if err != nil {
					t.Error(err)
					return
				}
				ds, err := f.OpenDataset("group1/grid")
				if err != nil {
					t.Error(err)
					return
				}
				for _, sel := range halves {
					if err := ds.Read(nil, sel, out); err != nil {
						t.Error(err)
					}
				}
				ds.Close()
				if err := f.Close(); err != nil {
					t.Error(err)
				}
				p.World.Barrier()
				runtime.ReadMemStats(&ms)
				counts[s] = ms.Mallocs - before
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mallocs per step: %v", counts)
	if counts[1] > steadyReadAllocs {
		t.Errorf("the second step allocates %d times, want at most %d", counts[1], steadyReadAllocs)
	}
}
