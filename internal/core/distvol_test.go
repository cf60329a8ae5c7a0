package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lowfive/h5"
	"lowfive/internal/core"
	"lowfive/internal/grid"
	"lowfive/internal/stage"
	"lowfive/mpi"
)

// distFapl builds a one-per-process distributed VOL wired to the named
// peer task, as a long-lived application would.
func distFapl(p *mpi.Proc, peer string) *h5.FileAccessProps {
	vol := core.NewDistMetadataVOL(p.Task, nil)
	vol.SetIntercomm("*", p.Intercomm(peer))
	return h5.NewFileAccessProps(vol)
}

// produceGrid writes a dims-shaped uint64 dataset row-decomposed over the
// producer task; every element's value is its global linear index, so any
// consumer can validate redistribution.
func produceGrid(t *testing.T, p *mpi.Proc, fapl *h5.FileAccessProps, file string, dims []int64) {
	t.Helper()
	f, err := h5.CreateFile(file, fapl)
	if err != nil {
		t.Error(err)
		return
	}
	g, err := f.CreateGroup("group1")
	if err != nil {
		t.Error(err)
		return
	}
	ds, err := g.CreateDataset("grid", h5.U64, h5.NewSimple(dims...))
	if err != nil {
		t.Error(err)
		return
	}
	// Row-wise decomposition over the first dimension.
	n := int64(p.Task.Size())
	r := int64(p.Task.Rank())
	r0 := r * dims[0] / n
	r1 := (r+1)*dims[0]/n - 1
	if r1 >= r0 {
		start := make([]int64, len(dims))
		count := append([]int64(nil), dims...)
		start[0] = r0
		count[0] = r1 - r0 + 1
		sel := h5.NewSimple(dims...)
		if err := sel.SelectHyperslab(h5.SelectSet, start, count); err != nil {
			t.Error(err)
			return
		}
		rowElems := int64(1)
		for _, d := range dims[1:] {
			rowElems *= d
		}
		vals := make([]uint64, (r1-r0+1)*rowElems)
		for i := range vals {
			vals[i] = uint64(r0*rowElems + int64(i))
		}
		if err := ds.Write(nil, sel, h5.Bytes(vals)); err != nil {
			t.Error(err)
			return
		}
	}
	if err := ds.Close(); err != nil {
		t.Error(err)
	}
	if err := g.Close(); err != nil {
		t.Error(err)
	}
	if err := f.Close(); err != nil { // indexes and serves
		t.Error(err)
	}
}

// consumeGridColumns opens the file and reads a column-wise decomposition,
// validating every element.
func consumeGridColumns(t *testing.T, p *mpi.Proc, fapl *h5.FileAccessProps, file string, dims []int64) {
	t.Helper()
	f, err := h5.OpenFile(file, fapl)
	if err != nil {
		t.Error(err)
		return
	}
	ds, err := f.OpenDataset("group1/grid")
	if err != nil {
		t.Error(err)
		f.Close()
		return
	}
	gotDims := ds.Dataspace().Dims()
	for i := range dims {
		if gotDims[i] != dims[i] {
			t.Errorf("remote dims %v want %v", gotDims, dims)
		}
	}
	// Column-wise decomposition over the last dimension.
	m := int64(p.Task.Size())
	r := int64(p.Task.Rank())
	last := len(dims) - 1
	c0 := r * dims[last] / m
	c1 := (r+1)*dims[last]/m - 1
	if c1 >= c0 {
		start := make([]int64, len(dims))
		count := append([]int64(nil), dims...)
		start[last] = c0
		count[last] = c1 - c0 + 1
		sel := h5.NewSimple(dims...)
		if err := sel.SelectHyperslab(h5.SelectSet, start, count); err != nil {
			t.Error(err)
			return
		}
		out := make([]uint64, sel.NumSelected())
		if err := ds.Read(nil, sel, h5.Bytes(out)); err != nil {
			t.Error(err)
			return
		}
		// Validate: iterate the selection's global positions.
		i := 0
		width := count[last]
		var total int64 = 1
		for _, d := range count {
			total *= d
		}
		for idx := int64(0); idx < total; idx++ {
			// Convert selection-local idx to global coords.
			rem := idx
			global := int64(0)
			for d := len(dims) - 1; d >= 0; d-- {
				var cd int64
				if d == last {
					cd = rem%width + c0
				} else {
					cd = rem % count[d]
				}
				rem /= count[d]
				mult := int64(1)
				for k := d + 1; k < len(dims); k++ {
					mult *= dims[k]
				}
				global += cd * mult
			}
			if out[i] != uint64(global) {
				t.Errorf("rank %d: element %d = %d want %d", r, i, out[i], global)
				break
			}
			i++
		}
	}
	if err := ds.Close(); err != nil {
		t.Error(err)
	}
	if err := f.Close(); err != nil { // sends done
		t.Error(err)
	}
}

func TestDistRedistribution2D(t *testing.T) {
	// 3 producers row-wise -> 2 consumers column-wise (the Figure 3 shape).
	dims := []int64{6, 8}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "producer", Procs: 3, Main: func(p *mpi.Proc) {
			produceGrid(t, p, distFapl(p, "consumer"), "step.h5", dims)
		}},
		{Name: "consumer", Procs: 2, Main: func(p *mpi.Proc) {
			consumeGridColumns(t, p, distFapl(p, "producer"), "step.h5", dims)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistRedistributionManyShapes(t *testing.T) {
	cases := []struct {
		n, m int
		dims []int64
	}{
		{1, 1, []int64{16}},
		{4, 2, []int64{32}},
		{2, 5, []int64{40}},
		{6, 4, []int64{12, 12}},   // the paper's 6->4 example
		{4, 3, []int64{8, 6, 10}}, // 3-d
		{5, 2, []int64{7, 9}},     // non-divisible
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("n=%d,m=%d,dims=%v", c.n, c.m, c.dims), func(t *testing.T) {
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "producer", Procs: c.n, Main: func(p *mpi.Proc) {
					produceGrid(t, p, distFapl(p, "consumer"), "f.h5", c.dims)
				}},
				{Name: "consumer", Procs: c.m, Main: func(p *mpi.Proc) {
					consumeGridColumns(t, p, distFapl(p, "producer"), "f.h5", c.dims)
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDistConsumerReadsEverything(t *testing.T) {
	// Consumer reads the full dataset with a nil file space.
	dims := []int64{4, 4}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 2, Main: func(p *mpi.Proc) {
			produceGrid(t, p, distFapl(p, "cons"), "full.h5", dims)
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			f, err := h5.OpenFile("full.h5", h5.NewFileAccessProps(vol))
			if err != nil {
				t.Error(err)
				return
			}
			ds, err := f.OpenDataset("group1/grid")
			if err != nil {
				t.Error(err)
				f.Close()
				return
			}
			out := make([]uint64, 16)
			if err := ds.Read(nil, nil, h5.Bytes(out)); err != nil {
				t.Error(err)
			}
			for i := range out {
				if out[i] != uint64(i) {
					t.Errorf("out[%d]=%d", i, out[i])
					break
				}
			}
			f.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistMetadataAndAttributes(t *testing.T) {
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 2, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			f, _ := h5.CreateFile("meta.h5", h5.NewFileAccessProps(vol))
			g, _ := f.CreateGroup("g")
			g.WriteAttribute("dt", h5.F64, h5.Bytes([]float64{0.01}))
			ds, _ := g.CreateDataset("d", h5.F32, h5.NewSimple(4))
			ds.WriteAttribute("units", h5.NewString(1), []byte("m"))
			if p.Task.Rank() == 0 {
				ds.Write(nil, nil, h5.Bytes([]float32{1, 2, 3, 4}))
			}
			f.Close()
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			f, err := h5.OpenFile("meta.h5", h5.NewFileAccessProps(vol))
			if err != nil {
				t.Error(err)
				return
			}
			g, err := f.OpenGroup("g")
			if err != nil {
				t.Error(err)
				f.Close()
				return
			}
			dt, data, err := g.ReadAttribute("dt")
			if err != nil || !dt.Equal(h5.F64) || h5.View[float64](data)[0] != 0.01 {
				t.Errorf("group attribute: %v %v %v", dt, data, err)
			}
			kids, _ := g.Children()
			if len(kids) != 1 || kids[0].Name != "d" || kids[0].Kind != h5.KindDataset {
				t.Errorf("children %v", kids)
			}
			ds, _ := g.OpenDataset("d")
			_, udata, err := ds.ReadAttribute("units")
			if err != nil || string(udata) != "m" {
				t.Errorf("dataset attribute %q %v", udata, err)
			}
			out := make([]float32, 4)
			if err := ds.Read(nil, nil, h5.Bytes(out)); err != nil {
				t.Error(err)
			}
			if out[3] != 4 {
				t.Errorf("data %v", out)
			}
			// Remote files are read-only.
			if err := ds.Write(nil, nil, h5.Bytes(out)); err == nil {
				t.Error("write to remote dataset should fail")
			}
			if _, err := f.CreateGroup("new"); err == nil {
				t.Error("group create on remote file should fail")
			}
			f.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistFanOutTwoConsumerTasks(t *testing.T) {
	// One producer serves the same file to two consumer tasks.
	dims := []int64{8, 8}
	consume := func(other string) func(p *mpi.Proc) {
		return func(p *mpi.Proc) {
			consumeGridColumns(t, p, distFapl(p, "prod"), "fan.h5", dims)
			_ = other
		}
	}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 3, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("consA"), p.Intercomm("consB"))
			fapl := h5.NewFileAccessProps(vol)
			f, _ := h5.CreateFile("fan.h5", fapl)
			g, _ := f.CreateGroup("group1")
			ds, _ := g.CreateDataset("grid", h5.U64, h5.NewSimple(dims...))
			n, r := int64(p.Task.Size()), int64(p.Task.Rank())
			r0, r1 := r*dims[0]/n, (r+1)*dims[0]/n-1
			sel := h5.NewSimple(dims...)
			sel.SelectHyperslab(h5.SelectSet, []int64{r0, 0}, []int64{r1 - r0 + 1, dims[1]})
			vals := make([]uint64, (r1-r0+1)*dims[1])
			for i := range vals {
				vals[i] = uint64(r0*dims[1] + int64(i))
			}
			ds.Write(nil, sel, h5.Bytes(vals))
			f.Close()
		}},
		{Name: "consA", Procs: 2, Main: consume("consA")},
		{Name: "consB", Procs: 4, Main: consume("consB")},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistFanInTwoProducerTasks(t *testing.T) {
	// Two producer tasks each publish their own file to one consumer task.
	dimsA := []int64{6, 4}
	dimsB := []int64{10}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prodA", Procs: 2, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("a.h5", p.Intercomm("cons"))
			f, _ := h5.CreateFile("a.h5", h5.NewFileAccessProps(vol))
			g, _ := f.CreateGroup("group1")
			ds, _ := g.CreateDataset("grid", h5.U64, h5.NewSimple(dimsA...))
			n, r := int64(p.Task.Size()), int64(p.Task.Rank())
			r0, r1 := r*dimsA[0]/n, (r+1)*dimsA[0]/n-1
			sel := h5.NewSimple(dimsA...)
			sel.SelectHyperslab(h5.SelectSet, []int64{r0, 0}, []int64{r1 - r0 + 1, dimsA[1]})
			vals := make([]uint64, (r1-r0+1)*dimsA[1])
			for i := range vals {
				vals[i] = uint64(r0*dimsA[1] + int64(i))
			}
			ds.Write(nil, sel, h5.Bytes(vals))
			f.Close()
		}},
		{Name: "prodB", Procs: 3, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("b.h5", p.Intercomm("cons"))
			f, _ := h5.CreateFile("b.h5", h5.NewFileAccessProps(vol))
			ds, _ := f.CreateDataset("list", h5.U64, h5.NewSimple(dimsB...))
			n, r := int64(p.Task.Size()), int64(p.Task.Rank())
			r0, r1 := r*dimsB[0]/n, (r+1)*dimsB[0]/n-1
			if r1 >= r0 {
				sel := h5.NewSimple(dimsB...)
				sel.SelectHyperslab(h5.SelectSet, []int64{r0}, []int64{r1 - r0 + 1})
				vals := make([]uint64, r1-r0+1)
				for i := range vals {
					vals[i] = uint64(r0 + int64(i))
				}
				ds.Write(nil, sel, h5.Bytes(vals))
			}
			f.Close()
		}},
		{Name: "cons", Procs: 2, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("a.h5", p.Intercomm("prodA"))
			vol.SetIntercomm("b.h5", p.Intercomm("prodB"))
			fapl := h5.NewFileAccessProps(vol)
			fa, err := h5.OpenFile("a.h5", fapl)
			if err != nil {
				t.Error(err)
				return
			}
			da, _ := fa.OpenDataset("group1/grid")
			outA := make([]uint64, 24)
			if err := da.Read(nil, nil, h5.Bytes(outA)); err != nil {
				t.Error(err)
			}
			if outA[23] != 23 {
				t.Errorf("a.h5 data %v", outA)
			}
			fb, err := h5.OpenFile("b.h5", fapl)
			if err != nil {
				t.Error(err)
				fa.Close()
				return
			}
			db, _ := fb.OpenDataset("list")
			outB := make([]uint64, 10)
			if err := db.Read(nil, nil, h5.Bytes(outB)); err != nil {
				t.Error(err)
			}
			if outB[9] != 9 {
				t.Errorf("b.h5 data %v", outB)
			}
			fa.Close()
			fb.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistMultipleTimesteps(t *testing.T) {
	// Two sequential files over one intercomm, as a simulation time loop does.
	dims := []int64{8}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 2, Main: func(p *mpi.Proc) {
			fapl := distFapl(p, "cons")
			for step := 0; step < 2; step++ {
				produceGrid(t, p, fapl, fmt.Sprintf("step%d.h5", step), dims)
			}
		}},
		{Name: "cons", Procs: 3, Main: func(p *mpi.Proc) {
			fapl := distFapl(p, "prod")
			for step := 0; step < 2; step++ {
				consumeGridColumns(t, p, fapl, fmt.Sprintf("step%d.h5", step), dims)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistZeroCopyProducer(t *testing.T) {
	// Shallow (zero-copy) datasets serve correctly when the user buffer is
	// kept alive and unmodified until the close.
	dims := []int64{16}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 2, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			vol.SetZeroCopy("*", "*")
			f, _ := h5.CreateFile("zc.h5", h5.NewFileAccessProps(vol))
			ds, _ := f.CreateDataset("d", h5.U64, h5.NewSimple(dims...))
			n, r := int64(p.Task.Size()), int64(p.Task.Rank())
			r0, r1 := r*dims[0]/n, (r+1)*dims[0]/n-1
			sel := h5.NewSimple(dims...)
			sel.SelectHyperslab(h5.SelectSet, []int64{r0}, []int64{r1 - r0 + 1})
			vals := make([]uint64, r1-r0+1)
			for i := range vals {
				vals[i] = uint64(r0 + int64(i))
			}
			ds.Write(nil, sel, h5.Bytes(vals)) // shallow: vals must stay alive
			f.Close()
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			f, err := h5.OpenFile("zc.h5", h5.NewFileAccessProps(vol))
			if err != nil {
				t.Error(err)
				return
			}
			ds, _ := f.OpenDataset("d")
			out := make([]uint64, 16)
			if err := ds.Read(nil, nil, h5.Bytes(out)); err != nil {
				t.Error(err)
			}
			for i := range out {
				if out[i] != uint64(i) {
					t.Errorf("out[%d]=%d", i, out[i])
					break
				}
			}
			f.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistRandomizedRedistribution is a property-style end-to-end test:
// each producer writes a pseudo-random sub-box of its block (so parts of
// the dataset stay unwritten), and each consumer reads pseudo-random query
// boxes. Both sides derive the written boxes deterministically from the
// seed, so consumers can compute the expected value of every cell
// (position-encoded where covered, zero elsewhere).
func TestDistRandomizedRedistribution(t *testing.T) {
	dims := []int64{16, 12}
	const nProd, nCons = 4, 3
	writtenBox := func(seed int64, rank int) grid.Box {
		dc := grid.CommonDecomposition(dims, nProd)
		blk := dc.Block(rank)
		rng := rand.New(rand.NewSource(seed*1000 + int64(rank)))
		b := grid.Box{Min: make([]int64, 2), Max: make([]int64, 2)}
		for d := 0; d < 2; d++ {
			span := blk.Max[d] - blk.Min[d] + 1
			lo := blk.Min[d] + rng.Int63n(span)
			hi := lo + rng.Int63n(blk.Max[d]-lo+1)
			b.Min[d], b.Max[d] = lo, hi
		}
		return b
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "prod", Procs: nProd, Main: func(p *mpi.Proc) {
					vol := core.NewDistMetadataVOL(p.Task, nil)
					vol.SetIntercomm("*", p.Intercomm("cons"))
					f, err := h5.CreateFile("rand.h5", h5.NewFileAccessProps(vol))
					if err != nil {
						t.Error(err)
						return
					}
					ds, err := f.CreateDataset("d", h5.U64, h5.NewSimple(dims...))
					if err != nil {
						t.Error(err)
						return
					}
					box := writtenBox(seed, p.Task.Rank())
					if !box.IsEmpty() {
						sel := h5.NewSimple(dims...)
						if err := sel.SelectBox(h5.SelectSet, box); err != nil {
							t.Error(err)
							return
						}
						vals := make([]uint64, box.NumPoints())
						i := 0
						box.Runs(dims, func(off, n int64) {
							for k := int64(0); k < n; k++ {
								vals[i] = uint64(off+k) + 1 // +1 so 0 means "unwritten"
								i++
							}
						})
						if err := ds.Write(nil, sel, h5.Bytes(vals)); err != nil {
							t.Error(err)
						}
					}
					if err := f.Close(); err != nil {
						t.Error(err)
					}
				}},
				{Name: "cons", Procs: nCons, Main: func(p *mpi.Proc) {
					vol := core.NewDistMetadataVOL(p.Task, nil)
					vol.SetIntercomm("*", p.Intercomm("prod"))
					f, err := h5.OpenFile("rand.h5", h5.NewFileAccessProps(vol))
					if err != nil {
						t.Error(err)
						return
					}
					ds, err := f.OpenDataset("d")
					if err != nil {
						t.Error(err)
						f.Close()
						return
					}
					written := make([]grid.Box, nProd)
					for r := 0; r < nProd; r++ {
						written[r] = writtenBox(seed, r)
					}
					rng := rand.New(rand.NewSource(seed*77 + int64(p.Task.Rank())))
					for q := 0; q < 3; q++ {
						qb := grid.Box{Min: make([]int64, 2), Max: make([]int64, 2)}
						for d := 0; d < 2; d++ {
							lo := rng.Int63n(dims[d])
							qb.Min[d] = lo
							qb.Max[d] = lo + rng.Int63n(dims[d]-lo)
						}
						sel := h5.NewSimple(dims...)
						if err := sel.SelectBox(h5.SelectSet, qb); err != nil {
							t.Error(err)
							return
						}
						out := make([]uint64, qb.NumPoints())
						if err := ds.Read(nil, sel, h5.Bytes(out)); err != nil {
							t.Error(err)
							return
						}
						i := 0
						qb.Runs(dims, func(off, n int64) {
							for k := int64(0); k < n; k++ {
								pt := grid.Coords(dims, off+k)
								want := uint64(0)
								for _, wb := range written {
									if wb.Contains(pt) {
										want = uint64(off+k) + 1
										break
									}
								}
								if out[i] != want {
									t.Errorf("seed %d query %d: cell %v = %d want %d", seed, q, pt, out[i], want)
								}
								i++
							}
						})
					}
					if err := f.Close(); err != nil {
						t.Error(err)
					}
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDistRemoteReadOnlySurface(t *testing.T) {
	// Exercise the consumer-side handle surface: listings, attribute reads,
	// and every mutating operation rejected.
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			if vol.ConnectorName() == "" {
				t.Error("dist VOL must be named")
			}
			f, _ := h5.CreateFile("ro.h5", h5.NewFileAccessProps(vol))
			g, _ := f.CreateGroup("g")
			g.WriteAttribute("ga", h5.U8, []byte{5})
			ds, _ := g.CreateDataset("d", h5.U8, h5.NewSimple(2))
			ds.WriteAttribute("da", h5.U8, []byte{6})
			ds.Write(nil, nil, []byte{1, 2})
			f.Close()
			if len(vol.FileNames()) != 1 {
				t.Errorf("files %v", vol.FileNames())
			}
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			f, err := h5.OpenFile("ro.h5", h5.NewFileAccessProps(vol))
			if err != nil {
				t.Error(err)
				return
			}
			// Root listing and attribute surface.
			kids, err := f.Children()
			if err != nil || len(kids) != 1 || kids[0].Name != "g" {
				t.Errorf("kids=%v err=%v", kids, err)
			}
			if names, _ := f.AttributeNames(); len(names) != 0 {
				t.Errorf("root attrs %v", names)
			}
			if _, _, err := f.ReadAttribute("nope"); err == nil {
				t.Error("missing root attribute should fail")
			}
			g, err := f.OpenGroup("g")
			if err != nil {
				t.Error(err)
				f.Close()
				return
			}
			if names, _ := g.AttributeNames(); len(names) != 1 || names[0] != "ga" {
				t.Errorf("group attrs %v", names)
			}
			gkids, _ := g.Children()
			if len(gkids) != 1 || gkids[0].Kind != h5.KindDataset {
				t.Errorf("group kids %v", gkids)
			}
			ds, _ := g.OpenDataset("d")
			if names, _ := ds.AttributeNames(); len(names) != 1 || names[0] != "da" {
				t.Errorf("dataset attrs %v", names)
			}
			if _, _, err := ds.ReadAttribute("nope"); err == nil {
				t.Error("missing dataset attribute should fail")
			}
			// Every mutation is rejected on remote handles.
			if _, err := g.CreateGroup("x"); err == nil {
				t.Error("remote group create should fail")
			}
			if _, err := g.CreateDataset("x", h5.U8, h5.NewSimple(1)); err == nil {
				t.Error("remote dataset create should fail")
			}
			if _, err := f.CreateDataset("x", h5.U8, h5.NewSimple(1)); err == nil {
				t.Error("remote root dataset create should fail")
			}
			if err := g.WriteAttribute("x", h5.U8, []byte{1}); err == nil {
				t.Error("remote group attribute write should fail")
			}
			if err := f.WriteAttribute("x", h5.U8, []byte{1}); err == nil {
				t.Error("remote root attribute write should fail")
			}
			if err := ds.WriteAttribute("x", h5.U8, []byte{1}); err == nil {
				t.Error("remote dataset attribute write should fail")
			}
			// Missing objects fail cleanly.
			if _, err := f.OpenGroup("missing"); err == nil {
				t.Error("missing remote group should fail")
			}
			if _, err := g.OpenDataset("missing"); err == nil {
				t.Error("missing remote dataset should fail")
			}
			f.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestServeStats(t *testing.T) {
	dims := []int64{8}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			produceGrid(t, p, h5.NewFileAccessProps(vol), "st.h5", dims)
			st := vol.Stats()
			if st.MetadataRequests != 1 {
				t.Errorf("metadata requests %d", st.MetadataRequests)
			}
			if st.BoxQueries == 0 || st.DataQueries == 0 {
				t.Errorf("queries %+v", st)
			}
			if st.BytesServed < dims[0]*8 {
				t.Errorf("bytes served %d", st.BytesServed)
			}
			if st.DoneMessages != 1 {
				t.Errorf("done messages %d", st.DoneMessages)
			}
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			consumeGridColumns(t, p, h5.NewFileAccessProps(vol), "st.h5", dims)
			// A pure consumer serves nothing.
			if st := vol.Stats(); st != (core.ServeStats{}) {
				t.Errorf("consumer stats %+v", st)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistPointSelectionRead(t *testing.T) {
	// Consumers can read HDF5 point selections; the transport moves exactly
	// those elements.
	dims := []int64{4, 4}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 2, Main: func(p *mpi.Proc) {
			produceGrid(t, p, distFapl(p, "cons"), "pts.h5", dims)
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			f, err := h5.OpenFile("pts.h5", h5.NewFileAccessProps(vol))
			if err != nil {
				t.Error(err)
				return
			}
			ds, _ := f.OpenDataset("group1/grid")
			sel := h5.NewSimple(dims...)
			pts := [][]int64{{0, 0}, {3, 3}, {1, 2}, {2, 1}}
			if err := sel.SelectPoints(h5.SelectSet, pts); err != nil {
				t.Error(err)
				return
			}
			out := make([]uint64, len(pts))
			if err := ds.Read(nil, sel, h5.Bytes(out)); err != nil {
				t.Error(err)
			}
			for i, pt := range pts {
				want := uint64(pt[0]*dims[1] + pt[1])
				if out[i] != want {
					t.Errorf("point %v = %d want %d", pt, out[i], want)
				}
			}
			f.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistMultiBlockHyperslabRead(t *testing.T) {
	// An OR-ed multi-block selection travels as multiple query boxes.
	dims := []int64{8}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 2, Main: func(p *mpi.Proc) {
			produceGrid(t, p, distFapl(p, "cons"), "mb.h5", dims)
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			f, err := h5.OpenFile("mb.h5", h5.NewFileAccessProps(vol))
			if err != nil {
				t.Error(err)
				return
			}
			ds, _ := f.OpenDataset("group1/grid")
			sel := h5.NewSimple(dims...)
			sel.SelectHyperslab(h5.SelectSet, []int64{1}, []int64{2}) // 1,2
			sel.SelectHyperslab(h5.SelectOr, []int64{5}, []int64{2})  // 5,6
			out := make([]uint64, 4)
			if err := ds.Read(nil, sel, h5.Bytes(out)); err != nil {
				t.Error(err)
			}
			want := []uint64{1, 2, 5, 6}
			for i := range want {
				if out[i] != want[i] {
					t.Errorf("out[%d]=%d want %d", i, out[i], want[i])
				}
			}
			f.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistLargeWorld(t *testing.T) {
	// A bigger world: 96 producers -> 32 consumers, full validation.
	if testing.Short() {
		t.Skip("large world test")
	}
	dims := []int64{48, 32, 16}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "producer", Procs: 96, Main: func(p *mpi.Proc) {
			produceGrid(t, p, distFapl(p, "consumer"), "large.h5", dims)
		}},
		{Name: "consumer", Procs: 32, Main: func(p *mpi.Proc) {
			consumeGridColumns(t, p, distFapl(p, "producer"), "large.h5", dims)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLazyServeOnlySendsConsumedDatasets(t *testing.T) {
	// The paper's motivating property (§I): a producer publishes many
	// datasets, the consumer reads one — with shallow (zero-copy) writes the
	// others are never serialized or transported.
	dims := []int64{16, 16}
	bigBytes := dims[0] * dims[1] * 8
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			vol.SetZeroCopy("*", "*")
			f, _ := h5.CreateFile("many.h5", h5.NewFileAccessProps(vol))
			// One small dataset the consumer wants, three big ones it skips.
			small, _ := f.CreateDataset("wanted", h5.U64, h5.NewSimple(8))
			sv := make([]uint64, 8)
			for i := range sv {
				sv[i] = uint64(i)
			}
			small.Write(nil, nil, h5.Bytes(sv))
			var keepAlive [][]uint64
			for _, name := range []string{"big1", "big2", "big3"} {
				ds, _ := f.CreateDataset(name, h5.U64, h5.NewSimple(dims...))
				vals := make([]uint64, dims[0]*dims[1])
				keepAlive = append(keepAlive, vals)
				ds.Write(nil, nil, h5.Bytes(vals))
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
			_ = keepAlive
			st := vol.Stats()
			if st.DataQueries != 1 {
				t.Errorf("data queries %d, want 1 (only the wanted dataset)", st.DataQueries)
			}
			if st.BytesServed >= bigBytes {
				t.Errorf("served %d bytes — unread datasets were transported", st.BytesServed)
			}
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			f, err := h5.OpenFile("many.h5", h5.NewFileAccessProps(vol))
			if err != nil {
				t.Error(err)
				return
			}
			ds, _ := f.OpenDataset("wanted")
			out := make([]uint64, 8)
			if err := ds.Read(nil, nil, h5.Bytes(out)); err != nil {
				t.Error(err)
			}
			if out[7] != 7 {
				t.Errorf("data %v", out)
			}
			f.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestServeAsyncOverlapsNextStep(t *testing.T) {
	// The paper's future-work overlap: the producer serves snapshot k in the
	// background while computing and publishing snapshot k+1.
	dims := []int64{12}
	const steps = 3
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 2, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			vol.ServeOnClose = false
			fapl := h5.NewFileAccessProps(vol)
			var pending []*core.ServeHandle
			for step := 0; step < steps; step++ {
				name := fmt.Sprintf("as%d.h5", step)
				produceGrid(t, p, fapl, name, dims) // close does NOT serve
				h, err := vol.ServeAsync(name)
				if err != nil {
					t.Error(err)
					return
				}
				pending = append(pending, h)
				// ... compute the next step while the previous serves ...
			}
			for _, h := range pending {
				if err := h.Wait(); err != nil {
					t.Error(err)
				}
			}
		}},
		{Name: "cons", Procs: 3, Main: func(p *mpi.Proc) {
			fapl := distFapl(p, "prod")
			for step := 0; step < steps; step++ {
				consumeGridColumns(t, p, fapl, fmt.Sprintf("as%d.h5", step), dims)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestServeAsyncErrors(t *testing.T) {
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("routed.h5", p.Intercomm("cons"))
			if _, err := vol.ServeAsync("missing.h5"); err == nil {
				t.Error("serving a missing file should fail")
			}
			f, _ := h5.CreateFile("unrouted.h5", h5.NewFileAccessProps(vol))
			f.Close() // no intercomm matches; close serves nothing
			if _, err := vol.ServeAsync("unrouted.h5"); err == nil {
				t.Error("serving a file with no intercomm should fail")
			}
			// Release the consumer, which waits on the routed file.
			vol.ServeOnClose = true
			rf, _ := h5.CreateFile("routed.h5", h5.NewFileAccessProps(vol))
			ds, _ := rf.CreateDataset("d", h5.U8, h5.NewSimple(2))
			ds.Write(nil, nil, []byte{1, 2})
			rf.Close()
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("routed.h5", p.Intercomm("prod"))
			f, err := h5.OpenFile("routed.h5", h5.NewFileAccessProps(vol))
			if err != nil {
				t.Error(err)
				return
			}
			ds, _ := f.OpenDataset("d")
			out := make([]byte, 2)
			if err := ds.Read(nil, nil, out); err != nil {
				t.Error(err)
			}
			f.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistDeleteRejectedOnRemote(t *testing.T) {
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 1, Main: func(p *mpi.Proc) {
			produceGrid(t, p, distFapl(p, "cons"), "rd.h5", []int64{8})
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			f, err := h5.OpenFile("rd.h5", h5.NewFileAccessProps(vol))
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.Delete("group1"); err == nil {
				t.Error("delete on remote file should fail")
			}
			g, _ := f.OpenGroup("group1")
			if err := g.Delete("grid"); err == nil {
				t.Error("delete on remote group should fail")
			}
			f.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistSoakManyTimesteps(t *testing.T) {
	// A longer pipeline soak: 10 timesteps, alternating serve modes, with
	// the consumer racing ahead (no external step barrier). Exercises the
	// request-parking and session-multiplexing machinery.
	dims := []int64{10}
	const steps = 10
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 3, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			fapl := h5.NewFileAccessProps(vol)
			var pending []*core.ServeHandle
			for s := 0; s < steps; s++ {
				async := s%2 == 1
				vol.ServeOnClose = !async
				name := fmt.Sprintf("soak%d.h5", s)
				produceGrid(t, p, fapl, name, dims)
				if async {
					h, err := vol.ServeAsync(name)
					if err != nil {
						t.Error(err)
						return
					}
					pending = append(pending, h)
				}
			}
			for _, h := range pending {
				if err := h.Wait(); err != nil {
					t.Error(err)
				}
			}
			st := vol.Stats()
			if st.DoneMessages != steps*2 { // 2 consumer ranks x steps
				t.Errorf("done messages %d want %d", st.DoneMessages, steps*2)
			}
		}},
		{Name: "cons", Procs: 2, Main: func(p *mpi.Proc) {
			fapl := distFapl(p, "prod")
			for s := 0; s < steps; s++ {
				consumeGridColumns(t, p, fapl, fmt.Sprintf("soak%d.h5", s), dims)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistSoakMailboxesStayEmpty: over a thousand create/open/read/close
// steps, a consumer's mailbox is empty after every close, so no receive
// ever scans past messages nobody reads. With CallTimeout 0 the dones are
// notifications, which are never answered; with CallTimeout set they are
// calls, whose acks the close reads, and OnDoneAcked fires exactly once per
// (file, producer rank) either way.
func TestDistSoakMailboxesStayEmpty(t *testing.T) {
	dims := []int64{12}
	const steps, producers, consumers = 1000, 3, 2
	for _, mode := range []struct {
		name    string
		timeout time.Duration
	}{{"notify", 0}, {"call", 10 * time.Second}} {
		t.Run(mode.name, func(t *testing.T) {
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "prod", Procs: producers, Main: func(p *mpi.Proc) {
					vol := core.NewDistMetadataVOL(p.Task, nil)
					vol.SetIntercomm("*", p.Intercomm("cons"))
					fapl := h5.NewFileAccessProps(vol)
					for s := 0; s < steps; s++ {
						produceGrid(t, p, fapl, fmt.Sprintf("mbox%d.h5", s), dims)
					}
					if st := vol.Stats(); st.DoneMessages != steps*consumers {
						t.Errorf("done messages %d want %d", st.DoneMessages, steps*consumers)
					}
				}},
				{Name: "cons", Procs: consumers, Main: func(p *mpi.Proc) {
					vol := core.NewDistMetadataVOL(p.Task, nil)
					vol.SetIntercomm("*", p.Intercomm("prod"))
					vol.CallTimeout = mode.timeout
					type ack struct {
						file string
						prod int
					}
					acked := map[ack]int{}
					vol.OnDoneAcked = func(_ *mpi.Intercomm, name string, prod int) { acked[ack{name, prod}]++ }
					fapl := h5.NewFileAccessProps(vol)
					world := p.World.World()
					reported := false
					for s := 0; s < steps; s++ {
						consumeGridColumns(t, p, fapl, fmt.Sprintf("mbox%d.h5", s), dims)
						if q := world.RankProgress(p.World.Rank()).Queued; q != 0 && !reported {
							t.Errorf("consumer %d: %d messages queued after step %d, want 0", p.Task.Rank(), q, s)
							reported = true
						}
					}
					if len(acked) != steps*producers {
						t.Errorf("consumer %d: OnDoneAcked for %d (file, producer) pairs, want %d", p.Task.Rank(), len(acked), steps*producers)
					}
					for k, n := range acked {
						if n != 1 {
							t.Errorf("consumer %d: OnDoneAcked fired %d times for %v, want once", p.Task.Rank(), n, k)
						}
					}
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDistReadAsConversionInSitu(t *testing.T) {
	// A consumer reads a producer's uint32 dataset as float64, and extracts
	// a compound field subset, all over the in situ transport.
	full, _ := h5.NewCompound(12,
		h5.Field{Name: "id", Offset: 0, Type: h5.U32},
		h5.Field{Name: "m", Offset: 4, Type: h5.F64},
	)
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 2, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			f, _ := h5.CreateFile("conv.h5", h5.NewFileAccessProps(vol))
			ints, _ := f.CreateDataset("ints", h5.U32, h5.NewSimple(8))
			r := int64(p.Task.Rank())
			sel := h5.NewSimple(8)
			sel.SelectHyperslab(h5.SelectSet, []int64{r * 4}, []int64{4})
			vals := make([]uint32, 4)
			for i := range vals {
				vals[i] = uint32(r*4) + uint32(i)
			}
			ints.Write(nil, sel, h5.Bytes(vals))
			recs, _ := f.CreateDataset("recs", full, h5.NewSimple(4))
			if r == 0 {
				buf := make([]byte, 4*12)
				for i := 0; i < 4; i++ {
					copy(buf[i*12:], h5.Bytes([]uint32{uint32(i)}))
					copy(buf[i*12+4:], h5.Bytes([]float64{float64(i) * 2.5}))
				}
				recs.Write(nil, nil, buf)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			f, err := h5.OpenFile("conv.h5", h5.NewFileAccessProps(vol))
			if err != nil {
				t.Error(err)
				return
			}
			ints, _ := f.OpenDataset("ints")
			fs := make([]float64, 8)
			if err := ints.ReadAs(h5.F64, nil, h5.Bytes(fs)); err != nil {
				t.Error(err)
			}
			for i, v := range fs {
				if v != float64(i) {
					t.Errorf("fs[%d]=%v", i, v)
					break
				}
			}
			recs, _ := f.OpenDataset("recs")
			mOnly, _ := h5.NewCompound(8, h5.Field{Name: "m", Offset: 0, Type: h5.F64})
			out := make([]byte, 4*8)
			if err := recs.ReadAs(mOnly, nil, out); err != nil {
				t.Error(err)
			}
			ms := h5.View[float64](out)
			for i := range ms {
				if ms[i] != float64(i)*2.5 {
					t.Errorf("m[%d]=%v", i, ms[i])
					break
				}
			}
			f.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistStreamedOverwriteOrder(t *testing.T) {
	// One producer writes two overlapping hyperslabs of an [8,8] u16
	// dataset, the second overwriting the first, and streams frames so small
	// that every read spans several of them. Each consumer read must equal
	// the producer's ReadPacked of the same selection: segments keep triple
	// order across frame boundaries.
	dims := []int64{8, 8}
	selection := func(i int) *h5.Dataspace {
		sel := h5.NewSimple(dims...)
		switch i {
		case 0:
			sel.SelectAll()
		case 1:
			sel.SelectHyperslab(h5.SelectSet, []int64{2, 1}, []int64{4, 6})
		case 2:
			sel.SelectHyperslab(h5.SelectSet, []int64{0, 0}, []int64{2, 8})
			sel.SelectHyperslab(h5.SelectOr, []int64{4, 3}, []int64{4, 2})
		}
		return sel
	}
	const reads = 3
	packed := make(chan [][]byte, 1)
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			vol.ChunkBytes = 128
			f, _ := h5.CreateFile("ow.h5", h5.NewFileAccessProps(vol))
			ds, _ := f.CreateDataset("d", h5.U16, h5.NewSimple(dims...))
			for i, slab := range [][2][]int64{{{0, 0}, {5, 8}}, {{3, 2}, {5, 4}}} {
				sel := h5.NewSimple(dims...)
				sel.SelectHyperslab(h5.SelectSet, slab[0], slab[1])
				vals := make([]uint16, sel.NumSelected())
				for k := range vals {
					vals[k] = uint16(1000*(i+1) + k)
				}
				if err := ds.Write(nil, sel, h5.Bytes(vals)); err != nil {
					t.Error(err)
				}
			}
			fn, _ := vol.File("ow.h5")
			node, err := fn.Resolve("d")
			if err != nil {
				t.Error(err)
			}
			var want [][]byte
			for i := 0; i < reads; i++ {
				b, _ := node.ReadPacked(selection(i))
				want = append(want, b)
			}
			packed <- want
			f.Close()
			if st := vol.Stats(); st.ChunksServed <= reads {
				t.Errorf("%d frames for %d reads: no read spans frames", st.ChunksServed, reads)
			}
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			want := <-packed
			f, err := h5.OpenFile("ow.h5", distFapl(p, "prod"))
			if err != nil {
				t.Error(err)
				return
			}
			ds, _ := f.OpenDataset("d")
			for i := 0; i < reads; i++ {
				got := make([]byte, len(want[i]))
				if err := ds.Read(nil, selection(i), got); err != nil {
					t.Error(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("read %d: got %v want %v", i, h5.View[uint16](got), h5.View[uint16](want[i]))
				}
			}
			f.Close()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemoteHandlesLiveAndStaged(t *testing.T) {
	// One read-only handle tree serves both a live open (fetched from the
	// producer task) and a staged one (a committed epoch of the log): reads
	// work, and every mutation is refused on file, group and dataset alike.
	for _, staged := range []bool{false, true} {
		t.Run(map[bool]string{false: "live", true: "staged"}[staged], func(t *testing.T) {
			var store *stage.Store
			if staged {
				store = stage.NewStore(stage.Options{})
			}
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "prod", Procs: 1, Main: func(p *mpi.Proc) {
					vol := core.NewDistMetadataVOL(p.Task, nil)
					vol.SetIntercomm("*", p.Intercomm("cons"))
					vol.Stage = store
					f, _ := h5.CreateFile("ro.h5", h5.NewFileAccessProps(vol))
					f.WriteAttribute("fa", h5.U8, []byte{4})
					g, _ := f.CreateGroup("g")
					g.WriteAttribute("ga", h5.U8, []byte{5})
					ds, _ := g.CreateDataset("d", h5.U8, h5.NewSimple(2))
					ds.WriteAttribute("da", h5.U8, []byte{6})
					ds.Write(nil, nil, []byte{1, 2})
					if err := f.Close(); err != nil {
						t.Error(err)
					}
				}},
				{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
					vol := core.NewDistMetadataVOL(p.Task, nil)
					vol.SetIntercomm("*", p.Intercomm("prod"))
					vol.Stage = store
					f, err := h5.OpenFile("ro.h5", h5.NewFileAccessProps(vol))
					if err != nil {
						t.Error(err)
						return
					}
					defer f.Close()
					g, err := f.OpenGroup("g")
					if err != nil {
						t.Error(err)
						return
					}
					ds, err := g.OpenDataset("d")
					if err != nil {
						t.Error(err)
						return
					}
					for _, c := range []struct {
						name string
						kids func() ([]h5.ObjectInfo, error)
						want string
					}{{"file", f.Children, "g"}, {"group", g.Children, "d"}} {
						if kids, err := c.kids(); err != nil || len(kids) != 1 || kids[0].Name != c.want {
							t.Errorf("%s children %v %v", c.name, kids, err)
						}
					}
					for _, c := range []struct {
						name, attr string
						read       func(string) (*h5.Datatype, []byte, error)
						want       byte
					}{{"file", "fa", f.ReadAttribute, 4}, {"group", "ga", g.ReadAttribute, 5}, {"dataset", "da", ds.ReadAttribute, 6}} {
						if _, data, err := c.read(c.attr); err != nil || len(data) != 1 || data[0] != c.want {
							t.Errorf("%s attribute %v %v", c.name, data, err)
						}
					}
					out := make([]byte, 2)
					if err := ds.Read(nil, nil, out); err != nil || !bytes.Equal(out, []byte{1, 2}) {
						t.Errorf("read %v %v", out, err)
					}
					one := h5.NewSimple(1)
					type mutation struct {
						name string
						do   func() error
					}
					var muts []mutation
					for _, o := range []struct {
						name string
						h    h5.ObjectHandle
					}{{"file", f.Handle()}, {"group", g.Handle()}} {
						h := o.h
						muts = append(muts,
							mutation{o.name + " GroupCreate", func() error { _, err := h.GroupCreate("x"); return err }},
							mutation{o.name + " DatasetCreate", func() error { _, err := h.DatasetCreate("x", h5.U8, one); return err }},
							mutation{o.name + " Delete", func() error { return h.Delete("g") }},
							mutation{o.name + " AttributeWrite", func() error { return h.AttributeWrite("x", h5.U8, one, []byte{1}) }},
						)
					}
					dh := ds.Handle()
					muts = append(muts,
						mutation{"dataset AttributeWrite", func() error { return dh.AttributeWrite("x", h5.U8, one, []byte{1}) }},
						mutation{"dataset Write", func() error { return dh.Write(nil, nil, []byte{9, 9}) }},
						mutation{"dataset SetExtent", func() error { return dh.SetExtent([]int64{4}) }},
					)
					for _, m := range muts {
						if err := m.do(); err == nil || !strings.Contains(err.Error(), "read-only") {
							t.Errorf("%s: err=%v, want a read-only refusal", m.name, err)
						}
					}
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
