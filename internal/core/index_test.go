package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lowfive/h5"
	"lowfive/internal/grid"
	"lowfive/internal/workload"
	"lowfive/mpi"
)

// sameIndex reports whether the second file was filed under the first's
// build.
func sameIndex(a, b *builtIndex) bool { return a != nil && a == b }

// indexOf returns the index build filed for a file.
func (v *DistMetadataVOL) indexOf(name string) *builtIndex {
	v.serveMu.Lock()
	defer v.serveMu.Unlock()
	return v.indexes[name]
}

// layoutModel is the layout of a time loop's files as every producer sees
// it: the datasets in tree order, each with its dims and every producer's
// write boxes, and the replication factor. Every rank runs the same seeded
// model, so all agree on each step; each writes only its own boxes.
type layoutModel struct {
	rng       *rand.Rand
	producers int
	repl      int
	next      int // names new datasets
	dsets     []modelDataset
}

type modelDataset struct {
	path  string
	dims  []int64
	boxes [][]grid.Box // per producer, in write order
}

// Step kinds of the model.
const (
	stepKeep    = "keep"
	stepBoxes   = "boxes"   // one producer's boxes of one dataset
	stepDims    = "dims"    // one dataset's dims, grown under the same boxes or shrunk under new ones
	stepAdd     = "add"     // a dataset more
	stepDrop    = "drop"    // a dataset fewer
	stepRepl    = "repl"    // the replication factor
	stepRestart = "restart" // one producer restarts with no last build
)

func newLayoutModel(seed int64, producers int) *layoutModel {
	m := &layoutModel{rng: rand.New(rand.NewSource(seed)), producers: producers, repl: 1}
	m.add()
	m.add()
	return m
}

func (m *layoutModel) randomDims() []int64 {
	dims := make([]int64, 1+m.rng.Intn(3))
	for d := range dims {
		dims[d] = 2 + m.rng.Int63n(9)
	}
	return dims
}

func (m *layoutModel) randomBox(dims []int64) grid.Box {
	b := grid.Box{Min: make([]int64, len(dims)), Max: make([]int64, len(dims))}
	for d, ext := range dims {
		b.Min[d] = m.rng.Int63n(ext)
		b.Max[d] = b.Min[d] + m.rng.Int63n(ext-b.Min[d])
	}
	return b
}

// randomBoxes draws a producer's writes: none to three boxes.
func (m *layoutModel) randomBoxes(dims []int64) []grid.Box {
	out := make([]grid.Box, m.rng.Intn(4))
	for i := range out {
		out[i] = m.randomBox(dims)
	}
	return out
}

func (m *layoutModel) add() {
	path := fmt.Sprintf("/d%d", m.next)
	if m.next%2 == 1 {
		path = fmt.Sprintf("/g%d/d%d", m.next%3, m.next)
	}
	m.next++
	ds := modelDataset{path: path, dims: m.randomDims(), boxes: make([][]grid.Box, m.producers)}
	for r := range ds.boxes {
		ds.boxes[r] = m.randomBoxes(ds.dims)
	}
	m.dsets = append(m.dsets, ds)
}

// step changes the model by one step of a random kind and returns the kind
// and, for a restart, the producer that restarts. Every kind but keep
// changes what some producer's index messages depend on.
func (m *layoutModel) step() (kind string, restarted int) {
	kinds := []string{stepKeep, stepKeep, stepKeep, stepBoxes, stepBoxes, stepDims, stepAdd, stepDrop, stepRepl, stepRestart}
	kind = kinds[m.rng.Intn(len(kinds))]
	restarted = -1
	switch kind {
	case stepBoxes:
		ds := &m.dsets[m.rng.Intn(len(m.dsets))]
		r := m.rng.Intn(m.producers)
		if n := len(ds.boxes[r]); n > 0 && m.rng.Intn(2) == 0 {
			ds.boxes[r] = ds.boxes[r][:n-1]
		} else {
			ds.boxes[r] = append(ds.boxes[r], m.randomBox(ds.dims))
		}
	case stepDims:
		ds := &m.dsets[m.rng.Intn(len(m.dsets))]
		d := m.rng.Intn(len(ds.dims))
		ds.dims = slices.Clone(ds.dims)
		if ds.dims[d] == 2 || m.rng.Intn(2) == 0 {
			// Grown, the dataset keeps every producer's boxes: only the
			// dims, and so the common decomposition, change.
			ds.dims[d] += 1 + m.rng.Int63n(3)
			break
		}
		ds.dims[d] = 2 + m.rng.Int63n(ds.dims[d]-2)
		for r := range ds.boxes {
			ds.boxes[r] = m.randomBoxes(ds.dims)
		}
	case stepAdd:
		m.add()
	case stepDrop:
		if len(m.dsets) == 1 {
			m.add()
			kind = stepAdd
			break
		}
		m.dsets = slices.Delete(m.dsets, 0, 1)
	case stepRepl:
		m.repl = 1 + (m.repl+m.rng.Intn(m.producers-1))%m.producers // another in [1, producers]
	case stepRestart:
		restarted = m.rng.Intn(m.producers)
	}
	return kind, restarted
}

// file builds producer r's tree of the current layout: each dataset and
// its groups in model order, and r's boxes written in order.
func (m *layoutModel) file(name string, r int) *FileNode {
	fn := NewFileNode(name)
	for _, ds := range m.dsets {
		parent := fn.Node
		parts := strings.Split(strings.TrimPrefix(ds.path, "/"), "/")
		for _, g := range parts[:len(parts)-1] {
			child, ok := parent.Child(g)
			if !ok {
				child = NewGroupNode(g)
				must(parent.AddChild(child))
			}
			parent = child
		}
		node := NewDatasetNode(parts[len(parts)-1], h5.U8, h5.NewSimple(ds.dims...))
		must(parent.AddChild(node))
		for _, b := range ds.boxes[r] {
			sel := h5.NewSimple(ds.dims...)
			must(sel.SelectBox(h5.SelectSet, b))
			must(node.RecordWrite(nil, sel, make([]byte, b.NumPoints())))
		}
	}
	return fn
}

// TestIndexReuseMatchesFullBuild is the differential test of the per-layout
// index: a seeded time loop in which producers keep their boxes or change
// them one producer at a time, a dataset's dims change, datasets come and
// go, the replication factor changes and a producer restarts. After every
// step each producer's entries deep-equal a full exchange over the same
// file; every producer holds the same layout id; and the index is the last
// step's build, and its id the last id, exactly when the step changed
// nothing.
func TestIndexReuseMatchesFullBuild(t *testing.T) {
	const steps = 120
	for _, producers := range []int{3, 4} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("n=%d/seed=%d", producers, seed), func(t *testing.T) {
				kinds := map[string]int{}
				err := mpi.Run(producers, func(c *mpi.Comm) {
					r := c.Rank()
					m := newLayoutModel(seed, producers)
					vol := NewDistMetadataVOL(c, nil)
					var last *builtIndex
					for s := 0; s < steps; s++ {
						kind := stepKeep
						if s > 0 {
							var restarted int
							kind, restarted = m.step()
							if restarted == r {
								vol = NewDistMetadataVOL(c, nil)
							}
						}
						if r == 0 {
							kinds[kind]++
						}
						name := fmt.Sprintf("step%d.h5", s)
						fn := m.file(name, r)
						vol.putFile(name, fn)
						vol.ReplicationFactor = m.repl
						must(vol.buildIndex(fn, false))
						got := vol.indexOf(name)
						full := get(exchangeIndex(c, m.repl, indexInputs(fn)))
						if !reflect.DeepEqual(got.idx, full.idx) {
							t.Errorf("rank %d, step %d (%s): index differs from a full build", r, s, kind)
						}
						want := s > 0 && kind == stepKeep
						if reused := sameIndex(got, last); reused != want {
							t.Errorf("rank %d, step %d (%s): reused the last build: %v, want %v", r, s, kind, reused, want)
						}
						if last != nil && (got.id == last.id) != want {
							t.Errorf("rank %d, step %d (%s): layout id %x after %x, want equal exactly on reuse", r, s, kind, got.id, last.id)
						}
						id := binary.LittleEndian.AppendUint64(nil, got.id)
						for k, other := range c.Allgather(id) {
							if !bytes.Equal(other, id) {
								t.Errorf("rank %d, step %d: layout id %x, rank %d holds % x", r, s, got.id, k, other)
							}
						}
						if n := len(vol.lastIndex.inputs); n != len(m.dsets) {
							t.Errorf("rank %d, step %d: last build holds %d datasets, the file %d", r, s, n, len(m.dsets))
						}
						last = got
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []string{stepKeep, stepBoxes, stepDims, stepAdd, stepDrop, stepRepl, stepRestart} {
					if kinds[k] == 0 {
						t.Errorf("no %s step in %d steps: %v", k, steps, kinds)
					}
				}
			})
		}
	}
}

// TestReindexRunsFullExchange: a file of the same layout as the last one is
// filed under the last build, and Reindex of it still runs the exchange:
// a new index, equal to the reused one but under a new layout id, that the
// next file of the layout reuses in turn, id included.
func TestReindexRunsFullExchange(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) {
		m := newLayoutModel(5, 3)
		vol := NewDistMetadataVOL(c, nil)
		build := func(name string) *builtIndex {
			fn := m.file(name, c.Rank())
			vol.putFile(name, fn)
			must(vol.buildIndex(fn, false))
			return vol.indexOf(name)
		}
		a, b := build("a.h5"), build("b.h5")
		if !sameIndex(b, a) {
			t.Errorf("rank %d: b.h5 not filed under a.h5's build", c.Rank())
		}
		must(vol.Reindex("b.h5"))
		re := vol.indexOf("b.h5")
		if sameIndex(re, b) || !reflect.DeepEqual(re.idx, b.idx) {
			t.Errorf("rank %d: Reindex reused the last build, or built another index", c.Rank())
		}
		if re.id == b.id {
			t.Errorf("rank %d: Reindex kept layout id %x", c.Rank(), re.id)
		}
		if next := build("c.h5"); !sameIndex(next, re) || next.id != re.id {
			t.Errorf("rank %d: c.h5 not filed under Reindex's build and id", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIndexFlagCorruptIsError: a malformed flag, from this rank or any
// other, ends the flag round with an error whatever it is combined with
// and in whatever order, never with a reuse.
func TestIndexFlagCorruptIsError(t *testing.T) {
	same, changed := encodeIndexFlag(false), encodeIndexFlag(true)
	for _, bad := range [][]byte{nil, {}, {2}, {indexFlagCorrupt}, {0, 0}, {1, 0}, {0x80}} {
		for _, other := range [][]byte{same, changed, bad} {
			for _, res := range [][]byte{orIndexFlags(bad, other), orIndexFlags(other, bad), orIndexFlags(orIndexFlags(bad, other), same)} {
				if _, err := decodeIndexFlag(res); err == nil {
					t.Errorf("flag % x with % x decoded as % x without an error", bad, other, res)
				}
			}
		}
		if _, err := decodeIndexFlag(bad); err == nil {
			t.Errorf("flag % x alone decoded without an error", bad)
		}
	}
	for _, c := range []struct {
		a, b []byte
		want bool
	}{{same, same, false}, {same, changed, true}, {changed, same, true}, {changed, changed, true}} {
		if got, err := decodeIndexFlag(orIndexFlags(c.a, c.b)); err != nil || got != c.want {
			t.Errorf("% x with % x: changed %v, %v; want %v", c.a, c.b, got, err, c.want)
		}
	}
}

// FuzzIndexFlag: whatever two ranks send in the flag round, the round
// reuses only when both sent the unchanged flag, reports a change only when
// both flags are well formed, and fails otherwise; the reduction is
// commutative and idempotent, as the dissemination round needs.
func FuzzIndexFlag(f *testing.F) {
	for _, a := range [][]byte{{0}, {1}, {}, {2}, {0xff}, {0, 1}} {
		for _, b := range [][]byte{{0}, {1}, {0xff}} {
			f.Add(a, b)
		}
	}
	valid := func(x []byte) bool { return len(x) == 1 && x[0] <= indexFlagChanged }
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ab := orIndexFlags(a, b)
		if ba := orIndexFlags(b, a); !slices.Equal(ab, ba) {
			t.Errorf("not commutative: % x, % x", ab, ba)
		}
		if aa, _ := decodeIndexFlag(orIndexFlags(a, a)); valid(a) && aa != (a[0] == indexFlagChanged) {
			t.Errorf("not idempotent on % x", a)
		}
		changed, err := decodeIndexFlag(orIndexFlags(ab, encodeIndexFlag(false)))
		switch {
		case !valid(a) || !valid(b):
			if err == nil {
				t.Errorf("% x with % x accepted as changed=%v", a, b, changed)
			}
		case err != nil:
			t.Errorf("% x with % x refused: %v", a, b, err)
		case changed != (a[0]|b[0] == indexFlagChanged):
			t.Errorf("% x with % x: changed=%v", a, b, changed)
		}
	})
}

// TestIndexSoakOncePerLayout: a thousand-step time loop, a new file name
// every step, whose decomposition changes half way. Each producer runs the
// index exchange once per layout, on its first step, and files every
// other step under that build; no side counts a box query after each
// layout's first step; every step validates.
func TestIndexSoakOncePerLayout(t *testing.T) {
	const steps, change = 1000, 500
	specs := [2]workload.Spec{
		{Producers: 3, Consumers: 2, GridPointsPerProducer: 8, ParticlesPerProducer: 4},
		{Producers: 3, Consumers: 2, GridPointsPerProducer: 27, ParticlesPerProducer: 6},
	}
	spec := func(s int) workload.Spec { return specs[s/change] }
	name := func(s int) string { return fmt.Sprintf("soak%d.h5", s) }
	firstOfLayout := func(s int) bool { return s%change == 0 }
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 3, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			fapl := h5.NewFileAccessProps(vol)
			r := p.Task.Rank()
			var last *builtIndex
			exchanges, boxQueries := 0, int64(0)
			for s := 0; s < steps; s++ {
				gridVals, partVals := workload.GenerateProducer(spec(s), r)
				f := get(h5.CreateFile(name(s), fapl))
				must(workload.WriteSynthetic(f, spec(s), r, gridVals, partVals))
				must(f.Close())
				idx := vol.indexOf(name(s))
				if !sameIndex(idx, last) {
					exchanges++
					if !firstOfLayout(s) {
						t.Errorf("producer %d: index exchange at step %d", r, s)
					}
				}
				last = idx
				if bq := vol.Stats().BoxQueries; bq != boxQueries && !firstOfLayout(s) {
					t.Errorf("producer %d: %d box queries answered at step %d", r, bq-boxQueries, s)
				} else {
					boxQueries = bq
				}
			}
			if exchanges != 2 {
				t.Errorf("producer %d: %d index exchanges over 2 layouts", r, exchanges)
			}
		}},
		{Name: "cons", Procs: 2, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			fapl := h5.NewFileAccessProps(vol)
			r := p.Task.Rank()
			// The first failure is reported and the loop goes on, so the
			// producers still get every done.
			failed := false
			fail := func(format string, args ...any) {
				if !failed {
					t.Errorf(format, args...)
					failed = true
				}
			}
			boxQueries := int64(0)
			for s := 0; s < steps; s++ {
				f := get(h5.OpenFile(name(s), fapl))
				gridBuf, partBuf, err := workload.ReadConsumer(f, spec(s), r)
				must(err)
				must(f.Close())
				if err := workload.ValidateConsumer(spec(s), r, gridBuf, partBuf); err != nil {
					fail("consumer %d, step %d: %v", r, s, err)
				}
				bq := vol.QueryStats().BoxQueries
				if bq != boxQueries && !firstOfLayout(s) {
					fail("consumer %d, step %d: %d box queries", r, s, bq-boxQueries)
				}
				boxQueries = bq
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}
