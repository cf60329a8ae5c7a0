package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lowfive/h5"
	"lowfive/internal/grid"
	"lowfive/internal/rpc"
	"lowfive/internal/workload"
	"lowfive/metrics"
	"lowfive/mpi"
)

// serverFilterOrder is the redirect filter owners applied for every read
// before consumers cached their answers, kept as the reference: each owner
// answered with the first-seen sources of its entries of the read's rank
// that intersect the read, and the consumer appended the sources it had
// not seen, owners in order. answerer[o] is the rank that answered for
// block o: the owner itself, or a replica after failover.
func serverFilterOrder(index [][]indexEntry, answerer, owners []int, bb grid.Box) []int {
	var order []int
	withData := map[int]bool{}
	for _, o := range owners {
		var ranks []int
		seen := map[int]bool{}
		for _, ent := range index[answerer[o]] {
			if ent.box.Dim() == bb.Dim() && ent.box.Intersects(bb) && !seen[ent.src] {
				seen[ent.src] = true
				ranks = append(ranks, ent.src)
			}
		}
		for _, r := range ranks {
			if !withData[r] {
				withData[r] = true
				order = append(order, r)
			}
		}
	}
	return order
}

// randomIndex builds the per-rank index of one dataset the way buildIndex
// does: every producer's written boxes go to the owners of the blocks they
// intersect and to those owners' repl-1 replicas, and each rank files what
// it receives in source order. A few entries of another rank stand in for
// a dataset path reused at a different rank, which owners must filter out.
func randomIndex(rng *rand.Rand, dims []int64, n, repl int) [][]indexEntry {
	dc := grid.CommonDecomposition(dims, n)
	index := make([][]indexEntry, n)
	randBox := func(rank int) grid.Box {
		b := grid.Box{Min: make([]int64, rank), Max: make([]int64, rank)}
		for d := range b.Min {
			ext := int64(8)
			if d < len(dims) {
				ext = dims[d]
			}
			b.Min[d] = rng.Int63n(ext)
			b.Max[d] = min(b.Min[d]+rng.Int63n(ext/2+1), ext-1)
		}
		return b
	}
	for src := 0; src < n; src++ {
		for w := rng.Intn(4); w > 0; w-- {
			box := randBox(len(dims))
			for _, blk := range dc.Intersecting(box) {
				for k := 0; k < repl; k++ {
					index[(blk+k)%n] = append(index[(blk+k)%n], indexEntry{box: box, src: src})
				}
			}
		}
		if rng.Intn(5) == 0 {
			r := rng.Intn(n)
			index[r] = append(index[r], indexEntry{box: randBox(len(dims) + 1), src: src})
		}
	}
	return index
}

// TestRedirectOrderMatchesServerFilter: over seeded random indexes, with
// and without replicas and with replicas answering for failed owners, the
// producer order a read builds from cached answers equals the order the
// owners' own filter produced per read, so streams and overwrites keep
// their order.
func TestRedirectOrderMatchesServerFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(6)
		if trial%50 == 0 {
			n = 70 // more sources than one word of the seen set
		}
		repl := 1 + trial%2
		dims := []int64{4 + rng.Int63n(20), 4 + rng.Int63n(20), 1 + rng.Int63n(10)}[:1+rng.Intn(3)]
		index := randomIndex(rng, dims, n, repl)
		answerer := make([]int, n)
		for o := range answerer {
			answerer[o] = (o + rng.Intn(min(repl, n))) % n
		}
		rd := newRedirect(NewDatasetNode("d", h5.U8, h5.NewSimple(dims...)), "/d", n, 1)
		for o := range answerer {
			a, err := decodeBoxesResp(encodeBoxesResp(index[answerer[o]], len(dims)), len(dims), n)
			if err != nil {
				t.Fatalf("trial %d: owner %d's answer: %v", trial, o, err)
			}
			rd.answers[o], rd.fetched[o] = a, true
		}
		for q := 0; q < 20; q++ {
			bb := grid.Box{Min: make([]int64, len(dims)), Max: make([]int64, len(dims))}
			for d := range dims {
				bb.Min[d] = rng.Int63n(dims[d]+2) - 1
				bb.Max[d] = bb.Min[d] + rng.Int63n(dims[d])
			}
			owners := rd.dc.Intersecting(bb)
			got := rd.order(owners, bb)
			want := serverFilterOrder(index, answerer, owners, bb)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d repl=%d dims=%v) read %v: cached order %v, server filter %v",
					trial, n, repl, dims, bb, got, want)
			}
		}
	}
}

// TestRedirectCacheConcurrentUse: reads from several goroutines create,
// fill and read the VOL's redirect records without a race, and the table
// ends with one record per dataset.
func TestRedirectCacheConcurrentUse(t *testing.T) {
	const producers = 3
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: producers, Main: func(p *mpi.Proc) {}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			ic := p.Intercomm("prod")
			fn := NewFileNode("f.h5")
			nodes := []*Node{
				NewDatasetNode("a", h5.U8, h5.NewSimple(6, 9)),
				NewDatasetNode("b", h5.U8, h5.NewSimple(6, 9)),
			}
			for _, n := range nodes {
				must(fn.AddChild(n))
			}
			whole := grid.Box{Min: []int64{0, 0}, Max: []int64{5, 8}}
			var entries []indexEntry
			for src := 0; src < producers; src++ {
				entries = append(entries, indexEntry{box: grid.Box{Min: []int64{2 * int64(src), 0}, Max: []int64{2*int64(src) + 1, 8}}, src: src})
			}
			resp := encodeBoxesResp(entries, 2)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(node *Node) {
					defer wg.Done()
					rd := vol.redirectFor(ic, node, node.Path(), 1)
					owners := rd.dc.Intersecting(whole)
					for _, o := range rd.missing(owners) {
						a, err := decodeBoxesResp(resp, 2, producers)
						if err != nil {
							t.Error(err)
							return
						}
						rd.store(o, a)
					}
					if got := rd.order(owners, whole); !reflect.DeepEqual(got, []int{0, 1, 2}) {
						t.Errorf("order %v, want [0 1 2]", got)
					}
				}(nodes[g%len(nodes)])
			}
			wg.Wait()
			if len(vol.redirects) != len(nodes) {
				t.Errorf("%d redirect records for %d datasets", len(vol.redirects), len(nodes))
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecodeBoxesRespRejectsCorruptAnswers: a count the buffer cannot hold,
// a box of another rank and a source outside the producer task are all
// refused before they can reach a stream request.
func TestDecodeBoxesRespRejectsCorruptAnswers(t *testing.T) {
	valid := redirectAnswerFixture()
	if a, err := decodeBoxesResp(valid, 2, 4); err != nil || a.len() != 3 {
		t.Fatalf("valid answer: %d entries, err %v", a.len(), err)
	}
	entry := func(box grid.Box, src int) []byte {
		return encodeBoxesResp([]indexEntry{{box: box, src: src}}, box.Dim())
	}
	box2 := grid.Box{Min: []int64{0, 0}, Max: []int64{1, 1}}
	withCount := func(n byte) []byte {
		b := append([]byte(nil), valid...)
		b[0] = n
		return b
	}
	for _, c := range []struct {
		name, want string
		buf        []byte
	}{
		{"empty", "corrupt box-query response", nil},
		{"count beyond the buffer", "4 entries", withCount(4)},
		{"count short of the buffer", "2 entries", withCount(2)},
		{"negative count", "entries", append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, valid[8:]...)},
		{"truncated entry", "entries", valid[:len(valid)-1]},
		{"box of rank 3", "box of rank 3", entry(grid.Box{Min: []int64{0, 0, 0}, Max: []int64{0, 0, 1}}, 0)[:8+boxEntrySize(2)]},
		{"source past the task", "source rank 4", entry(box2, 4)},
		{"negative source", "source rank -1", entry(box2, -1)},
	} {
		if _, err := decodeBoxesResp(c.buf, 2, 4); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err=%v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestLayoutSectionsRejectCorrupt: the layout id sections of the index
// message and of the metadata answer refuse a truncated or zero id, and the
// metadata answer refuses trailing bytes after its id.
func TestLayoutSectionsRejectCorrupt(t *testing.T) {
	msg := indexMsgFixture()
	if b, err := indexFrom([][]byte{msg}); err != nil || b.id != indexFixtureID {
		t.Fatalf("valid message: err %v", err)
	}
	vol, _ := requestFixture(t)
	fn, _ := vol.File("outfile.h5")
	meta := encodeMetadataResp(fn, vol.indexes["outfile.h5"].id)
	if _, id, err := decodeMetadataResp(meta); err != nil || id != 1 {
		t.Fatalf("valid answer: id %x, err %v", id, err)
	}
	zeroID := func(b []byte, at int) []byte {
		c := append([]byte(nil), b...)
		copy(c[at:at+8], make([]byte, 8))
		return c
	}
	for _, c := range []struct {
		name, want string
		err        error
	}{
		{"index: empty message", "layout id", indexErr(nil)},
		{"index: truncated id", "layout id", indexErr(msg[:7])},
		{"index: zero id", "zero layout id", indexErr(zeroID(msg, 0))},
		{"metadata: no id", "layout id", metaErr(meta[:len(meta)-8])},
		{"metadata: truncated id", "layout id", metaErr(meta[:len(meta)-1])},
		{"metadata: zero id", "zero layout id", metaErr(zeroID(meta, len(meta)-8))},
		{"metadata: trailing bytes", "1 trailing bytes", metaErr(append(append([]byte(nil), meta...), 0))},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: err=%v, want one naming %q", c.name, c.err, c.want)
		}
	}
}

// indexErr files msg as rank 0's only index message.
func indexErr(msg []byte) error {
	_, err := indexFrom([][]byte{msg})
	if err != nil && !strings.Contains(err.Error(), "corrupt index message from rank 0") {
		return fmt.Errorf("unexpected form: %w", err)
	}
	return err
}

func metaErr(buf []byte) error {
	_, _, err := decodeMetadataResp(buf)
	return err
}

// redirectDims is the dataset of the lifetime and failover tests. Over four
// producers its common decomposition is 2×2×1 blocks.
var redirectDims = []int64{8, 12, 6}

// writeRows writes the rows [r0, r1) of a redirectDims dataset, each element
// holding its global linear index; an empty range writes nothing.
func writeRows(fapl *h5.FileAccessProps, name string, r0, r1 int64) error {
	box := grid.Box{Min: []int64{r0, 0, 0}, Max: []int64{r1 - 1, redirectDims[1] - 1, redirectDims[2] - 1}}
	return writeBoxes(fapl, name, box)
}

// gridName names the k-th dataset writeBoxes creates.
func gridName(k int) string {
	if k == 0 {
		return "grid"
	}
	return fmt.Sprintf("grid%d", k)
}

// writeBoxes writes a file of one redirectDims dataset per box, the k-th
// named gridName(k), each element of the box holding its global linear
// index; an empty box writes nothing.
func writeBoxes(fapl *h5.FileAccessProps, name string, boxes ...grid.Box) error {
	f, err := h5.CreateFile(name, fapl)
	if err != nil {
		return err
	}
	for k, box := range boxes {
		ds, err := f.CreateDataset(gridName(k), h5.U64, h5.NewSimple(redirectDims...))
		if err != nil {
			return err
		}
		if !box.IsEmpty() {
			sel := h5.NewSimple(redirectDims...)
			if err := sel.SelectBox(h5.SelectSet, box); err != nil {
				return err
			}
			vals := make([]uint64, 0, box.NumPoints())
			box.Runs(redirectDims, func(start, n int64) {
				for k := int64(0); k < n; k++ {
					vals = append(vals, uint64(start+k))
				}
			})
			if err := ds.Write(nil, sel, h5.Bytes(vals)); err != nil {
				return err
			}
		}
		if err := ds.Close(); err != nil {
			return err
		}
	}
	return f.Close() // indexes and serves
}

// readBox reads box from the open file's grid and checks every element.
func readBox(t *testing.T, f *h5.File, box grid.Box) {
	t.Helper()
	readDataset(t, f, "grid", box)
}

// readDataset reads box from the named dataset of the open file and checks
// every element.
func readDataset(t *testing.T, f *h5.File, name string, box grid.Box) {
	t.Helper()
	ds, err := f.OpenDataset(name)
	if err != nil {
		t.Error(err)
		return
	}
	defer ds.Close()
	sel := h5.NewSimple(redirectDims...)
	if err := sel.SelectBox(h5.SelectSet, box); err != nil {
		t.Error(err)
		return
	}
	out := make([]uint64, box.NumPoints())
	if err := ds.Read(nil, sel, h5.Bytes(out)); err != nil {
		t.Errorf("read %v: %v", box, err)
		return
	}
	i := 0
	box.Runs(redirectDims, func(start, n int64) {
		for k := int64(0); k < n; k++ {
			if out[i] != uint64(start+k) && !t.Failed() {
				t.Errorf("read %v: element %d = %d, want %d", box, i, out[i], start+k)
			}
			i++
		}
	})
}

// randomReadBox draws a box inside redirectDims.
func randomReadBox(rng *rand.Rand) grid.Box {
	b := grid.Box{Min: make([]int64, 3), Max: make([]int64, 3)}
	for d, ext := range redirectDims {
		b.Min[d] = rng.Int63n(ext)
		b.Max[d] = b.Min[d] + rng.Int63n(ext-b.Min[d])
	}
	return b
}

// boxCalls is the number of redirect calls the rpc client made.
func boxCalls(reg *metrics.Registry) uint64 {
	for _, s := range reg.Snapshot() {
		if s.Name == "rpc.client.call_us.boxes" {
			return s.Count
		}
	}
	return 0
}

// TestRedirectOncePerOwnerPerLayout: K reads on one open file ask each
// owner they touch once, so the redirect calls are the owners in the union
// of the reads, at most one per block; a reopened file asks only the owners
// not asked yet; a second file of the same layout asks nobody; and the
// calls issued, the calls the rpc client made and the calls served agree.
func TestRedirectOncePerOwnerPerLayout(t *testing.T) {
	const producers, reads = 4, 25
	dc := grid.CommonDecomposition(redirectDims, producers)
	var mu sync.Mutex
	var served int64
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: producers, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			r := int64(p.Task.Rank())
			for _, name := range []string{"r0.h5", "r1.h5"} {
				must(writeRows(h5.NewFileAccessProps(vol), name, r*2, r*2+2))
			}
			mu.Lock()
			served += vol.Stats().BoxQueries
			mu.Unlock()
		}},
		// Consumer rank 1 opens nothing: rank 0's two closes of each file
		// are the two dones the producers' serve session waits for.
		{Name: "cons", Procs: 2, Main: func(p *mpi.Proc) {
			if p.Task.Rank() != 0 {
				return
			}
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			reg := metrics.NewRegistry()
			vol.Metrics = reg
			fapl := h5.NewFileAccessProps(vol)
			rng := rand.New(rand.NewSource(5))
			f := get(h5.OpenFile("r0.h5", fapl))
			touched := map[int]bool{}
			for k := 0; k < reads; k++ {
				box := randomReadBox(rng)
				for _, o := range dc.Intersecting(box) {
					touched[o] = true
				}
				readBox(t, f, box)
				if got := vol.QueryStats().BoxQueries; got != int64(len(touched)) {
					t.Errorf("after read %d: %d box queries, want %d (one per owner touched so far)", k, got, len(touched))
				}
			}
			must(f.Close())
			first := vol.QueryStats().BoxQueries
			whole := grid.WholeExtent(redirectDims)
			f = get(h5.OpenFile("r0.h5", fapl))
			readBox(t, f, whole)
			readBox(t, f, whole)
			must(f.Close())
			if got := vol.QueryStats().BoxQueries - first; got != producers-first {
				t.Errorf("reopened file: %d box queries for two whole reads, want %d (only the owners not asked yet)", got, producers-first)
			}
			for open := 0; open < 2; open++ {
				f = get(h5.OpenFile("r1.h5", fapl))
				readBox(t, f, whole)
				must(f.Close())
			}
			issued := vol.QueryStats().BoxQueries
			if issued != producers {
				t.Errorf("two files of one layout: %d box queries, want %d (each owner once)", issued, producers)
			}
			if calls := boxCalls(reg); calls != uint64(issued) {
				t.Errorf("rpc client made %d redirect calls, QueryStats counts %d", calls, issued)
			}
			mu.Lock()
			served -= issued
			mu.Unlock()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if served != 0 {
		t.Errorf("served minus issued box queries = %d, want 0", served)
	}
}

// TestRedirectFailoverFillsCacheFromReplica: with the primary owner of a
// block crashed, the first read gets that block's entries from its replica
// and caches them, and later reads make no redirect call at all. Producer 0
// owns block 0 but writes nothing, so the data never needs it.
func TestRedirectFailoverFillsCacheFromReplica(t *testing.T) {
	const producers = 4
	plan := mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{
		// World rank 0 is producer 0. It dies at its first response — the
		// consumer's metadata request — after the index is built.
		{Action: mpi.FaultCrash, Rank: 0, Tag: rpc.TagResponse},
	}}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: producers, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			vol.ReplicationFactor = 2
			r0, r1 := int64(0), int64(0)
			if r := int64(p.Task.Rank()); r > 0 {
				r0, r1 = (r-1)*redirectDims[0]/(producers-1), r*redirectDims[0]/(producers-1)
			}
			err := writeRows(h5.NewFileAccessProps(vol), "f.h5", r0, r1)
			var rf *mpi.RankFailedError
			if err != nil && !(errors.As(err, &rf) && rf.Rank == p.World.Rank()) {
				t.Error(err)
			}
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			vol.ReplicationFactor = 2
			vol.CallTimeout = 400 * time.Millisecond
			reg := metrics.NewRegistry()
			vol.Metrics = reg
			f := get(h5.OpenFile("f.h5", h5.NewFileAccessProps(vol)))
			opened := vol.QueryStats()
			readBox(t, f, grid.WholeExtent(redirectDims))
			first := vol.QueryStats()
			if first.BoxQueries != producers {
				t.Errorf("first read: %d box queries, want %d (every owner)", first.BoxQueries, producers)
			}
			if first.Failovers <= opened.Failovers {
				t.Errorf("first read: failovers %d → %d, want block 0 answered by its replica", opened.Failovers, first.Failovers)
			}
			calls := boxCalls(reg)
			rng := rand.New(rand.NewSource(9))
			for k := 0; k < 10; k++ {
				readBox(t, f, randomReadBox(rng))
			}
			if later := boxCalls(reg); later != calls {
				t.Errorf("later reads made %d redirect calls, want 0", later-calls)
			}
			if later := vol.QueryStats(); later.BoxQueries != first.BoxQueries || later.Failovers != first.Failovers {
				t.Errorf("later reads: box queries %d → %d, failovers %d → %d, want both unchanged",
					first.BoxQueries, later.BoxQueries, first.Failovers, later.Failovers)
			}
			must(f.Close())
		}},
	}, mpi.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
}

// TestRedirectReissuesOnLayoutChange: over six steps of a time loop, each a
// new file, the consumer asks the owners of every dataset on the first step
// and again exactly on the steps where the layout changes, and reuses its
// records on every other step; every producer holds the same layout id,
// which changes exactly there; and every step reads back the right values.
// One run turns row slabs into column slabs; in another only producer 2's
// box grows, over the same dims; one turns rows into columns and back
// (A → B → A); and in a file of two datasets only the second one changes,
// which still re-asks the owners of both: the id names the file's build.
func TestRedirectReissuesOnLayoutChange(t *testing.T) {
	const producers, steps = 4, 6
	rows := func(r int64) grid.Box {
		return grid.Box{Min: []int64{2 * r, 0, 0}, Max: []int64{2*r + 1, 11, 5}}
	}
	cols := func(r int64) grid.Box {
		return grid.Box{Min: []int64{0, 3 * r, 0}, Max: []int64{7, 3*r + 2, 5}}
	}
	grown := func(r int64) grid.Box {
		b := rows(r)
		if r == 2 {
			b.Max[0]++ // overlaps producer 3's first row with the same values
		}
		return b
	}
	// switchAt is a one-dataset layout: before(r) until step at, after(r)
	// from it on.
	switchAt := func(at int, before, after func(int64) grid.Box) func(int, int64) []grid.Box {
		return func(s int, r int64) []grid.Box {
			if s < at {
				return []grid.Box{before(r)}
			}
			return []grid.Box{after(r)}
		}
	}
	for _, c := range []struct {
		name    string
		changes []int                           // steps whose layout differs from the step before
		boxes   func(s int, r int64) []grid.Box // producer r's box of each dataset at step s
	}{
		{"decomposition", []int{3}, switchAt(3, rows, cols)},
		{"one-box", []int{3}, switchAt(3, rows, grown)},
		{"a-b-a", []int{2, 4}, func(s int, r int64) []grid.Box {
			if s == 2 || s == 3 {
				return []grid.Box{cols(r)}
			}
			return []grid.Box{rows(r)}
		}},
		{"one-of-two-datasets", []int{3}, func(s int, r int64) []grid.Box {
			second := rows(r)
			if s >= 3 {
				second = cols(r)
			}
			return []grid.Box{rows(r), second}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			datasets := len(c.boxes(0, 0))
			var ids [steps][producers]uint64
			var mu sync.Mutex
			var served int64
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "prod", Procs: producers, Main: func(p *mpi.Proc) {
					vol := NewDistMetadataVOL(p.Task, nil)
					vol.SetIntercomm("*", p.Intercomm("cons"))
					r := p.Task.Rank()
					for s := 0; s < steps; s++ {
						name := fmt.Sprintf("step%d.h5", s)
						must(writeBoxes(h5.NewFileAccessProps(vol), name, c.boxes(s, int64(r))...))
						ids[s][r] = vol.indexOf(name).id
					}
					mu.Lock()
					served += vol.Stats().BoxQueries
					mu.Unlock()
				}},
				{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
					vol := NewDistMetadataVOL(p.Task, nil)
					vol.SetIntercomm("*", p.Intercomm("prod"))
					fapl := h5.NewFileAccessProps(vol)
					var asked int64
					for s := 0; s < steps; s++ {
						f := get(h5.OpenFile(fmt.Sprintf("step%d.h5", s), fapl))
						for k := 0; k < datasets; k++ {
							readDataset(t, f, gridName(k), grid.WholeExtent(redirectDims))
							// Smaller reads need only some producers' data:
							// a stale record would leave the others' parts
							// unread.
							rng := rand.New(rand.NewSource(int64(s)))
							for q := 0; q < 8; q++ {
								readDataset(t, f, gridName(k), randomReadBox(rng))
							}
						}
						must(f.Close())
						got := vol.QueryStats().BoxQueries - asked
						asked += got
						want := int64(0)
						if s == 0 || slices.Contains(c.changes, s) {
							want = int64(producers * datasets)
						}
						if got != want {
							t.Errorf("step %d: %d box queries, want %d", s, got, want)
						}
						if len(vol.redirects) != datasets {
							t.Errorf("step %d: %d redirect records, want %d", s, len(vol.redirects), datasets)
						}
					}
					mu.Lock()
					served -= asked
					mu.Unlock()
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if served != 0 {
				t.Errorf("served minus issued box queries = %d, want 0", served)
			}
			for s := range ids {
				for r := range ids[s] {
					if ids[s][r] != ids[s][0] || ids[s][r] == 0 {
						t.Errorf("step %d: producer %d holds layout id %x, producer 0 %x", s, r, ids[s][r], ids[s][0])
					}
				}
				if s > 0 && (ids[s][0] == ids[s-1][0]) == slices.Contains(c.changes, s) {
					t.Errorf("step %d: layout id %x after %x; want a change exactly at steps %v", s, ids[s][0], ids[s-1][0], c.changes)
				}
			}
		})
	}
}

// TestRedirectReissuesAfterProducerRestart: between two steps of one layout
// every producer is replaced by a fresh VOL while the consumer lives on.
// The fresh producers agree a new layout id, so the consumer's next open
// asks every owner again instead of reading through records fetched from
// the old ones, and reads the right values: ids are never reused.
func TestRedirectReissuesAfterProducerRestart(t *testing.T) {
	const producers = 4
	var ids [2][producers]uint64
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: producers, Main: func(p *mpi.Proc) {
			r := p.Task.Rank()
			for s := range ids {
				vol := NewDistMetadataVOL(p.Task, nil)
				vol.SetIntercomm("*", p.Intercomm("cons"))
				name := fmt.Sprintf("step%d.h5", s)
				must(writeRows(h5.NewFileAccessProps(vol), name, int64(r)*2, int64(r)*2+2))
				ids[s][r] = vol.indexOf(name).id
			}
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			fapl := h5.NewFileAccessProps(vol)
			rng := rand.New(rand.NewSource(7))
			for s := range ids {
				f := get(h5.OpenFile(fmt.Sprintf("step%d.h5", s), fapl))
				readBox(t, f, grid.WholeExtent(redirectDims))
				for k := 0; k < 8; k++ {
					readBox(t, f, randomReadBox(rng))
				}
				must(f.Close())
				if got, want := vol.QueryStats().BoxQueries, int64(producers*(s+1)); got != want {
					t.Errorf("after step %d: %d box queries, want %d (every owner again after the restart)", s, got, want)
				}
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids[1][0] == ids[0][0] {
		t.Errorf("restarted producers reused layout id %x", ids[0][0])
	}
	for s := range ids {
		for r := range ids[s] {
			if ids[s][r] != ids[s][0] {
				t.Errorf("step %d: producer %d holds layout id %x, producer 0 %x", s, r, ids[s][r], ids[s][0])
			}
		}
	}
}

// TestRedirectSharedByConcurrentOpens: two files of one layout, open at
// once, share one redirect record. The first file's read asks every owner;
// reads of the second, and further reads of either, ask nobody; both read
// back the right values.
func TestRedirectSharedByConcurrentOpens(t *testing.T) {
	const producers = 4
	names := []string{"a.h5", "b.h5"}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: producers, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			vol.ServeOnClose = false
			r := int64(p.Task.Rank())
			var hs []*ServeHandle
			for _, name := range names {
				must(writeRows(h5.NewFileAccessProps(vol), name, r*2, r*2+2))
			}
			for _, name := range names {
				hs = append(hs, get(vol.ServeAsync(name)))
			}
			for _, h := range hs {
				must(h.Wait())
			}
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			fapl := h5.NewFileAccessProps(vol)
			a := get(h5.OpenFile(names[0], fapl))
			b := get(h5.OpenFile(names[1], fapl))
			whole := grid.WholeExtent(redirectDims)
			readBox(t, a, whole)
			if got := vol.QueryStats().BoxQueries; got != producers {
				t.Errorf("first file: %d box queries, want %d", got, producers)
			}
			readBox(t, b, whole)
			rng := rand.New(rand.NewSource(3))
			for k := 0; k < 10; k++ {
				readBox(t, []*h5.File{a, b}[k%2], randomReadBox(rng))
			}
			if got := vol.QueryStats().BoxQueries; got != producers {
				t.Errorf("both files: %d box queries, want %d (the second file shares the first's record)", got, producers)
			}
			if len(vol.redirects) != 1 {
				t.Errorf("%d redirect records for one dataset over one intercomm", len(vol.redirects))
			}
			must(a.Close())
			must(b.Close())
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRedirectSoakStateBounded: a thousand-step time loop, a new file name
// every step, three producers and two consumers. After the first step no
// side counts another box query, the consumer's table holds exactly one
// record per (intercomm, dataset), and every step's data validates.
func TestRedirectSoakStateBounded(t *testing.T) {
	const steps = 1000
	spec := workload.Spec{Producers: 3, Consumers: 2, GridPointsPerProducer: 8, ParticlesPerProducer: 4}
	const datasets = 2 // /group1/grid and /group2/particles
	name := func(s int) string { return fmt.Sprintf("soak%d.h5", s) }
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: spec.Producers, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			fapl := h5.NewFileAccessProps(vol)
			r := p.Task.Rank()
			gridVals, partVals := workload.GenerateProducer(spec, r)
			var first int64
			for s := 0; s < steps; s++ {
				f := get(h5.CreateFile(name(s), fapl))
				must(workload.WriteSynthetic(f, spec, r, gridVals, partVals))
				must(f.Close())
				if s == 0 {
					first = vol.Stats().BoxQueries
				}
			}
			if got := vol.Stats().BoxQueries; got != first {
				t.Errorf("producer %d: %d box queries after step 1, %d after step %d", r, first, got, steps)
			}
		}},
		{Name: "cons", Procs: spec.Consumers, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("prod"))
			fapl := h5.NewFileAccessProps(vol)
			r := p.Task.Rank()
			var first int64
			// The first failure is reported and the loop goes on, so the
			// producers still get every done.
			failed := false
			fail := func(format string, args ...any) {
				if !failed {
					t.Errorf(format, args...)
					failed = true
				}
			}
			for s := 0; s < steps; s++ {
				f := get(h5.OpenFile(name(s), fapl))
				gridBuf, partBuf, err := workload.ReadConsumer(f, spec, r)
				must(err)
				must(f.Close())
				if err := workload.ValidateConsumer(spec, r, gridBuf, partBuf); err != nil {
					fail("consumer %d, step %d: %v", r, s, err)
				}
				got := vol.QueryStats().BoxQueries
				if s == 0 {
					first = got
				} else if got != first {
					fail("consumer %d, step %d: %d box queries, %d after step 1", r, s, got, first)
				}
				if len(vol.redirects) != datasets {
					fail("consumer %d, step %d: %d redirect records, want %d", r, s, len(vol.redirects), datasets)
				}
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}
