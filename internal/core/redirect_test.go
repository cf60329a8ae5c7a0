package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
		rd := newRedirect(NewDatasetNode("d", h5.U8, h5.NewSimple(dims...)), n, datasetLayout{path: "/d"})
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
			nodes := []*Node{
				NewDatasetNode("a", h5.U8, h5.NewSimple(6, 9)),
				NewDatasetNode("b", h5.U8, h5.NewSimple(6, 9)),
			}
			layouts := map[*Node]datasetLayout{
				nodes[0]: {path: "/a", print: layoutPrint{1}},
				nodes[1]: {path: "/b", print: layoutPrint{2}},
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
					rd := vol.redirectFor(ic, node, layouts)
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

// TestLayoutPrintCoversRedirectInputs: the fingerprint is a function of
// what an owner's redirect answer depends on and changes with each part of
// it: the producer count, the dims, any producer's boxes and their order.
func TestLayoutPrintCoversRedirectInputs(t *testing.T) {
	dims := []int64{8, 12}
	b := func(x0, x1 int64) grid.Box { return grid.Box{Min: []int64{x0, 0}, Max: []int64{x1, 11}} }
	base := func() [][]grid.Box { return [][]grid.Box{{b(0, 3)}, {b(4, 5), b(6, 7)}, nil} }
	fold := func(dims []int64, boxes [][]grid.Box) layoutPrint {
		own := make([]layoutPrint, len(boxes))
		for r, bs := range boxes {
			own[r] = ownLayout(dims, bs)
		}
		return foldLayout(own)
	}
	want := fold(dims, base())
	if got := fold([]int64{8, 12}, base()); got != want {
		t.Fatalf("same layout folds to %x and %x", got, want)
	}
	for _, c := range []struct {
		name  string
		dims  []int64
		boxes func([][]grid.Box) [][]grid.Box
	}{
		{"one more producer", dims, func(bs [][]grid.Box) [][]grid.Box { return append(bs, nil) }},
		{"other dims", []int64{8, 13}, func(bs [][]grid.Box) [][]grid.Box { return bs }},
		{"other rank", []int64{8, 12, 1}, func(bs [][]grid.Box) [][]grid.Box { return bs }},
		{"one box grown", dims, func(bs [][]grid.Box) [][]grid.Box { bs[1][1] = b(6, 8); return bs }},
		{"boxes reordered", dims, func(bs [][]grid.Box) [][]grid.Box { bs[1][0], bs[1][1] = bs[1][1], bs[1][0]; return bs }},
		{"box moved to another producer", dims, func(bs [][]grid.Box) [][]grid.Box { bs[2], bs[1] = bs[1][1:], bs[1][:1]; return bs }},
		{"producers swapped", dims, func(bs [][]grid.Box) [][]grid.Box { bs[0], bs[1] = bs[1], bs[0]; return bs }},
	} {
		if got := fold(c.dims, c.boxes(base())); got == want {
			t.Errorf("%s: fingerprint unchanged", c.name)
		}
	}
}

// TestLayoutSectionsRejectCorrupt: the fingerprint sections of the index
// message and of the metadata answer refuse a count the buffer cannot hold
// before reading a record, a truncated fingerprint, an entry without its
// digest and a layout naming no dataset of the tree.
func TestLayoutSectionsRejectCorrupt(t *testing.T) {
	setCount := func(b []byte, at int, n int64) []byte {
		c := append([]byte(nil), b...)
		e := &h5.Encoder{}
		e.PutI64(n)
		copy(c[at:], e.Buf)
		return c
	}
	msg := indexMsgFixture()
	orphan := &h5.Encoder{}
	encodeIndexDigests(orphan, []string{"/a"}, []layoutPrint{{1}})
	orphan.PutString("/b")
	encodeBox(orphan, grid.Box{Min: []int64{0}, Max: []int64{1}})
	vol, _ := requestFixture(t)
	fn, _ := vol.File("outfile.h5")
	meta := encodeMetadataResp(fn, vol.indexes["outfile.h5"])
	if _, layouts, err := decodeMetadataResp(meta); err != nil || len(layouts) != 1 {
		t.Fatalf("valid answer: %d layouts, err %v", len(layouts), err)
	}
	at := len(meta) - (8 + 8 + len("/state/grid") + len(layoutPrint{}))
	group := &h5.Encoder{Buf: append([]byte(nil), meta[:at]...)}
	group.PutI64(1)
	group.PutString("/state")
	group.Buf = append(group.Buf, make([]byte, len(layoutPrint{}))...)
	for _, c := range []struct {
		name, want string
		err        error
	}{
		{"index: count past the buffer", "2305843009213693952 fingerprints", indexErr(setCount(msg, 0, 1<<61))},
		{"index: negative count", "-1 fingerprints", indexErr(setCount(msg, 0, -1))},
		{"index: count one past", "fingerprints in", indexErr(setCount(msg, 0, int64(len(msg)/24+1)))},
		{"index: truncated fingerprint", "truncated fingerprint", indexErr(orphan.Buf[:8+8+len("/a")+len(layoutPrint{})-2])},
		{"index: entry without digest", `entry for "/b" without its layout digest`, indexErr(orphan.Buf)},
		{"metadata: count past the buffer", "2305843009213693952 fingerprints", metaErr(setCount(meta, at, 1<<61))},
		{"metadata: count one past", "2 fingerprints", metaErr(setCount(meta, at, 2))},
		{"metadata: truncated fingerprint", "truncated fingerprint", metaErr(meta[:len(meta)-1])},
		{"metadata: path of a group", `"/state" is no dataset`, metaErr(group.Buf)},
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
	return writeBox(fapl, name, box)
}

// writeBox writes box of a redirectDims dataset, each element holding its
// global linear index; an empty box writes nothing.
func writeBox(fapl *h5.FileAccessProps, name string, box grid.Box) error {
	f, err := h5.CreateFile(name, fapl)
	if err != nil {
		return err
	}
	ds, err := f.CreateDataset("grid", h5.U64, h5.NewSimple(redirectDims...))
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
	return f.Close() // indexes and serves
}

// readBox reads box from the open file's grid and checks every element.
func readBox(t *testing.T, f *h5.File, box grid.Box) {
	t.Helper()
	ds, err := f.OpenDataset("grid")
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
// new file, the consumer asks the owners on the first step and again
// exactly on the step where the layout changes, and reuses its record on
// every other step; every producer holds the same fingerprint, which
// changes exactly there; and every step reads back the right values. One
// run turns row slabs into column slabs; in the other only producer 2's
// box grows, over the same dims.
func TestRedirectReissuesOnLayoutChange(t *testing.T) {
	const producers, steps, change = 4, 6, 3
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
	for _, c := range []struct {
		name          string
		before, after func(int64) grid.Box
	}{{"decomposition", rows, cols}, {"one-box", rows, grown}} {
		t.Run(c.name, func(t *testing.T) {
			var prints [steps][producers]layoutPrint
			var mu sync.Mutex
			var served int64
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "prod", Procs: producers, Main: func(p *mpi.Proc) {
					vol := NewDistMetadataVOL(p.Task, nil)
					vol.SetIntercomm("*", p.Intercomm("cons"))
					r := p.Task.Rank()
					for s := 0; s < steps; s++ {
						box := c.before(int64(r))
						if s >= change {
							box = c.after(int64(r))
						}
						name := fmt.Sprintf("step%d.h5", s)
						must(writeBox(h5.NewFileAccessProps(vol), name, box))
						vol.serveMu.Lock()
						prints[s][r] = vol.indexes[name]["/grid"].layout
						vol.serveMu.Unlock()
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
						readBox(t, f, grid.WholeExtent(redirectDims))
						// Smaller reads need only some producers' data: a
						// stale record would leave the others' parts unread.
						rng := rand.New(rand.NewSource(int64(s)))
						for k := 0; k < 8; k++ {
							readBox(t, f, randomReadBox(rng))
						}
						must(f.Close())
						got := vol.QueryStats().BoxQueries - asked
						asked += got
						want := int64(0)
						if s == 0 || s == change {
							want = producers
						}
						if got != want {
							t.Errorf("step %d: %d box queries, want %d", s, got, want)
						}
						if len(vol.redirects) != 1 {
							t.Errorf("step %d: %d redirect records, want 1", s, len(vol.redirects))
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
			for s := range prints {
				for r := range prints[s] {
					if prints[s][r] != prints[s][0] {
						t.Errorf("step %d: producer %d holds fingerprint %x, producer 0 %x", s, r, prints[s][r], prints[s][0])
					}
				}
				if s > 0 && (prints[s][0] == prints[s-1][0]) != (s != change) {
					t.Errorf("step %d: fingerprint %x after %x; want a change exactly at step %d", s, prints[s][0], prints[s-1][0], change)
				}
			}
		})
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
