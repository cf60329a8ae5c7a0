package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lowfive/h5"
	"lowfive/internal/grid"
	"lowfive/internal/rpc"
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
		rd := newRedirect(NewDatasetNode("d", h5.U8, h5.NewSimple(dims...)), n)
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

// TestRedirectCacheConcurrentUse: reads of one open file from several
// goroutines create, fill and read its redirect records without a race.
func TestRedirectCacheConcurrentUse(t *testing.T) {
	const producers = 3
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: producers, Main: func(p *mpi.Proc) {}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			s := &liveSource{ic: p.Intercomm("prod")}
			nodes := []*Node{
				NewDatasetNode("a", h5.U8, h5.NewSimple(6, 9)),
				NewDatasetNode("b", h5.U8, h5.NewSimple(6, 9)),
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
					rd := s.redirectFor(node)
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

// redirectDims is the dataset of the lifetime and failover tests. Over four
// producers its common decomposition is 2×2×1 blocks.
var redirectDims = []int64{8, 12, 6}

// writeRows writes the rows [r0, r1) of a redirectDims dataset, each element
// holding its global linear index; an empty range writes nothing.
func writeRows(fapl *h5.FileAccessProps, name string, r0, r1 int64) error {
	f, err := h5.CreateFile(name, fapl)
	if err != nil {
		return err
	}
	ds, err := f.CreateDataset("grid", h5.U64, h5.NewSimple(redirectDims...))
	if err != nil {
		return err
	}
	if r1 > r0 {
		row := redirectDims[1] * redirectDims[2]
		sel := h5.NewSimple(redirectDims...)
		if err := sel.SelectHyperslab(h5.SelectSet, []int64{r0, 0, 0}, []int64{r1 - r0, redirectDims[1], redirectDims[2]}); err != nil {
			return err
		}
		vals := make([]uint64, (r1-r0)*row)
		for i := range vals {
			vals[i] = uint64(r0*row + int64(i))
		}
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

// TestRedirectOncePerOwnerPerOpenFile: K reads on one open file ask each
// owner they touch once, so the redirect calls are the owners in the union
// of the reads, at most one per block; a reopened file asks again; and the
// calls issued, the calls the rpc client made and the calls served agree.
func TestRedirectOncePerOwnerPerOpenFile(t *testing.T) {
	const producers, reads = 4, 25
	dc := grid.CommonDecomposition(redirectDims, producers)
	var mu sync.Mutex
	var served int64
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: producers, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			r := int64(p.Task.Rank())
			must(writeRows(h5.NewFileAccessProps(vol), "r.h5", r*2, r*2+2))
			mu.Lock()
			served += vol.Stats().BoxQueries
			mu.Unlock()
		}},
		// Consumer rank 1 opens nothing: rank 0's two closes are the two
		// dones the producers' serve session waits for.
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
			f := get(h5.OpenFile("r.h5", fapl))
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
			if first > producers {
				t.Errorf("%d reads made %d box queries, more than the %d owners", reads, first, producers)
			}
			f = get(h5.OpenFile("r.h5", fapl))
			whole := grid.WholeExtent(redirectDims)
			readBox(t, f, whole)
			readBox(t, f, whole)
			must(f.Close())
			issued := vol.QueryStats().BoxQueries
			if issued-first != producers {
				t.Errorf("reopened file: %d box queries for two whole reads, want %d (every owner asked again, once)", issued-first, producers)
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
