package h5

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lowfive/internal/grid"
)

func TestNewSimple(t *testing.T) {
	s := NewSimple(3, 4, 5)
	if s.Rank() != 3 || s.NumPoints() != 60 {
		t.Errorf("rank=%d points=%d", s.Rank(), s.NumPoints())
	}
	if !s.IsAll() || s.NumSelected() != 60 {
		t.Errorf("fresh dataspace should select all (%d)", s.NumSelected())
	}
}

func TestScalar(t *testing.T) {
	s := Scalar()
	if s.NumPoints() != 1 || s.NumSelected() != 1 {
		t.Error("scalar should hold one element")
	}
}

func TestSelectNoneAndAll(t *testing.T) {
	s := NewSimple(10)
	s.SelectNone()
	if s.NumSelected() != 0 || len(s.SelectionBoxes()) != 0 {
		t.Error("none should be empty")
	}
	s.SelectAll()
	if s.NumSelected() != 10 {
		t.Error("all should select everything")
	}
}

func TestSelectHyperslabBasic(t *testing.T) {
	s := NewSimple(8, 8)
	if err := s.SelectHyperslab(SelectSet, []int64{2, 3}, []int64{4, 2}); err != nil {
		t.Fatal(err)
	}
	if s.NumSelected() != 8 {
		t.Errorf("selected %d", s.NumSelected())
	}
	bb := s.Bounds()
	want := grid.NewBox([]int64{2, 3}, []int64{4, 2})
	if !bb.Equal(want) {
		t.Errorf("bounds %v want %v", bb, want)
	}
}

func TestSelectHyperslabOutOfBounds(t *testing.T) {
	s := NewSimple(8, 8)
	if err := s.SelectHyperslab(SelectSet, []int64{6, 0}, []int64{4, 1}); err == nil {
		t.Error("overflowing hyperslab should fail")
	}
	if err := s.SelectHyperslab(SelectSet, []int64{0}, []int64{1}); err == nil {
		t.Error("rank mismatch should fail")
	}
}

func TestSelectHyperslabOrDisjointUnion(t *testing.T) {
	s := NewSimple(10)
	if err := s.SelectHyperslab(SelectSet, []int64{0}, []int64{3}); err != nil {
		t.Fatal(err)
	}
	if err := s.SelectHyperslab(SelectOr, []int64{5}, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if s.NumSelected() != 5 {
		t.Errorf("selected %d want 5", s.NumSelected())
	}
}

func TestSelectHyperslabOrOverlapDedup(t *testing.T) {
	s := NewSimple(10)
	s.SelectHyperslab(SelectSet, []int64{0}, []int64{6})
	s.SelectHyperslab(SelectOr, []int64{4}, []int64{4})
	if s.NumSelected() != 8 {
		t.Errorf("selected %d want 8 (overlap deduplicated)", s.NumSelected())
	}
}

func TestSelectHyperslabStrideBlocks(t *testing.T) {
	s := NewSimple(10)
	// 3 blocks of 2 elements with stride 4: {0,1, 4,5, 8,9}.
	if err := s.SelectHyperslabStride(SelectSet, []int64{0}, []int64{4}, []int64{3}, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if s.NumSelected() != 6 {
		t.Errorf("selected %d", s.NumSelected())
	}
	runs := s.runs()
	want := [][2]int64{{0, 2}, {4, 2}, {8, 2}}
	if len(runs) != len(want) {
		t.Fatalf("runs %v", runs)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Errorf("run %d: %v want %v", i, runs[i], want[i])
		}
	}
}

func TestSelectHyperslabStrideValidation(t *testing.T) {
	s := NewSimple(10)
	// stride < block is invalid.
	if err := s.SelectHyperslabStride(SelectSet, []int64{0}, []int64{1}, []int64{3}, []int64{2}); err == nil {
		t.Error("stride < block should fail")
	}
	// last element out of range: start 0, stride 4, count 3, block 3 -> last=10.
	if err := s.SelectHyperslabStride(SelectSet, []int64{0}, []int64{4}, []int64{3}, []int64{3}); err == nil {
		t.Error("overflow should fail")
	}
}

func TestSelectPoints(t *testing.T) {
	s := NewSimple(4, 4)
	if err := s.SelectPoints(SelectSet, [][]int64{{0, 0}, {3, 3}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	if s.NumSelected() != 3 {
		t.Errorf("selected %d", s.NumSelected())
	}
	runs := s.runs()
	want := [][2]int64{{0, 1}, {15, 1}, {6, 1}} // insertion order preserved
	for i := range want {
		if runs[i] != want[i] {
			t.Errorf("run %d: %v want %v", i, runs[i], want[i])
		}
	}
	if err := s.SelectPoints(SelectOr, [][]int64{{9, 0}}); err == nil {
		t.Error("out-of-range point should fail")
	}
}

func TestSelectBox(t *testing.T) {
	s := NewSimple(6, 6)
	if err := s.SelectBox(SelectSet, grid.NewBox([]int64{1, 1}, []int64{2, 2})); err != nil {
		t.Fatal(err)
	}
	if s.NumSelected() != 4 {
		t.Errorf("selected %d", s.NumSelected())
	}
	if err := s.SelectBox(SelectSet, grid.NewBox([]int64{5, 5}, []int64{2, 2})); err == nil {
		t.Error("box exceeding extent should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewSimple(10)
	s.SelectHyperslab(SelectSet, []int64{0}, []int64{5})
	c := s.Clone()
	c.SelectHyperslab(SelectSet, []int64{0}, []int64{1})
	if s.NumSelected() != 5 || c.NumSelected() != 1 {
		t.Errorf("clone not independent: %d/%d", s.NumSelected(), c.NumSelected())
	}
}

func TestDataspaceSerialRoundTrip(t *testing.T) {
	spaces := []*Dataspace{
		NewSimple(5),
		NewSimple(3, 4, 5),
		NewSimple(10).SelectNone(),
	}
	h := NewSimple(8, 8)
	h.SelectHyperslab(SelectSet, []int64{1, 1}, []int64{3, 3})
	h.SelectHyperslab(SelectOr, []int64{5, 5}, []int64{2, 2})
	spaces = append(spaces, h)
	p := NewSimple(4, 4)
	p.SelectPoints(SelectSet, [][]int64{{1, 1}, {2, 3}})
	spaces = append(spaces, p)
	for _, s := range spaces {
		got, err := UnmarshalDataspace(MarshalDataspace(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got.String() != s.String() || got.NumSelected() != s.NumSelected() {
			t.Errorf("roundtrip %v -> %v", s, got)
		}
		gr, sr := got.runs(), s.runs()
		if len(gr) != len(sr) {
			t.Fatalf("runs differ: %v vs %v", gr, sr)
		}
		for i := range gr {
			if gr[i] != sr[i] {
				t.Errorf("run %d differs: %v vs %v", i, gr[i], sr[i])
			}
		}
	}
}

func TestHyperslabUnionProperty(t *testing.T) {
	// Property: OR-ing random boxes yields a selection whose size equals the
	// size of the union set computed by brute force.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []int64{1 + r.Int63n(12), 1 + r.Int63n(12)}
		s := NewSimple(dims...)
		s.SelectNone()
		set := map[[2]int64]bool{}
		for k := 0; k < 1+r.Intn(5); k++ {
			start := []int64{r.Int63n(dims[0]), r.Int63n(dims[1])}
			count := []int64{1 + r.Int63n(dims[0]-start[0]), 1 + r.Int63n(dims[1]-start[1])}
			if err := s.SelectHyperslab(SelectOr, start, count); err != nil {
				return false
			}
			for i := start[0]; i < start[0]+count[0]; i++ {
				for j := start[1]; j < start[1]+count[1]; j++ {
					set[[2]int64{i, j}] = true
				}
			}
		}
		return s.NumSelected() == int64(len(set))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// boundsCases are selections of every kind: all, none, boxes (one, a
// disjoint union, an empty one, a strided set) and points.
func boundsCases(t *testing.T) map[string]*Dataspace {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]*Dataspace{
		"all":     NewSimple(4, 6, 3),
		"all-1d":  NewSimple(9),
		"none":    NewSimple(4, 6).SelectNone(),
		"scalar":  Scalar(),
		"box":     NewSimple(8, 8),
		"union":   NewSimple(8, 8),
		"empty":   NewSimple(8, 8),
		"strided": NewSimple(16, 16),
		"points":  NewSimple(8, 8, 8),
		"point":   NewSimple(8, 8),
	}
	must(cases["box"].SelectHyperslab(SelectSet, []int64{2, 3}, []int64{4, 2}))
	must(cases["union"].SelectHyperslab(SelectSet, []int64{5, 0}, []int64{2, 2}))
	must(cases["union"].SelectHyperslab(SelectOr, []int64{0, 6}, []int64{1, 2}))
	must(cases["empty"].SelectBox(SelectSet, grid.Box{Min: []int64{3, 3}, Max: []int64{2, 3}}))
	must(cases["strided"].SelectHyperslabStride(SelectSet, []int64{1, 2}, []int64{5, 3}, []int64{3, 4}, []int64{2, 1}))
	must(cases["points"].SelectPoints(SelectSet, [][]int64{{4, 1, 7}, {0, 5, 2}, {6, 6, 0}}))
	must(cases["point"].SelectPoints(SelectSet, [][]int64{{3, 5}}))
	return cases
}

// TestBoundsMatchesSelectionBoxes: Bounds, read in place, equals the
// bounding box of the cloned selection boxes for every kind of selection.
func TestBoundsMatchesSelectionBoxes(t *testing.T) {
	for name, s := range boundsCases(t) {
		got, want := s.Bounds(), grid.BoundingBox(s.SelectionBoxes())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Bounds() = %v, want %v", name, got, want)
		}
	}
}

// TestBoundsAllocs: Bounds allocates only the box it returns, one array
// holding its Min and Max, whatever the selection holds; an empty selection
// allocates nothing.
func TestBoundsAllocs(t *testing.T) {
	for name, s := range boundsCases(t) {
		want := 1.0
		if s.Bounds().IsEmpty() {
			want = 0
		}
		if a := testing.AllocsPerRun(100, func() { s.Bounds() }); a != want {
			t.Errorf("%s: Bounds allocates %v times, want %v", name, a, want)
		}
	}
}
