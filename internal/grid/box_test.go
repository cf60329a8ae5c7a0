package grid

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewBoxAndCounts(t *testing.T) {
	b := NewBox([]int64{2, 3}, []int64{4, 5})
	if b.IsEmpty() {
		t.Fatal("box should not be empty")
	}
	if got := b.NumPoints(); got != 20 {
		t.Errorf("NumPoints=%d", got)
	}
	if !reflect.DeepEqual(b.Count(), []int64{4, 5}) {
		t.Errorf("Count=%v", b.Count())
	}
	if b.Min[0] != 2 || b.Max[0] != 5 || b.Min[1] != 3 || b.Max[1] != 7 {
		t.Errorf("bounds %v", b)
	}
}

func TestEmptyBoxes(t *testing.T) {
	if !(Box{}).IsEmpty() {
		t.Error("zero box should be empty")
	}
	b := NewBox([]int64{0}, []int64{0})
	if !b.IsEmpty() || b.NumPoints() != 0 {
		t.Error("zero-count box should be empty")
	}
	a := NewBox([]int64{0, 0}, []int64{2, 2})
	c := NewBox([]int64{5, 5}, []int64{2, 2})
	if a.Intersects(c) {
		t.Error("disjoint boxes should not intersect")
	}
	if !a.Intersect(c).IsEmpty() {
		t.Error("intersection of disjoint boxes should be empty")
	}
}

func TestIntersect(t *testing.T) {
	a := NewBox([]int64{0, 0}, []int64{4, 4})
	b := NewBox([]int64{2, 2}, []int64{4, 4})
	got := a.Intersect(b)
	want := NewBox([]int64{2, 2}, []int64{2, 2})
	if !got.Equal(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestContains(t *testing.T) {
	b := NewBox([]int64{1, 1, 1}, []int64{2, 2, 2})
	if !b.Contains([]int64{2, 2, 2}) {
		t.Error("interior point")
	}
	if b.Contains([]int64{0, 1, 1}) || b.Contains([]int64{1, 3, 1}) {
		t.Error("exterior point")
	}
}

func TestBoundingBox(t *testing.T) {
	bb := BoundingBox([]Box{
		NewBox([]int64{5, 0}, []int64{1, 1}),
		NewBox([]int64{0, 7}, []int64{2, 1}),
		{Min: []int64{9, 9}, Max: []int64{0, 0}}, // empty, ignored
	})
	want := Box{Min: []int64{0, 0}, Max: []int64{5, 7}}
	if !bb.Equal(want) {
		t.Errorf("got %v want %v", bb, want)
	}
}

func TestLinearIndexRoundTrip(t *testing.T) {
	dims := []int64{3, 4, 5}
	for i := int64(0); i < 60; i++ {
		pt := Coords(dims, i)
		if got := LinearIndex(dims, pt); got != i {
			t.Fatalf("roundtrip %d -> %v -> %d", i, pt, got)
		}
	}
}

func TestRunsSimple2D(t *testing.T) {
	dims := []int64{4, 6}
	b := NewBox([]int64{1, 2}, []int64{2, 3})
	var runs [][2]int64
	b.Runs(dims, func(off, n int64) { runs = append(runs, [2]int64{off, n}) })
	want := [][2]int64{{8, 3}, {14, 3}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs=%v want %v", runs, want)
	}
}

func TestRunsCoalesceFullRows(t *testing.T) {
	dims := []int64{4, 6}
	// Box spans the full second dimension -> rows coalesce into one run.
	b := NewBox([]int64{1, 0}, []int64{2, 6})
	var runs [][2]int64
	b.Runs(dims, func(off, n int64) { runs = append(runs, [2]int64{off, n}) })
	want := [][2]int64{{6, 12}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs=%v want %v", runs, want)
	}
}

func TestRunsWholeExtentSingleRun(t *testing.T) {
	dims := []int64{3, 4, 5}
	b := WholeExtent(dims)
	var runs [][2]int64
	b.Runs(dims, func(off, n int64) { runs = append(runs, [2]int64{off, n}) })
	if len(runs) != 1 || runs[0] != [2]int64{0, 60} {
		t.Errorf("runs=%v", runs)
	}
}

func TestRuns1D(t *testing.T) {
	dims := []int64{10}
	b := NewBox([]int64{3}, []int64{4})
	var runs [][2]int64
	b.Runs(dims, func(off, n int64) { runs = append(runs, [2]int64{off, n}) })
	if len(runs) != 1 || runs[0] != [2]int64{3, 4} {
		t.Errorf("runs=%v", runs)
	}
}

func TestRuns3DPartial(t *testing.T) {
	dims := []int64{2, 3, 4}
	b := NewBox([]int64{0, 1, 1}, []int64{2, 2, 2})
	seen := map[int64]bool{}
	total := int64(0)
	b.Runs(dims, func(off, n int64) {
		total += n
		for i := off; i < off+n; i++ {
			if seen[i] {
				t.Fatalf("index %d covered twice", i)
			}
			seen[i] = true
		}
	})
	if total != b.NumPoints() {
		t.Errorf("covered %d points want %d", total, b.NumPoints())
	}
	// Every covered linear index must correspond to a point in the box.
	for i := range seen {
		if !b.Contains(Coords(dims, i)) {
			t.Errorf("index %d (%v) outside the box", i, Coords(dims, i))
		}
	}
}

// randomBoxInExtent builds a random non-empty box inside dims.
func randomBoxInExtent(r *rand.Rand, dims []int64) Box {
	start := make([]int64, len(dims))
	count := make([]int64, len(dims))
	for d := range dims {
		start[d] = r.Int63n(dims[d])
		count[d] = 1 + r.Int63n(dims[d]-start[d])
	}
	return NewBox(start, count)
}

func randomDims(r *rand.Rand, maxDim int) []int64 {
	d := 1 + r.Intn(3)
	dims := make([]int64, d)
	for i := range dims {
		dims[i] = 1 + r.Int63n(int64(maxDim))
	}
	return dims
}

func TestRunsPropertyCoverExactly(t *testing.T) {
	// Property: Runs covers exactly the box's points, once each.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := randomDims(r, 9)
		b := randomBoxInExtent(r, dims)
		covered := map[int64]bool{}
		b.Runs(dims, func(off, n int64) {
			for i := off; i < off+n; i++ {
				if covered[i] {
					t.Logf("dims=%v box=%v: duplicate %d", dims, b, i)
					return
				}
				covered[i] = true
			}
		})
		if int64(len(covered)) != b.NumPoints() {
			t.Logf("dims=%v box=%v: covered %d want %d", dims, b, len(covered), b.NumPoints())
			return false
		}
		for i := range covered {
			if !b.Contains(Coords(dims, i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntersectPropertyCommutesAndBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := randomDims(r, 12)
		a := randomBoxInExtent(r, dims)
		b := randomBoxInExtent(r, dims)
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		if !ab.Equal(ba) {
			return false
		}
		if ab.IsEmpty() {
			return true
		}
		// Intersection is contained in both.
		return a.Intersect(ab).Equal(ab) && b.Intersect(ab).Equal(ab) &&
			ab.NumPoints() <= a.NumPoints() && ab.NumPoints() <= b.NumPoints()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// intersectPanics reports whether b.Intersect(o) panics, as it does for
// boxes of different dimensionality.
func intersectPanics(b, o Box) (empty, panicked bool) {
	defer func() { panicked = recover() != nil }()
	return b.Intersect(o).IsEmpty(), false
}

func intersectsPanics(b, o Box) (hit, panicked bool) {
	defer func() { panicked = recover() != nil }()
	return b.Intersects(o), false
}

// TestIntersectsAgreesWithIntersect: over random boxes — empty ones, touching
// ones, zero-dimensional ones and pairs of different dimensionality —
// Intersects answers exactly what Intersect(..).IsEmpty() answers, and
// panics where it panics.
func TestIntersectsAgreesWithIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randBox := func(dim int) Box {
		b := Box{Min: make([]int64, dim), Max: make([]int64, dim)}
		for d := 0; d < dim; d++ {
			b.Min[d] = rng.Int63n(12) - 2
			b.Max[d] = b.Min[d] + rng.Int63n(8) - 2 // sometimes Max < Min
		}
		return b
	}
	hits := 0
	for i := 0; i < 20000; i++ {
		da := rng.Intn(4)
		db := da
		if rng.Intn(8) == 0 {
			db = rng.Intn(4)
		}
		a, b := randBox(da), randBox(db)
		empty, p1 := intersectPanics(a, b)
		hit, p2 := intersectsPanics(a, b)
		if p1 != p2 || (!p1 && hit == empty) {
			t.Fatalf("%v vs %v: Intersects=%v (panic %v), Intersect empty=%v (panic %v)", a, b, hit, p2, empty, p1)
		}
		if hit {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no random pair intersected: the test exercises nothing")
	}
}

func TestIntersectsAllocatesNothing(t *testing.T) {
	a := NewBox([]int64{0, 0, 0}, []int64{8, 8, 8})
	b := NewBox([]int64{4, 4, 4}, []int64{8, 8, 8})
	c := NewBox([]int64{9, 0, 0}, []int64{8, 8, 8})
	var hit, miss bool
	if n := testing.AllocsPerRun(100, func() { hit, miss = a.Intersects(b), a.Intersects(c) }); n != 0 {
		t.Errorf("Intersects allocated %v times per run, want 0", n)
	}
	if !hit || miss {
		t.Errorf("Intersects = %v, %v, want true, false", hit, miss)
	}
}
