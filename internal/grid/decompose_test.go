package grid

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestFactorBalanced(t *testing.T) {
	cases := []struct {
		n, d int
		want []int64
	}{
		{6, 2, []int64{3, 2}},
		{12, 2, []int64{4, 3}},
		{12, 3, []int64{3, 2, 2}},
		{8, 3, []int64{2, 2, 2}},
		{7, 2, []int64{7, 1}},
		{1, 3, []int64{1, 1, 1}},
		{64, 3, []int64{4, 4, 4}},
		{48, 3, []int64{4, 4, 3}},
		{1024, 2, []int64{32, 32}},
	}
	for _, c := range cases {
		got := FactorBalanced(c.n, c.d)
		prod := int64(1)
		for _, f := range got {
			prod *= f
		}
		if prod != int64(c.n) {
			t.Errorf("FactorBalanced(%d,%d)=%v: product %d", c.n, c.d, got, prod)
		}
		for i, f := range got {
			if c.want[i] != f {
				t.Errorf("FactorBalanced(%d,%d)=%v want %v", c.n, c.d, got, c.want)
				break
			}
		}
	}
}

// factorBalancedSorted is FactorBalanced as it was written with sort.Slice,
// kept as the reference the allocation-free version must reproduce.
func factorBalancedSorted(n, d int) []int64 {
	factors := make([]int64, d)
	for i := range factors {
		factors[i] = 1
	}
	var primes []int64
	m := int64(n)
	for p := int64(2); p*p <= m; p++ {
		for m%p == 0 {
			primes = append(primes, p)
			m /= p
		}
	}
	if m > 1 {
		primes = append(primes, m)
	}
	sort.Slice(primes, func(i, j int) bool { return primes[i] > primes[j] })
	for _, p := range primes {
		smallest := 0
		for i := 1; i < d; i++ {
			if factors[i] < factors[smallest] {
				smallest = i
			}
		}
		factors[smallest] *= p
	}
	sort.Slice(factors, func(i, j int) bool { return factors[i] > factors[j] })
	return factors
}

// TestFactorBalancedMatchesSorted: for every n up to 1024 and d up to 4,
// the factors equal those of the sort.Slice version, in the same order.
func TestFactorBalancedMatchesSorted(t *testing.T) {
	for n := 1; n <= 1024; n++ {
		for d := 1; d <= 4; d++ {
			if got, want := FactorBalanced(n, d), factorBalancedSorted(n, d); !slices.Equal(got, want) {
				t.Errorf("FactorBalanced(%d, %d) = %v, want %v", n, d, got, want)
			}
		}
	}
}

// TestFactorBalancedAllocs: the result is the only allocation.
func TestFactorBalancedAllocs(t *testing.T) {
	for _, c := range [][2]int{{4, 3}, {1024, 4}, {997, 2}, {1 << 30, 3}} {
		if a := testing.AllocsPerRun(100, func() { FactorBalanced(c[0], c[1]) }); a != 1 {
			t.Errorf("FactorBalanced(%d, %d) allocates %v times, want 1", c[0], c[1], a)
		}
	}
}

func TestFactorBalancedProductProperty(t *testing.T) {
	f := func(n0, d0 uint8) bool {
		n := int(n0)%500 + 1
		d := int(d0)%4 + 1
		factors := FactorBalanced(n, d)
		prod := int64(1)
		for _, f := range factors {
			if f < 1 {
				return false
			}
			prod *= f
		}
		return prod == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCommonDecompositionPartitions(t *testing.T) {
	dims := []int64{8, 12}
	dc := CommonDecomposition(dims, 6)
	if dc.NumBlocks() != 6 {
		t.Fatalf("NumBlocks=%d", dc.NumBlocks())
	}
	covered := map[int64]bool{}
	for i := 0; i < dc.NumBlocks(); i++ {
		b := dc.Block(i)
		b.Runs(dims, func(off, n int64) {
			for k := off; k < off+n; k++ {
				if covered[k] {
					t.Fatalf("block %d re-covers index %d", i, k)
				}
				covered[k] = true
			}
		})
	}
	if int64(len(covered)) != 8*12 {
		t.Errorf("covered %d of %d points", len(covered), 8*12)
	}
}

func TestCommonDecompositionLargerFactorOnLargerDim(t *testing.T) {
	dc := CommonDecomposition([]int64{4, 100}, 8)
	// 8 = 4*2; the larger factor must go to the length-100 dimension.
	if dc.Blocks[1] < dc.Blocks[0] {
		t.Errorf("blocks=%v: larger factor should be on the larger dimension", dc.Blocks)
	}
}

func TestCommonDecompositionDeterministic(t *testing.T) {
	a := CommonDecomposition([]int64{64, 64, 64}, 48)
	b := CommonDecomposition([]int64{64, 64, 64}, 48)
	for d := range a.Blocks {
		if a.Blocks[d] != b.Blocks[d] {
			t.Fatalf("nondeterministic decomposition: %v vs %v", a.Blocks, b.Blocks)
		}
	}
}

func TestIntersectingMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := randomDims(r, 20)
		n := 1 + r.Intn(16)
		dc := CommonDecomposition(dims, n)
		q := randomBoxInExtent(r, dims)
		got := map[int]bool{}
		for _, i := range dc.Intersecting(q) {
			got[i] = true
		}
		for i := 0; i < dc.NumBlocks(); i++ {
			want := dc.Block(i).Intersects(q)
			if got[i] != want {
				t.Logf("dims=%v n=%d q=%v block %d (%v): got %v want %v",
					dims, n, q, i, dc.Block(i), got[i], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestDecompositionPartitionProperty(t *testing.T) {
	// Property: for random dims and n, blocks partition the extent exactly.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := randomDims(r, 10)
		n := 1 + r.Intn(12)
		dc := CommonDecomposition(dims, n)
		total := int64(0)
		for i := 0; i < dc.NumBlocks(); i++ {
			total += dc.Block(i).NumPoints()
		}
		want := int64(1)
		for _, d := range dims {
			want *= d
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// intersectingRef is the plain form of Intersecting: it tests each block of
// the covering subrange by building the block and intersecting it with the
// query. It is the reference TestIntersectingMatchesReference holds
// Intersecting to.
func intersectingRef(dc Decomposition, q Box) []int {
	if q.IsEmpty() {
		return nil
	}
	d := len(dc.Dims)
	lo := make([]int64, d)
	hi := make([]int64, d)
	for k := 0; k < d; k++ {
		L, nb := dc.Dims[k], dc.Blocks[k]
		qmin, qmax := q.Min[k], q.Max[k]
		if qmin < 0 {
			qmin = 0
		}
		if qmax > L-1 {
			qmax = L - 1
		}
		if qmin > qmax {
			return nil
		}
		lo[k] = blockOf(qmin, L, nb)
		hi[k] = blockOf(qmax, L, nb)
	}
	var out []int
	cur := append([]int64(nil), lo...)
	for {
		idx := LinearIndex(dc.Blocks, cur)
		if dc.Block(int(idx)).Intersects(q) {
			out = append(out, int(idx))
		}
		k := d - 1
		for k >= 0 {
			cur[k]++
			if cur[k] <= hi[k] {
				break
			}
			cur[k] = lo[k]
			k--
		}
		if k < 0 {
			return out
		}
	}
}

// TestIntersectingMatchesReference: for every rank up to 4 and every block
// count up to 64, Intersecting returns exactly the reference's blocks in
// the reference's order, over random extents (some shorter than their
// block count, so with empty blocks) and random queries, which may reach
// outside the extent or be empty.
func TestIntersectingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for rank := 1; rank <= 4; rank++ {
		for n := 1; n <= 64; n++ {
			for trial := 0; trial < 12; trial++ {
				dims := make([]int64, rank)
				q := Box{Min: make([]int64, rank), Max: make([]int64, rank)}
				for k := range dims {
					dims[k] = 1 + r.Int63n(24)
					q.Min[k] = r.Int63n(dims[k]+6) - 3
					q.Max[k] = q.Min[k] + r.Int63n(dims[k]+3) - 1
				}
				dc := CommonDecomposition(dims, n)
				got, want := dc.Intersecting(q), intersectingRef(dc, q)
				if !slices.Equal(got, want) {
					t.Fatalf("dims=%v n=%d blocks=%v q=%v: got %v, want %v", dims, n, dc.Blocks, q, got, want)
				}
			}
		}
	}
}

// TestIntersectingAllocs: Intersecting allocates only its result, one
// slice, and nothing for a query outside the extent.
func TestIntersectingAllocs(t *testing.T) {
	dc := CommonDecomposition([]int64{40, 30, 20}, 24)
	hit := Box{Min: []int64{5, 3, 2}, Max: []int64{30, 17, 19}}
	miss := Box{Min: []int64{41, 0, 0}, Max: []int64{50, 5, 5}}
	if len(dc.Intersecting(hit)) < 2 {
		t.Fatal("the hit query should cover several blocks")
	}
	if a := testing.AllocsPerRun(100, func() { dc.Intersecting(hit) }); a != 1 {
		t.Errorf("Intersecting allocates %v times for a hit, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { dc.Intersecting(miss) }); a != 0 {
		t.Errorf("Intersecting allocates %v times for a miss, want 0", a)
	}
}
