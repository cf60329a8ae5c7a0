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
