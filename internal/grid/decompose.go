package grid

import "sort"

// FactorBalanced factors n into d factors that are as close to each other as
// possible (paper §III-B: "The decomposition is found by factoring n into d
// factors n1,...,nd that are as close to each other as possible"). The
// product of the result is exactly n. Factors are returned in descending
// order; callers map them onto dimensions themselves. It runs on every time
// step, so the only allocation is the result.
func FactorBalanced(n, d int) []int64 {
	if n <= 0 || d <= 0 {
		panic("grid: FactorBalanced requires positive n and d")
	}
	factors := make([]int64, d)
	for i := range factors {
		factors[i] = 1
	}
	// Assign prime factors of n, largest first, to the currently smallest
	// factor slot (the classic MPI_Dims_create strategy).
	var buf [64]int64 // an int has fewer than 64 prime factors
	primes := primeFactors(n, buf[:0])
	for i := len(primes) - 1; i >= 0; i-- {
		smallest := 0
		for j := 1; j < d; j++ {
			if factors[j] < factors[smallest] {
				smallest = j
			}
		}
		factors[smallest] *= primes[i]
	}
	// Insertion sort, descending: there are d factors, a handful at most.
	for i := 1; i < d; i++ {
		for j := i; j > 0 && factors[j] > factors[j-1]; j-- {
			factors[j], factors[j-1] = factors[j-1], factors[j]
		}
	}
	return factors
}

// primeFactors appends the prime factorization of n to f in ascending
// order.
func primeFactors(n int, f []int64) []int64 {
	m := int64(n)
	for p := int64(2); p*p <= m; p++ {
		for m%p == 0 {
			f = append(f, p)
			m /= p
		}
	}
	if m > 1 {
		f = append(f, m)
	}
	return f
}

// Decomposition is a regular block decomposition of an extent: the paper's
// "common decomposition" that producer and consumer implicitly agree on.
type Decomposition struct {
	// Dims is the extent being decomposed.
	Dims []int64
	// Blocks is the per-dimension block grid shape (n1, ..., nd).
	Blocks []int64
}

// CommonDecomposition cuts a dataset extent of the given dims into n blocks,
// one per producer process: factor n into len(dims) near-equal factors,
// assigning larger factors to larger extents so blocks stay close to cubic.
func CommonDecomposition(dims []int64, n int) Decomposition {
	d := len(dims)
	factors := FactorBalanced(n, d) // descending
	// Assign the largest factor to the largest dimension; ties broken by
	// dimension order for determinism.
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return dims[order[i]] > dims[order[j]] })
	blocks := make([]int64, d)
	for i, dim := range order {
		blocks[dim] = factors[i]
	}
	return Decomposition{Dims: append([]int64(nil), dims...), Blocks: blocks}
}

// NumBlocks returns the total number of blocks.
func (dc Decomposition) NumBlocks() int {
	n := int64(1)
	for _, b := range dc.Blocks {
		n *= b
	}
	return int(n)
}

// Block returns the bounds of block i (row-major order over the block grid).
// Blocks partition the extent; along a dimension of length L split into k
// blocks, block j spans [floor(j*L/k), floor((j+1)*L/k)-1], which may be
// empty when L < k.
func (dc Decomposition) Block(i int) Box {
	coords := Coords(dc.Blocks, int64(i))
	b := newBox(len(dc.Dims))
	for d := range dc.Dims {
		L, k, j := dc.Dims[d], dc.Blocks[d], coords[d]
		b.Min[d] = j * L / k
		b.Max[d] = (j+1)*L/k - 1
	}
	return b
}

// Intersecting returns the indices of all blocks whose bounds intersect the
// query box. It walks only the block-coordinate subrange covering the query
// rather than scanning all n blocks, and allocates only its result: every
// read asks it for the owners of its bounding box.
func (dc Decomposition) Intersecting(q Box) []int {
	if q.IsEmpty() {
		return nil
	}
	d := len(dc.Dims)
	var bufs [3][8]int64 // lo, hi and cur for up to 8 dimensions, on the stack
	lo, hi, cur := bufs[0][:0], bufs[1][:0], bufs[2][:0]
	count := 1
	for k := 0; k < d; k++ {
		L, nb := dc.Dims[k], dc.Blocks[k]
		qmin, qmax := max(q.Min[k], 0), min(q.Max[k], L-1)
		if qmin > qmax {
			return nil
		}
		// Block j spans [j*L/nb, (j+1)*L/nb-1]; blockOf finds the one
		// holding a coordinate.
		lo = append(lo, blockOf(qmin, L, nb))
		hi = append(hi, blockOf(qmax, L, nb))
		count *= int(hi[k] - lo[k] + 1)
	}
	cur = append(cur, lo...)
	out := make([]int, 0, count)
	for {
		// Every block of the subrange lies between the blocks holding the
		// query's corners, so it intersects the query unless it is empty,
		// which happens along a dimension shorter than its block count.
		hit := true
		for k, j := range cur {
			if L, nb := dc.Dims[k], dc.Blocks[k]; (j+1)*L/nb == j*L/nb {
				hit = false
				break
			}
		}
		if hit {
			out = append(out, int(LinearIndex(dc.Blocks, cur)))
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

// blockOf returns the index of the block containing coordinate x when an
// extent of length L is split into nb blocks with bounds [j*L/nb, (j+1)*L/nb-1].
func blockOf(x, L, nb int64) int64 {
	j := (x*nb + nb - 1) / L
	// Adjust for integer-rounding boundary cases.
	for j > 0 && j*L/nb > x {
		j--
	}
	for (j+1)*L/nb-1 < x {
		j++
	}
	return j
}
