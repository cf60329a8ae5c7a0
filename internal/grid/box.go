// Package grid provides the N-dimensional box arithmetic and block
// decomposition that LowFive's data redistribution is built on: axis-aligned
// boxes with intersection, bounding boxes, contiguous-run iteration in
// row-major order, and the "common decomposition" of a dataset extent into
// one block per producer process (paper §III-B, Figure 4).
//
// It plays the role the DIY block-parallel library plays in the original
// implementation.
package grid

import "fmt"

// Box is an axis-aligned box with inclusive bounds. A box is empty if
// Max[d] < Min[d] in any dimension.
type Box struct {
	Min, Max []int64
}

// NewBox builds a box from a start coordinate and per-dimension counts
// (HDF5 hyperslab style). Counts of zero produce an empty box.
func NewBox(start, count []int64) Box {
	if len(start) != len(count) {
		panic("grid: start/count dimension mismatch")
	}
	b := newBox(len(start))
	for d := range start {
		b.Min[d] = start[d]
		b.Max[d] = start[d] + count[d] - 1
	}
	return b
}

// newBox returns a box of dimension dim whose bounds share one zeroed
// allocation: Min is its first half and Max its second.
func newBox(dim int) Box {
	b := make([]int64, 2*dim)
	return Box{Min: b[:dim:dim], Max: b[dim:]}
}

// WholeExtent returns the box covering an entire extent of the given dims.
func WholeExtent(dims []int64) Box {
	b := newBox(len(dims))
	for d, n := range dims {
		b.Max[d] = n - 1
	}
	return b
}

// Dim returns the dimensionality.
func (b Box) Dim() int { return len(b.Min) }

// IsEmpty reports whether the box contains no points.
func (b Box) IsEmpty() bool {
	if len(b.Min) == 0 {
		return true
	}
	for d := range b.Min {
		if b.Max[d] < b.Min[d] {
			return true
		}
	}
	return false
}

// NumPoints returns the number of lattice points in the box.
func (b Box) NumPoints() int64 {
	if b.IsEmpty() {
		return 0
	}
	n := int64(1)
	for d := range b.Min {
		n *= b.Max[d] - b.Min[d] + 1
	}
	return n
}

// Count returns the per-dimension point counts.
func (b Box) Count() []int64 {
	c := make([]int64, b.Dim())
	for d := range c {
		c[d] = b.Max[d] - b.Min[d] + 1
		if c[d] < 0 {
			c[d] = 0
		}
	}
	return c
}

// Clone deep-copies the box into one allocation.
func (b Box) Clone() Box {
	if b.Dim() == 0 {
		return Box{}
	}
	c := newBox(b.Dim())
	copy(c.Min, b.Min)
	copy(c.Max, b.Max)
	return c
}

// Equal reports exact equality of bounds.
func (b Box) Equal(o Box) bool {
	if b.Dim() != o.Dim() {
		return false
	}
	for d := range b.Min {
		if b.Min[d] != o.Min[d] || b.Max[d] != o.Max[d] {
			return false
		}
	}
	return true
}

// Contains reports whether the point lies inside the box.
func (b Box) Contains(pt []int64) bool {
	for d := range b.Min {
		if pt[d] < b.Min[d] || pt[d] > b.Max[d] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of two boxes (possibly empty).
func (b Box) Intersect(o Box) Box {
	out := newBox(b.Dim())
	b.IntersectInto(o, out)
	return out
}

// IntersectInto is Intersect into the storage of out, a box of the same
// dimension: a caller intersecting in a loop keeps one scratch box instead of
// allocating two slices per intersection.
func (b Box) IntersectInto(o, out Box) {
	if b.Dim() != o.Dim() || b.Dim() != out.Dim() {
		panic("grid: intersecting boxes of different dimension")
	}
	for d := range b.Min {
		out.Min[d] = max64(b.Min[d], o.Min[d])
		out.Max[d] = min64(b.Max[d], o.Max[d])
	}
}

// Intersects reports whether the two boxes share at least one point: what
// !b.Intersect(o).IsEmpty() reports, comparing bounds instead of building the
// intersection.
func (b Box) Intersects(o Box) bool {
	if b.Dim() != o.Dim() {
		panic("grid: intersecting boxes of different dimension")
	}
	if b.Dim() == 0 {
		return false
	}
	for d := range b.Min {
		if min64(b.Max[d], o.Max[d]) < max64(b.Min[d], o.Min[d]) {
			return false
		}
	}
	return true
}

// String renders the box as [min..max] per dimension.
func (b Box) String() string {
	s := "["
	for d := range b.Min {
		if d > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d..%d", b.Min[d], b.Max[d])
	}
	return s + "]"
}

// BoundingBox returns the smallest box containing all the given boxes.
// Empty boxes are ignored; if all are empty (or none given), an empty
// zero-dimensional box is returned.
func BoundingBox(boxes []Box) Box {
	var out Box
	first := true
	for _, b := range boxes {
		if b.IsEmpty() {
			continue
		}
		if first {
			out = b.Clone()
			first = false
			continue
		}
		for d := range out.Min {
			out.Min[d] = min64(out.Min[d], b.Min[d])
			out.Max[d] = max64(out.Max[d], b.Max[d])
		}
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// LinearIndex returns the row-major linear index of pt within an extent of
// the given dims.
func LinearIndex(dims, pt []int64) int64 {
	idx := int64(0)
	for d := range dims {
		idx = idx*dims[d] + pt[d]
	}
	return idx
}

// Coords inverts LinearIndex.
func Coords(dims []int64, idx int64) []int64 {
	pt := make([]int64, len(dims))
	for d := len(dims) - 1; d >= 0; d-- {
		pt[d] = idx % dims[d]
		idx /= dims[d]
	}
	return pt
}

// Runs calls fn once per maximal contiguous row-major run of the box inside
// an extent of the given dims, with the run's starting linear index and
// length. Adjacent rows that happen to be contiguous in memory (because the
// box spans the full extent of the trailing dimensions) are coalesced into a
// single run — this coalescing is the serialization optimization the paper
// credits for LowFive beating the hand-written MPI code at small scale. The
// box must lie inside the extent.
func (b Box) Runs(dims []int64, fn func(offset, length int64)) {
	var lo, hi [8]int64 // keeps the extent box of up to 8 dims off the heap
	extent := Box{Min: lo[:0], Max: hi[:0]}
	for _, n := range dims {
		extent.Min = append(extent.Min, 0)
		extent.Max = append(extent.Max, n-1)
	}
	var w walk
	for lead, ok := w.init(b, extent, b); ok; ok = w.next(lead) {
		fn(w.a, w.n)
	}
}
