package h5

import (
	"fmt"
	"sort"

	"lowfive/internal/grid"
)

// SelectOp says how a new selection combines with the current one.
type SelectOp uint8

const (
	// SelectSet replaces the current selection.
	SelectSet SelectOp = iota
	// SelectOr adds to the current selection (union).
	SelectOr
)

type selKind uint8

const (
	selAll selKind = iota
	selNone
	selHyper
	selPoints
)

// Unlimited marks a dimension as extendable without bound in a dataspace's
// maximum dims (H5S_UNLIMITED).
const Unlimited int64 = -1

// Dataspace is an N-dimensional extent plus a selection within it,
// mirroring HDF5 dataspaces. The zero value is not usable; construct with
// NewSimple or Scalar. A fresh dataspace has everything selected.
type Dataspace struct {
	dims    []int64
	maxDims []int64 // nil when fixed at dims; Unlimited per-dim otherwise
	kind    selKind
	boxes   []grid.Box // disjoint, sorted by Min, for selHyper
	points  [][]int64  // for selPoints, in insertion order
}

// NewSimple creates a dataspace with the given extent and all elements
// selected. Every dimension must be positive.
func NewSimple(dims ...int64) *Dataspace {
	if len(dims) == 0 {
		panic("h5: NewSimple requires at least one dimension")
	}
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("h5: dataspace dimension must be positive, got %v", dims))
		}
	}
	return &Dataspace{dims: append([]int64(nil), dims...), kind: selAll}
}

// NewSimpleMax creates a dataspace whose extent can later be changed up to
// maxDims (use Unlimited for no bound in a dimension). maxDims must have
// the same rank as dims and each bound must be Unlimited or >= the
// corresponding dim.
func NewSimpleMax(dims, maxDims []int64) (*Dataspace, error) {
	if len(maxDims) != len(dims) {
		return nil, fmt.Errorf("h5: maxDims rank %d != dims rank %d", len(maxDims), len(dims))
	}
	s := NewSimple(dims...)
	for i, m := range maxDims {
		if m != Unlimited && m < dims[i] {
			return nil, fmt.Errorf("h5: maxDims[%d]=%d below dims[%d]=%d", i, m, i, dims[i])
		}
	}
	s.maxDims = append([]int64(nil), maxDims...)
	return s, nil
}

// MaxDims returns the maximum extent (equal to Dims for fixed dataspaces).
func (s *Dataspace) MaxDims() []int64 {
	if s.maxDims == nil {
		return s.Dims()
	}
	return append([]int64(nil), s.maxDims...)
}

// Extendable reports whether any dimension may grow beyond the current
// extent.
func (s *Dataspace) Extendable() bool {
	for i, m := range s.maxDims {
		if m == Unlimited || m > s.dims[i] {
			return true
		}
	}
	return false
}

// SetExtent changes the current extent within the maximum dims. Selections
// are reset to all (as H5Dset_extent leaves no meaningful selection).
func (s *Dataspace) SetExtent(dims []int64) error {
	if len(dims) != len(s.dims) {
		return fmt.Errorf("h5: SetExtent rank %d != %d", len(dims), len(s.dims))
	}
	for i, d := range dims {
		if d <= 0 {
			return fmt.Errorf("h5: SetExtent dimension %d must be positive, got %d", i, d)
		}
		m := int64(0)
		if s.maxDims == nil {
			m = s.dims[i]
		} else {
			m = s.maxDims[i]
		}
		if m != Unlimited && d > m {
			return fmt.Errorf("h5: SetExtent dimension %d = %d exceeds maximum %d", i, d, m)
		}
	}
	s.dims = append(s.dims[:0], dims...)
	s.SelectAll()
	return nil
}

// Scalar creates a dataspace holding exactly one element.
func Scalar() *Dataspace { return NewSimple(1) }

// Dims returns a copy of the extent.
func (s *Dataspace) Dims() []int64 { return append([]int64(nil), s.dims...) }

// Rank returns the number of dimensions.
func (s *Dataspace) Rank() int { return len(s.dims) }

// NumPoints returns the total number of elements in the extent.
func (s *Dataspace) NumPoints() int64 {
	n := int64(1)
	for _, d := range s.dims {
		n *= d
	}
	return n
}

// Clone deep-copies the dataspace including its selection.
func (s *Dataspace) Clone() *Dataspace {
	c := &Dataspace{dims: append([]int64(nil), s.dims...), kind: s.kind}
	if s.maxDims != nil {
		c.maxDims = append([]int64(nil), s.maxDims...)
	}
	for _, b := range s.boxes {
		c.boxes = append(c.boxes, b.Clone())
	}
	for _, p := range s.points {
		c.points = append(c.points, append([]int64(nil), p...))
	}
	return c
}

// SelectAll selects every element.
func (s *Dataspace) SelectAll() *Dataspace {
	s.kind, s.boxes, s.points = selAll, nil, nil
	return s
}

// SelectNone selects nothing.
func (s *Dataspace) SelectNone() *Dataspace {
	s.kind, s.boxes, s.points = selNone, nil, nil
	return s
}

// SelectHyperslab selects the block starting at start with the given counts
// (stride and block default to 1, the common case). op SelectSet replaces
// the selection; SelectOr unions with it.
func (s *Dataspace) SelectHyperslab(op SelectOp, start, count []int64) error {
	return s.SelectHyperslabStride(op, start, nil, count, nil)
}

// SelectHyperslabStride is the general HDF5 hyperslab: count blocks of the
// given block shape spaced stride apart along each dimension. nil stride
// means block-adjacent steps; nil block means 1-element blocks.
func (s *Dataspace) SelectHyperslabStride(op SelectOp, start, stride, count, block []int64) error {
	d := len(s.dims)
	if len(start) != d || len(count) != d {
		return fmt.Errorf("h5: hyperslab start/count rank %d/%d does not match dataspace rank %d",
			len(start), len(count), d)
	}
	if stride != nil && len(stride) != d || block != nil && len(block) != d {
		return fmt.Errorf("h5: hyperslab stride/block rank mismatch")
	}
	blk := block
	if blk == nil {
		blk = make([]int64, d)
		for i := range blk {
			blk[i] = 1
		}
	}
	str := stride
	if str == nil {
		str = blk // adjacent blocks
	}
	for i := 0; i < d; i++ {
		if count[i] < 0 || start[i] < 0 || blk[i] <= 0 || str[i] < blk[i] {
			return fmt.Errorf("h5: invalid hyperslab parameters in dimension %d", i)
		}
		if count[i] > 0 {
			last := start[i] + (count[i]-1)*str[i] + blk[i] - 1
			if last >= s.dims[i] {
				return fmt.Errorf("h5: hyperslab exceeds extent in dimension %d: last index %d >= %d",
					i, last, s.dims[i])
			}
		}
	}
	// Enumerate the block grid. Fast path: one block per dimension step when
	// stride == block (adjacent) collapses into a single box per dimension.
	var newBoxes []grid.Box
	adjacent := true
	for i := 0; i < d; i++ {
		if str[i] != blk[i] && count[i] > 1 {
			adjacent = false
			break
		}
	}
	if adjacent {
		cnt := make([]int64, d)
		for i := range cnt {
			cnt[i] = count[i] * blk[i]
		}
		b := grid.NewBox(start, cnt)
		if !b.IsEmpty() {
			newBoxes = append(newBoxes, b)
		}
	} else {
		idx := make([]int64, d)
		for {
			st := make([]int64, d)
			for i := range st {
				st[i] = start[i] + idx[i]*str[i]
			}
			b := grid.NewBox(st, blk)
			if !b.IsEmpty() {
				newBoxes = append(newBoxes, b)
			}
			k := d - 1
			for k >= 0 {
				idx[k]++
				if idx[k] < count[k] {
					break
				}
				idx[k] = 0
				k--
			}
			if k < 0 {
				break
			}
		}
	}
	return s.selectBoxes(op, newBoxes)
}

// SelectBox selects an inclusive-bounds box directly.
func (s *Dataspace) SelectBox(op SelectOp, b grid.Box) error {
	if b.Dim() != len(s.dims) {
		return fmt.Errorf("h5: box rank %d does not match dataspace rank %d", b.Dim(), len(s.dims))
	}
	whole := grid.WholeExtent(s.dims)
	if !b.IsEmpty() && !whole.Intersect(b).Equal(b) {
		return fmt.Errorf("h5: box %v exceeds extent %v", b, s.dims)
	}
	if b.IsEmpty() {
		return s.selectBoxes(op, nil)
	}
	return s.selectBoxes(op, []grid.Box{b})
}

func (s *Dataspace) selectBoxes(op SelectOp, newBoxes []grid.Box) error {
	if op == SelectSet {
		s.kind = selHyper
		s.boxes = nil
		s.points = nil
	} else if op != SelectOr {
		return fmt.Errorf("h5: unknown selection op %d", op)
	}
	switch s.kind {
	case selAll:
		if op == SelectOr {
			return nil // union with everything is everything
		}
	case selPoints:
		return fmt.Errorf("h5: cannot OR hyperslabs into a point selection")
	case selNone:
		s.kind = selHyper
	}
	// Keep boxes disjoint: subtract existing coverage from each new box.
	for _, nb := range newBoxes {
		pending := []grid.Box{nb}
		for _, ex := range s.boxes {
			var next []grid.Box
			for _, p := range pending {
				next = append(next, grid.Subtract(p, ex)...)
			}
			pending = next
			if len(pending) == 0 {
				break
			}
		}
		s.boxes = append(s.boxes, pending...)
	}
	sortBoxes(s.boxes)
	return nil
}

// SelectPoints selects individual elements by coordinate, in order.
func (s *Dataspace) SelectPoints(op SelectOp, pts [][]int64) error {
	if op == SelectSet {
		s.kind, s.boxes, s.points = selPoints, nil, nil
	} else if s.kind != selPoints {
		return fmt.Errorf("h5: cannot OR points into a non-point selection")
	}
	whole := grid.WholeExtent(s.dims)
	for _, p := range pts {
		if len(p) != len(s.dims) || !whole.Contains(p) {
			return fmt.Errorf("h5: point %v outside extent %v", p, s.dims)
		}
		s.points = append(s.points, append([]int64(nil), p...))
	}
	return nil
}

func sortBoxes(boxes []grid.Box) {
	sort.Slice(boxes, func(i, j int) bool {
		a, b := boxes[i].Min, boxes[j].Min
		for d := range a {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
}

// NumSelected returns the number of selected elements.
func (s *Dataspace) NumSelected() int64 {
	switch s.kind {
	case selAll:
		return s.NumPoints()
	case selNone:
		return 0
	case selPoints:
		return int64(len(s.points))
	default:
		n := int64(0)
		for _, b := range s.boxes {
			n += b.NumPoints()
		}
		return n
	}
}

// SelectionBoxes returns the selection as disjoint boxes in selection order,
// each a copy the caller owns. Point selections are returned as
// single-element boxes.
func (s *Dataspace) SelectionBoxes() []grid.Box {
	boxes := s.Boxes()
	out := make([]grid.Box, len(boxes))
	for i, b := range boxes {
		out[i] = b.Clone()
	}
	return out
}

// Boxes is the selection as SelectionBoxes returns it, read in place: a
// hyperslab selection's own boxes, and for a point selection boxes whose
// bounds are the stored coordinates. The caller must not modify them, and
// they are valid only until the selection or extent changes. Only an all
// selection's one box is built, and a point selection's slice. This is how
// the data path visits a selection without copying it.
func (s *Dataspace) Boxes() []grid.Box {
	switch s.kind {
	case selAll:
		return []grid.Box{grid.WholeExtent(s.dims)}
	case selNone:
		return nil
	case selPoints:
		out := make([]grid.Box, len(s.points))
		for i, p := range s.points {
			out[i] = grid.Box{Min: p, Max: p}
		}
		return out
	default:
		return s.boxes
	}
}

// Bounds returns the bounding box of the selection (empty if none selected).
// It reads the selection in place: every written triple and every read
// asks for it, so it allocates only the box it returns.
func (s *Dataspace) Bounds() grid.Box {
	switch s.kind {
	case selAll:
		if b := grid.WholeExtent(s.dims); !b.IsEmpty() {
			return b
		}
		return grid.Box{}
	case selNone:
		return grid.Box{}
	case selPoints:
		var b grid.Box
		for _, p := range s.points {
			if len(p) == 0 {
				continue
			}
			if b.Min == nil {
				b = grid.Box{Min: p, Max: p}.Clone()
				continue
			}
			for d, x := range p {
				b.Min[d], b.Max[d] = min(b.Min[d], x), max(b.Max[d], x)
			}
		}
		return b
	default:
		return grid.BoundingBox(s.boxes)
	}
}

// IsAll reports whether the entire extent is selected via SelectAll.
func (s *Dataspace) IsAll() bool { return s.kind == selAll }

// runs returns the selection as (linear offset, length) runs in selection
// order within the extent.
func (s *Dataspace) runs() [][2]int64 {
	var out [][2]int64
	for _, b := range s.Boxes() {
		b.Runs(s.dims, func(off, n int64) { out = append(out, [2]int64{off, n}) })
	}
	return out
}

// String renders the dataspace extent and selection summary.
func (s *Dataspace) String() string {
	switch s.kind {
	case selAll:
		return fmt.Sprintf("dataspace%v(all)", s.dims)
	case selNone:
		return fmt.Sprintf("dataspace%v(none)", s.dims)
	case selPoints:
		return fmt.Sprintf("dataspace%v(%d points)", s.dims, len(s.points))
	default:
		return fmt.Sprintf("dataspace%v(%d boxes, %d elems)", s.dims, len(s.boxes), s.NumSelected())
	}
}
