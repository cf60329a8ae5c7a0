package h5

import "lowfive/internal/grid"

// ChunkIter walks a dataspace selection as a sequence of disjoint sub-boxes
// whose payloads each fit within a byte budget. It is the unit of streaming:
// instead of gathering a whole selection into one flat buffer, the data
// plane gathers one sub-box at a time into a pooled chunk and ships it.
//
// Boxes are visited in selection order and each box is split recursively
// (halving the outermost splittable dimension) until it fits, so the union
// of the emitted boxes is exactly the selection. A box that cannot shrink
// further — a single element larger than the budget — is emitted anyway:
// the budget is a target, and degenerate budgets (down to one byte) still
// make progress one element at a time.
type ChunkIter struct {
	elemSize  int64
	maxPoints int64
	pending   []grid.Box // stack; next box to emit is at the end
}

// NewChunkIter returns an iterator over space's selection emitting sub-boxes
// of at most maxBytes bytes each (at elemSize bytes per element). It reads
// the selection in place (Dataspace.Boxes): the selection must not change
// while the iterator runs, and a box Next returns must not be modified.
func NewChunkIter(space *Dataspace, elemSize int64, maxBytes int) *ChunkIter {
	return NewChunkIterBoxes(space.Boxes(), elemSize, maxBytes)
}

// NewChunkIterBoxes is NewChunkIter over an explicit box list (already in
// selection order), for callers that iterate per-region rather than over a
// whole dataspace.
func NewChunkIterBoxes(boxes []grid.Box, elemSize int64, maxBytes int) *ChunkIter {
	if elemSize < 1 {
		elemSize = 1
	}
	maxPoints := int64(maxBytes) / elemSize
	if maxPoints < 1 {
		maxPoints = 1
	}
	it := &ChunkIter{elemSize: elemSize, maxPoints: maxPoints, pending: make([]grid.Box, 0, len(boxes))}
	it.Reset(boxes...)
	return it
}

// Reset restarts the iterator over boxes, keeping its budget and its stack's
// storage: a caller chunking many regions in a row reuses one iterator.
func (it *ChunkIter) Reset(boxes ...grid.Box) {
	// Stack order: reverse so pop-from-end yields selection order.
	it.pending = it.pending[:0]
	for i := len(boxes) - 1; i >= 0; i-- {
		if !boxes[i].IsEmpty() {
			it.pending = append(it.pending, boxes[i])
		}
	}
}

// Next returns the next sub-box of the selection, or false when exhausted.
func (it *ChunkIter) Next() (grid.Box, bool) {
	for len(it.pending) > 0 {
		b := it.pending[len(it.pending)-1]
		it.pending = it.pending[:len(it.pending)-1]
		if b.NumPoints() <= it.maxPoints {
			return b, true
		}
		lo, hi, ok := splitBox(b)
		if !ok {
			// Single element over budget: emit it whole.
			return b, true
		}
		// Push hi first so lo pops (and streams) first.
		it.pending = append(it.pending, hi, lo)
	}
	return grid.Box{}, false
}

// splitBox halves b along its outermost dimension with extent > 1. It
// reports false when every dimension is a single element.
func splitBox(b grid.Box) (lo, hi grid.Box, ok bool) {
	for d := 0; d < b.Dim(); d++ {
		if b.Max[d] > b.Min[d] {
			mid := b.Min[d] + (b.Max[d]-b.Min[d])/2
			lo, hi = b.Clone(), b.Clone()
			lo.Max[d] = mid
			hi.Min[d] = mid + 1
			return lo, hi, true
		}
	}
	return b, b, false
}
