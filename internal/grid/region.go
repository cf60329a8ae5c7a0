package grid

// LocalIndex returns the row-major linear index of pt within the local
// extent of box b (i.e. treating b.Min as the origin).
func LocalIndex(b Box, pt []int64) int64 {
	idx := int64(0)
	for d := range b.Min {
		idx = idx*(b.Max[d]-b.Min[d]+1) + (pt[d] - b.Min[d])
	}
	return idx
}

// walk enumerates the maximal contiguous runs a region shares between two
// row-major buffers, one holding box a and one holding box b. A packed side
// (gather output, scatter input) is the buffer of the region itself, so its
// caller passes region as that side's box.
//
// Every trailing dimension the region spans completely in both boxes is
// folded into the run, so an [N,3] row range or a whole block is one run.
// The remaining leading dimensions form an odometer whose per-digit offset
// deltas are computed once; stepping does no index arithmetic beyond two
// additions.
type walk struct {
	a, b int64      // element offsets of the current run in the two buffers
	n    int64      // run length in elements
	buf  [8]walkDim // backs the odometer of up to 8 digits, on the stack with w
}

// walkDim is one odometer digit: da and db move the offsets from the last
// run of one index of this dimension to the first run of the next.
type walkDim struct {
	i, cnt int64
	da, db int64
}

// init positions w on the first run and returns the odometer for next,
// innermost digit first; ok is false if there is no run. It panics if region
// is not inside both boxes: offsets computed from an outside region would
// address the wrong bytes, or none.
func (w *walk) init(region, a, b Box) (lead []walkDim, ok bool) {
	if region.IsEmpty() {
		return nil, false
	}
	d := region.Dim()
	inside := a.Dim() == d && b.Dim() == d
	for k := 0; inside && k < d; k++ {
		inside = region.Min[k] >= a.Min[k] && region.Max[k] <= a.Max[k] && region.Min[k] >= b.Min[k] && region.Max[k] <= b.Max[k]
	}
	if !inside {
		panic("grid: region " + region.String() + " not inside boxes " + a.String() + " and " + b.String())
	}
	// Fold trailing dimensions into the run while the region spans both boxes
	// there; dimension j contributes its segment and ends the run.
	j := d - 1
	for j > 0 && region.Min[j] == a.Min[j] && region.Max[j] == a.Max[j] && region.Min[j] == b.Min[j] && region.Max[j] == b.Max[j] {
		j--
	}
	// Walk the dimensions innermost first, carrying each box's element stride
	// and how far the odometer digits inside the current one have advanced.
	w.a, w.b, w.n, lead = 0, 0, 1, w.buf[:0]
	sa, sb := int64(1), int64(1)
	var inA, inB int64
	for k := d - 1; k >= 0; k-- {
		cnt := region.Max[k] - region.Min[k] + 1
		w.a += (region.Min[k] - a.Min[k]) * sa
		w.b += (region.Min[k] - b.Min[k]) * sb
		if k >= j {
			w.n *= cnt
		} else if cnt > 1 {
			lead = append(lead, walkDim{cnt: cnt, da: sa - inA, db: sb - inB})
			inA += (cnt - 1) * sa
			inB += (cnt - 1) * sb
		}
		sa *= a.Max[k] - a.Min[k] + 1
		sb *= b.Max[k] - b.Min[k] + 1
	}
	return lead, true
}

// next advances to the following run in row-major order and reports whether
// there was one.
func (w *walk) next(lead []walkDim) bool {
	for k := range lead {
		p := &lead[k]
		if p.i++; p.i < p.cnt {
			w.a += p.da
			w.b += p.db
			return true
		}
		p.i = 0
	}
	return false
}

// CopyRegion copies the lattice points of region from src to dst, where src
// holds srcBox in row-major order and dst holds dstBox in row-major order,
// with elemSize bytes per point. region must be contained in both boxes.
func CopyRegion(dst []byte, dstBox Box, src []byte, srcBox Box, region Box, elemSize int) {
	var w walk
	es := int64(elemSize)
	for lead, ok := w.init(region, dstBox, srcBox); ok; ok = w.next(lead) {
		copy(dst[w.a*es:(w.a+w.n)*es], src[w.b*es:(w.b+w.n)*es])
	}
}

// GatherRegion appends the points of region (row-major) from src, which
// holds srcBox in row-major order, to out and returns the extended slice.
func GatherRegion(out []byte, src []byte, srcBox Box, region Box, elemSize int) []byte {
	var w walk
	es := int64(elemSize)
	for lead, ok := w.init(region, srcBox, region); ok; ok = w.next(lead) {
		out = append(out, src[w.a*es:(w.a+w.n)*es]...)
	}
	return out
}

// ScatterRegion is the inverse of GatherRegion: it consumes len(region)
// points from data (row-major over region) and writes them into dst, which
// holds dstBox in row-major order. It returns the number of bytes consumed.
func ScatterRegion(dst []byte, dstBox Box, data []byte, region Box, elemSize int) int64 {
	var w walk
	es := int64(elemSize)
	for lead, ok := w.init(region, dstBox, region); ok; ok = w.next(lead) {
		copy(dst[w.a*es:(w.a+w.n)*es], data[w.b*es:(w.b+w.n)*es])
	}
	return region.NumPoints() * es
}

// Subtract returns a minus b as a set of disjoint boxes. The result has at
// most 2*dim pieces (the standard axis-sweep decomposition).
func Subtract(a, b Box) []Box {
	inter := a.Intersect(b)
	if inter.IsEmpty() {
		if a.IsEmpty() {
			return nil
		}
		return []Box{a.Clone()}
	}
	var out []Box
	cur := a.Clone()
	for d := 0; d < a.Dim(); d++ {
		// The slab below the intersection along dimension d.
		if cur.Min[d] < inter.Min[d] {
			p := cur.Clone()
			p.Max[d] = inter.Min[d] - 1
			out = append(out, p)
		}
		// The slab above the intersection along dimension d.
		if cur.Max[d] > inter.Max[d] {
			p := cur.Clone()
			p.Min[d] = inter.Max[d] + 1
			out = append(out, p)
		}
		// Clamp cur to the intersection along d and continue.
		cur.Min[d] = inter.Min[d]
		cur.Max[d] = inter.Max[d]
	}
	return out
}
