package grid

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func fillPattern(b Box, elemSize int) []byte {
	buf := make([]byte, b.NumPoints()*int64(elemSize))
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	return buf
}

func TestLocalIndex(t *testing.T) {
	b := NewBox([]int64{2, 3}, []int64{4, 5})
	if got := LocalIndex(b, []int64{2, 3}); got != 0 {
		t.Errorf("origin index %d", got)
	}
	if got := LocalIndex(b, []int64{3, 4}); got != 6 {
		t.Errorf("(3,4) index %d want 6", got)
	}
	if got := LocalIndex(b, []int64{5, 7}); got != 19 {
		t.Errorf("last index %d want 19", got)
	}
}

func TestCopyRegionIdentity(t *testing.T) {
	b := NewBox([]int64{0, 0}, []int64{3, 4})
	src := fillPattern(b, 2)
	dst := make([]byte, len(src))
	CopyRegion(dst, b, src, b, b, 2)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d: %d != %d", i, dst[i], src[i])
		}
	}
}

func TestCopyRegionSubBox(t *testing.T) {
	srcBox := NewBox([]int64{0, 0}, []int64{4, 4})
	dstBox := NewBox([]int64{1, 1}, []int64{2, 2})
	src := make([]byte, srcBox.NumPoints())
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, dstBox.NumPoints())
	CopyRegion(dst, dstBox, src, srcBox, dstBox, 1)
	// dstBox covers points (1,1),(1,2),(2,1),(2,2) = linear 5,6,9,10 in src.
	want := []byte{5, 6, 9, 10}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d]=%d want %d", i, dst[i], want[i])
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := randomDims(r, 8)
		whole := WholeExtent(dims)
		region := randomBoxInExtent(r, dims)
		elem := 1 + r.Intn(8)
		src := make([]byte, whole.NumPoints()*int64(elem))
		r.Read(src)
		gathered := GatherRegion(nil, src, whole, region, elem)
		if int64(len(gathered)) != region.NumPoints()*int64(elem) {
			return false
		}
		dst := make([]byte, len(src))
		n := ScatterRegion(dst, whole, gathered, region, elem)
		if n != int64(len(gathered)) {
			return false
		}
		// Every point in region must match src; everything else must be zero.
		ok := true
		region.Runs(dims, func(off, cnt int64) {
			for i := off * int64(elem); i < (off+cnt)*int64(elem); i++ {
				if dst[i] != src[i] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSubtractDisjoint(t *testing.T) {
	a := NewBox([]int64{0, 0}, []int64{2, 2})
	b := NewBox([]int64{5, 5}, []int64{2, 2})
	out := Subtract(a, b)
	if len(out) != 1 || !out[0].Equal(a) {
		t.Errorf("got %v", out)
	}
}

func TestSubtractFullCover(t *testing.T) {
	a := NewBox([]int64{1, 1}, []int64{2, 2})
	b := NewBox([]int64{0, 0}, []int64{5, 5})
	if out := Subtract(a, b); len(out) != 0 {
		t.Errorf("got %v", out)
	}
}

func TestSubtractProperty(t *testing.T) {
	// Property: Subtract(a,b) pieces are disjoint, contained in a, disjoint
	// from b, and together with a∩b cover a exactly (by point count).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := randomDims(r, 10)
		a := randomBoxInExtent(r, dims)
		b := randomBoxInExtent(r, dims)
		pieces := Subtract(a, b)
		total := a.Intersect(b).NumPoints()
		for i, p := range pieces {
			if p.IsEmpty() {
				return false
			}
			if !a.Intersect(p).Equal(p) {
				return false // not contained in a
			}
			if p.Intersects(b) {
				return false
			}
			for j := i + 1; j < len(pieces); j++ {
				if p.Intersects(pieces[j]) {
					return false
				}
			}
			total += p.NumPoints()
		}
		return total == a.NumPoints()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refCopy is the per-point reference the kernels are checked against: every
// lattice point of region is located in both boxes by LocalIndex.
func refCopy(dst []byte, dstBox Box, src []byte, srcBox Box, region Box, es int) {
	if region.IsEmpty() {
		return
	}
	pt := append([]int64(nil), region.Min...)
	for {
		do, so := LocalIndex(dstBox, pt)*int64(es), LocalIndex(srcBox, pt)*int64(es)
		copy(dst[do:do+int64(es)], src[so:so+int64(es)])
		k := len(pt) - 1
		for ; k >= 0; k-- {
			if pt[k]++; pt[k] <= region.Max[k] {
				break
			}
			pt[k] = region.Min[k]
		}
		if k < 0 {
			return
		}
	}
}

// randomPadded returns a box extending region by 0..2 points on either side
// of every dimension.
func randomPadded(r *rand.Rand, region Box) Box {
	b := region.Clone()
	for k := range b.Min {
		b.Min[k] -= r.Int63n(3)
		b.Max[k] += r.Int63n(3)
	}
	return b
}

// TestKernelsMatchPerPointReference is the differential test of the run
// walker: Copy, Gather and Scatter against refCopy over 1-5 dimensions (and
// 10), distinct source and destination boxes at non-zero origins, element
// sizes 1/4/8/12, extent-1 dimensions, region == box (everything folds) and
// boxes padded in every dimension (nothing folds).
func TestKernelsMatchPerPointReference(t *testing.T) {
	elemSizes := []int{1, 4, 8, 12}
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		// mode 0: region == both boxes; 1: every dimension of both padded
		// on some side (nothing foldable); 2: independent random padding.
		d, extent, mode := 1+r.Intn(5), int64(4), seed%3
		if seed%40 == 39 {
			// More odometer digits than the walker keeps on the stack.
			d, extent, mode = 10, 2, 1
		}
		region := Box{Min: make([]int64, d), Max: make([]int64, d)}
		for k := 0; k < d; k++ {
			region.Min[k] = r.Int63n(7) - 3
			region.Max[k] = region.Min[k] + r.Int63n(extent)
		}
		es := elemSizes[r.Intn(len(elemSizes))]
		srcBox, dstBox := region.Clone(), region.Clone()
		switch mode {
		case 1:
			for k := 0; k < d; k++ {
				srcBox.Min[k]--
				dstBox.Max[k]++
			}
		case 2:
			srcBox, dstBox = randomPadded(r, region), randomPadded(r, region)
		}
		src := make([]byte, srcBox.NumPoints()*int64(es))
		r.Read(src)
		name := func(op string) string {
			return op + " region=" + region.String() + " src=" + srcBox.String() + " dst=" + dstBox.String()
		}

		want := make([]byte, dstBox.NumPoints()*int64(es))
		refCopy(want, dstBox, src, srcBox, region, es)
		got := make([]byte, len(want))
		CopyRegion(got, dstBox, src, srcBox, region, es)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: %s", seed, name("copy"))
		}

		packed := make([]byte, region.NumPoints()*int64(es))
		refCopy(packed, region, src, srcBox, region, es)
		prefix := []byte{0xAA, 0xBB}
		out := GatherRegion(append([]byte(nil), prefix...), src, srcBox, region, es)
		if !bytes.Equal(out[:2], prefix) || !bytes.Equal(out[2:], packed) {
			t.Fatalf("seed %d: %s", seed, name("gather"))
		}

		for i := range got {
			got[i] = 0
		}
		if n := ScatterRegion(got, dstBox, packed, region, es); n != int64(len(packed)) {
			t.Fatalf("seed %d: %s consumed %d of %d bytes", seed, name("scatter"), n, len(packed))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: %s", seed, name("scatter"))
		}
	}
}

// countRuns walks region over the two boxes and returns the number of runs
// and their common length in elements.
func countRuns(region, a, b Box) (runs int, length int64) {
	var w walk
	for lead, ok := w.init(region, a, b); ok; ok = w.next(lead) {
		runs++
	}
	return runs, w.n
}

// TestRunCountsOnBenchShapes pins the folding on the shapes bench/ moves: the
// bw workloads' 116x116x58 grid in 58^3 producer blocks and 58x116x58
// consumer slabs, query-chan's 16^3 boxes, and the [N,3] float32 particles.
func TestRunCountsOnBenchShapes(t *testing.T) {
	block := NewBox([]int64{58, 58, 0}, []int64{58, 58, 58})
	slab := NewBox([]int64{58, 0, 0}, []int64{58, 116, 58})
	query := NewBox([]int64{68, 68, 10}, []int64{16, 16, 16})
	const n = 200000
	prod := NewBox([]int64{n, 0}, []int64{n, 3})
	cons := NewBox([]int64{0, 0}, []int64{2 * n, 3})
	for _, c := range []struct {
		name         string
		region, a, b Box
		runs         int
		length       int64
	}{
		{"particle range gathered", prod, prod, prod, 1, n * 3},
		{"particle range into a consumer's range", prod, cons, prod, 1, n * 3},
		{"half a particle range out of it", NewBox([]int64{n, 0}, []int64{n / 2, 3}), prod, prod, 1, n / 2 * 3},
		{"block out of itself", block, block, block, 1, 58 * 58 * 58},
		{"block into the slab", block, slab, block, 58, 58 * 58},
		{"16^3 out of the block", query, block, query, 256, 16},
	} {
		if runs, length := countRuns(c.region, c.a, c.b); runs != c.runs || length != c.length {
			t.Errorf("%s: %d runs of %d elements, want %d of %d", c.name, runs, length, c.runs, c.length)
		}
	}
}

// TestKernelsRejectOutsideRegion: a region that leaves either box panics up
// front, naming the boxes, instead of addressing the wrong bytes.
func TestKernelsRejectOutsideRegion(t *testing.T) {
	box := NewBox([]int64{0, 0}, []int64{4, 4})
	small := NewBox([]int64{1, 1}, []int64{2, 2})
	buf := make([]byte, box.NumPoints())
	for name, fn := range map[string]func(){
		"copy, region outside src":  func() { CopyRegion(buf, box, buf, small, box, 1) },
		"copy, region outside dst":  func() { CopyRegion(buf, small, buf, box, box, 1) },
		"gather":                    func() { GatherRegion(nil, buf, small, box, 1) },
		"scatter":                   func() { ScatterRegion(buf, small, buf, box, 1) },
		"runs, box outside extent":  func() { box.Runs([]int64{4, 3}, func(int64, int64) {}) },
		"copy, dimensions disagree": func() { CopyRegion(buf, box, buf, NewBox([]int64{0}, []int64{16}), box, 1) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, box.String()) || !strings.HasPrefix(msg, "grid: region") {
					t.Errorf("%s: panic %q does not name the boxes", name, msg)
				}
			}()
			fn()
		}()
	}
	// An empty region is nothing to move, whatever the boxes.
	CopyRegion(buf, small, buf, box, Box{}, 1)
}

// TestKernelsDoNotAllocate: the walker keeps its odometer on the stack.
func TestKernelsDoNotAllocate(t *testing.T) {
	box := NewBox([]int64{0, 0, 0}, []int64{8, 8, 8})
	region := NewBox([]int64{2, 2, 2}, []int64{4, 4, 4})
	src, dst := make([]byte, box.NumPoints()*4), make([]byte, box.NumPoints()*4)
	out := make([]byte, 0, region.NumPoints()*4)
	dims := box.Count()
	var sum int64
	if n := testing.AllocsPerRun(100, func() {
		CopyRegion(dst, box, src, box, region, 4)
		out = GatherRegion(out[:0], src, box, region, 4)
		ScatterRegion(dst, box, out, region, 4)
		region.Runs(dims, func(off, n int64) { sum += off + n })
	}); n != 0 {
		t.Errorf("%v allocations per call of the four kernels, want 0", n)
	}
}
