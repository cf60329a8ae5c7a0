package grid

import "testing"

// The region kernels on the three shapes the repo's benchmark (bench/) moves,
// so that a kernel change has a before/after from `go test -bench Region`
// without a full benchmark run:
//
//	contig58   a 58^3 float64 producer block against a 58x116x58 consumer
//	           slab (Gather packs the block out of itself: one run; Copy and
//	           Scatter place it into the slab: 58 runs of 26912 B)
//	strided16  a 16^3 float64 query box inside the block: 256 runs of 128 B
//	rows12     a 200000-row range of the [N,3] float32 particle dataset
//	           inside a consumer's 400000 rows: one run
type regionShape struct {
	name             string
	region, src, dst Box
	elem             int
}

func regionShapes() []regionShape {
	block := NewBox([]int64{0, 0, 0}, []int64{58, 58, 58})
	slab := NewBox([]int64{0, 0, 0}, []int64{58, 116, 58})
	query := NewBox([]int64{10, 10, 10}, []int64{16, 16, 16})
	const n = 200000
	prod := NewBox([]int64{0, 0}, []int64{n, 3})
	cons := NewBox([]int64{0, 0}, []int64{2 * n, 3})
	return []regionShape{
		{"contig58", block, block, slab, 8},
		{"strided16", query, block, slab, 8},
		{"rows12", prod, prod, cons, 4},
	}
}

func BenchmarkRegionGather(b *testing.B) {
	for _, s := range regionShapes() {
		b.Run(s.name, func(b *testing.B) {
			src := make([]byte, s.src.NumPoints()*int64(s.elem))
			out := make([]byte, 0, s.region.NumPoints()*int64(s.elem))
			b.SetBytes(int64(cap(out)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = GatherRegion(out[:0], src, s.src, s.region, s.elem)
			}
		})
	}
}

func BenchmarkRegionCopy(b *testing.B) {
	for _, s := range regionShapes() {
		b.Run(s.name, func(b *testing.B) {
			src := make([]byte, s.src.NumPoints()*int64(s.elem))
			dst := make([]byte, s.dst.NumPoints()*int64(s.elem))
			b.SetBytes(s.region.NumPoints() * int64(s.elem))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CopyRegion(dst, s.dst, src, s.src, s.region, s.elem)
			}
		})
	}
}

func BenchmarkRegionScatter(b *testing.B) {
	for _, s := range regionShapes() {
		b.Run(s.name, func(b *testing.B) {
			data := make([]byte, s.region.NumPoints()*int64(s.elem))
			dst := make([]byte, s.dst.NumPoints()*int64(s.elem))
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ScatterRegion(dst, s.dst, data, s.region, s.elem)
			}
		})
	}
}
