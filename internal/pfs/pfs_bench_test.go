package pfs

import "testing"

// The benchmarks move a 6 MiB file as 128 records of three quarters of a
// page each, every record one WriteRuns/ReadRuns call of four runs, as the
// native container makes for a box of four rows. Records straddle page
// and stripe boundaries. Run with:
//
//	go test ./internal/pfs -run '^$' -bench Runs
const (
	benchRec     = 3*pageSize/4 + 13
	benchRecords = 128
	benchRuns    = 4
)

// recordRuns returns the offsets and lengths of record k's runs.
func recordRuns(k int) (offs, lens []int64) {
	base, run := int64(k)*benchRec, int64(benchRec/benchRuns)
	for r := int64(0); r < benchRuns; r++ {
		offs = append(offs, base+r*run)
		lens = append(lens, run)
	}
	lens[benchRuns-1] += benchRec - benchRuns*run
	return offs, lens
}

func BenchmarkWriteRuns(b *testing.B) {
	packed := make([]byte, benchRec)
	for _, order := range []string{"ascending", "descending", "shared4"} {
		b.Run(order, func(b *testing.B) {
			idx, nh := recordOrder(order, benchRecords)
			b.SetBytes(benchRec * benchRecords)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fs := NewZeroCost()
				hs := make([]*File, nh)
				for h := range hs {
					hs[h], _ = fs.Create("bench")
				}
				for j, k := range idx {
					offs, lens := recordRuns(k)
					if err := hs[j%nh].WriteRuns(packed, offs, lens); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkReadRuns(b *testing.B) {
	fs := NewZeroCost()
	f, _ := fs.Create("bench")
	if _, err := f.WriteAt(make([]byte, benchRec*benchRecords), 0); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, benchRec)
	b.SetBytes(benchRec * benchRecords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < benchRecords; k++ {
			offs, lens := recordRuns(k)
			if err := f.ReadRuns(dst, offs, lens); err != nil {
				b.Fatal(err)
			}
		}
	}
}
