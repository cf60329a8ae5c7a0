package pfs

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// flatRef is the reference model of a file: one flat buffer that grows by
// zero-extension, plus the byte counters the FS must report.
type flatRef struct {
	data          []byte
	written, read int64
}

func (r *flatRef) write(p []byte, off int64) {
	if need := off + int64(len(p)); int64(len(r.data)) < need {
		r.data = append(r.data, make([]byte, need-int64(len(r.data)))...)
	}
	copy(r.data[off:], p)
	r.written += int64(len(p))
}

func (r *flatRef) readInto(p []byte, off int64) {
	clear(p)
	if off < int64(len(r.data)) {
		copy(p, r.data[off:])
	}
	r.read += int64(len(p))
}

// TestPagedStoreMatchesFlatReference drives four handles on one file with a
// seeded random mix of WriteAt, WriteRuns, ReadAt and ReadRuns, biased
// towards page boundaries, holes far past the end and reads past Size, and
// checks every byte read, Size and Stats against the flat reference.
func TestPagedStoreMatchesFlatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	fs := NewZeroCost()
	var hs [4]*File
	for i := range hs {
		hs[i], _ = fs.Create("diff")
	}
	var ref flatRef

	randOff := func() int64 {
		size := int64(len(ref.data))
		switch rng.Intn(4) {
		case 0: // straddling a page boundary
			return max(0, int64(rng.Intn(12))*pageSize+int64(rng.Intn(256))-128)
		case 1: // past the end, leaving (or reading) a hole
			if size > 48*pageSize {
				return rng.Int63n(size)
			}
			return size + rng.Int63n(3*pageSize)
		case 2:
			return rng.Int63n(size + pageSize)
		default:
			return int64(rng.Intn(512))
		}
	}
	randLen := func() int64 {
		if rng.Intn(3) == 0 {
			return rng.Int63n(5 * pageSize / 2)
		}
		return rng.Int63n(300)
	}
	randRuns := func() (offs, lens []int64, total int64) {
		for k := 1 + rng.Intn(5); k > 0; k-- {
			offs = append(offs, randOff())
			lens = append(lens, randLen())
			total += lens[len(lens)-1]
		}
		return offs, lens, total
	}
	// Writes take random windows of one random buffer: the store copies
	// what it is given, so nothing needs a fresh slice.
	src := make([]byte, 16*pageSize)
	rng.Read(src)
	randBytes := func(n int64) []byte {
		o := rng.Int63n(int64(len(src)) - n + 1)
		return src[o : o+n]
	}

	for step := 0; step < 3000; step++ {
		h := hs[rng.Intn(len(hs))]
		var op string
		switch rng.Intn(4) {
		case 0:
			op = "WriteAt"
			off, p := randOff(), randBytes(randLen())
			if _, err := h.WriteAt(p, off); err != nil {
				t.Fatal(err)
			}
			ref.write(p, off)
		case 1:
			op = "WriteRuns"
			offs, lens, total := randRuns()
			packed := randBytes(total)
			if err := h.WriteRuns(packed, offs, lens); err != nil {
				t.Fatal(err)
			}
			for i, pos := 0, int64(0); i < len(offs); pos, i = pos+lens[i], i+1 {
				ref.write(packed[pos:pos+lens[i]], offs[i])
			}
		case 2:
			op = "ReadAt"
			off, n := randOff(), randLen()
			got, want := bytes.Repeat([]byte{0xEE}, int(n)), make([]byte, n)
			if _, err := h.ReadAt(got, off); err != nil {
				t.Fatal(err)
			}
			ref.readInto(want, off)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: ReadAt(%d bytes at %d) differs from the reference", step, n, off)
			}
		default:
			op = "ReadRuns"
			offs, lens, total := randRuns()
			got, want := bytes.Repeat([]byte{0xEE}, int(total)), make([]byte, total)
			if err := h.ReadRuns(got, offs, lens); err != nil {
				t.Fatal(err)
			}
			for i, pos := 0, int64(0); i < len(offs); pos, i = pos+lens[i], i+1 {
				ref.readInto(want[pos:pos+lens[i]], offs[i])
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: ReadRuns(%v, %v) differs from the reference", step, offs, lens)
			}
		}
		if sz, _ := h.Size(); sz != int64(len(ref.data)) {
			t.Fatalf("step %d (%s): Size %d, reference %d", step, op, sz, len(ref.data))
		}
		if w, r := fs.Stats(); w != ref.written || r != ref.read {
			t.Fatalf("step %d (%s): Stats (%d, %d), reference (%d, %d)", step, op, w, r, ref.written, ref.read)
		}
	}
}

// recordOrder returns the order in which records are written and which of
// nh handles writes each: "ascending", "descending", or "shared4", where
// four handles take turns over the records in ascending order.
func recordOrder(order string, records int) (idx []int, nh int) {
	nh = 1
	for k := 0; k < records; k++ {
		idx = append(idx, k)
	}
	switch order {
	case "descending":
		for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
			idx[i], idx[j] = idx[j], idx[i]
		}
	case "shared4":
		nh = 4
	}
	return idx, nh
}

// TestStoreGrowthAllocatesOnlyPages writes n bytes as records that straddle
// page boundaries, in three orders, then a small block past the end (where
// the native container puts its metadata), and bounds the bytes allocated
// by n plus one page per write: extending a file must not copy it.
func TestStoreGrowthAllocatesOnlyPages(t *testing.T) {
	const rec = 3*pageSize/4 + 13
	const records = 128
	const n = rec * records
	payload := make([]byte, rec)
	for _, order := range []string{"ascending", "descending", "shared4"} {
		t.Run(order, func(t *testing.T) {
			idx, nh := recordOrder(order, records)
			fs := NewZeroCost()
			hs := make([]*File, nh)
			for i := range hs {
				hs[i], _ = fs.Create("grow")
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i, k := range idx {
				if _, err := hs[i%nh].WriteAt(payload, int64(k)*rec); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := hs[0].WriteAt(payload[:64], n+pageSize/2); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			grew := after.TotalAlloc - before.TotalAlloc
			if limit := uint64(n + (records+1)*pageSize); grew > limit {
				t.Errorf("writing %d bytes allocated %d bytes, limit %d", n, grew, limit)
			}
		})
	}
}

func TestPagedStoreHolesReadZero(t *testing.T) {
	fs := NewZeroCost()
	f, _ := fs.Create("holes")
	f.WriteAt([]byte{1, 2}, pageSize-1)
	f.WriteAt([]byte{3}, 5*pageSize)
	if sz, _ := f.Size(); sz != 5*pageSize+1 {
		t.Fatalf("size %d", sz)
	}
	got := bytes.Repeat([]byte{9}, 6*pageSize)
	f.ReadAt(got, 0)
	want := make([]byte, len(got))
	want[pageSize-1], want[pageSize], want[5*pageSize] = 1, 2, 3
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], want[i])
		}
	}
	if pages := len(f.fd.pages); pages != 6 {
		t.Errorf("page table has %d entries, want 6", pages)
	}
	for i, p := range f.fd.pages {
		if allocated := p != nil; allocated != (i == 0 || i == 1 || i == 5) {
			t.Errorf("page %d allocated=%v", i, allocated)
		}
	}
}

// TestPagedStoreConcurrentHandles has four handles write interleaved
// records that straddle pages while a fifth reads and sizes the file, then
// checks every record. Run it under -race.
func TestPagedStoreConcurrentHandles(t *testing.T) {
	const rec = 3*pageSize/4 + 13
	const records = 64
	fs := NewZeroCost()
	var wg sync.WaitGroup
	stop, readerDone := make(chan struct{}), make(chan struct{})
	reader, _ := fs.Create("conc")
	go func() {
		defer close(readerDone)
		dst := make([]byte, 2*pageSize)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sz, _ := reader.Size()
			if err := reader.ReadRuns(dst, []int64{sz / 2, sz}, []int64{pageSize, pageSize}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for h := 0; h < 4; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			f, _ := fs.Create("conc")
			for k := h; k < records; k += 4 {
				packed := bytes.Repeat([]byte{byte(k + 1)}, rec)
				if err := f.WriteRuns(packed, []int64{int64(k) * rec, int64(k)*rec + rec/2}, []int64{rec / 2, rec - rec/2}); err != nil {
					t.Error(err)
					return
				}
			}
		}(h)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	got := make([]byte, rec*records)
	reader.ReadAt(got, 0)
	for k := 0; k < records; k++ {
		if !bytes.Equal(got[k*rec:(k+1)*rec], bytes.Repeat([]byte{byte(k + 1)}, rec)) {
			t.Errorf("record %d corrupted", k)
		}
	}
	if sz, _ := reader.Size(); sz != rec*records {
		t.Errorf("size %d, want %d", sz, rec*records)
	}
}
