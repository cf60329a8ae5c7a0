package native

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"lowfive/h5"
	"lowfive/internal/pfs"
)

const (
	testParticles = 1 << 15
	gridX, gridY  = 12, 10
	gridZ         = 9
)

// writeReadFixture writes a [12,10,9] float64 grid and an [N,3] float32
// particle array through the h5 API and returns their bytes; the caller
// reopens the file at the connector, as the core file fallback does.
func writeReadFixture(t testing.TB, c *Connector, name string) (grid, parts []byte) {
	t.Helper()
	f, err := h5.CreateFile(name, h5.NewFileAccessProps(c))
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, gridX*gridY*gridZ)
	for i := range g {
		g[i] = float64(i) + 0.5
	}
	p := make([]float32, testParticles*3)
	for i := range p {
		p[i] = float32(i) * 0.25
	}
	gd, _ := f.CreateDataset("grid", h5.F64, h5.NewSimple(gridX, gridY, gridZ))
	pd, _ := f.CreateDataset("particles", h5.F32, h5.NewSimple(testParticles, 3))
	if err := gd.Write(nil, nil, h5.Bytes(g)); err != nil {
		t.Fatal(err)
	}
	if err := pd.Write(nil, nil, h5.Bytes(p)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return h5.Bytes(g), h5.Bytes(p)
}

func openDataset(t testing.TB, c *Connector, file, dset string) h5.DatasetHandle {
	t.Helper()
	fh, err := c.FileOpen(file, nil)
	if err != nil {
		t.Fatal(err)
	}
	dh, err := fh.DatasetOpen(dset)
	if err != nil {
		t.Fatal(err)
	}
	return dh
}

// TestDirectReadMatchesIdentityMemSpace checks that a read with no memory
// space, which lands straight in the caller's buffer, is byte-equal to a
// read through an identity memory space and to the written elements.
func TestDirectReadMatchesIdentityMemSpace(t *testing.T) {
	c := newTestConnector()
	grid, parts := writeReadFixture(t, c, "direct.h5")
	cases := []struct {
		name, dset string
		written    []byte
		boxes      int
		sel        func(s *h5.Dataspace) error
	}{
		{"strided grid box", "grid", grid, 1, func(s *h5.Dataspace) error {
			return s.SelectHyperslab(h5.SelectSet, []int64{2, 1, 3}, []int64{7, 6, 4})
		}},
		{"particle row range", "particles", parts, 1, func(s *h5.Dataspace) error {
			return s.SelectHyperslab(h5.SelectSet, []int64{137, 0}, []int64{4000, 3})
		}},
		{"multi-box hyperslab", "grid", grid, 18, func(s *h5.Dataspace) error {
			return s.SelectHyperslabStride(h5.SelectSet,
				[]int64{1, 0, 2}, []int64{4, 3, 3}, []int64{3, 3, 2}, []int64{2, 2, 2})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dh := openDataset(t, c, "direct.h5", tc.dset)
			es := dh.Datatype().Size
			sel := dh.Dataspace().Clone() // the handle lends its own; select on a copy
			if err := tc.sel(sel); err != nil {
				t.Fatal(err)
			}
			if got := len(sel.SelectionBoxes()); got != tc.boxes {
				t.Fatalf("selection has %d boxes, want %d", got, tc.boxes)
			}
			n := int(sel.NumSelected()) * es
			direct := bytes.Repeat([]byte{0xEE}, n)
			if err := dh.Read(nil, sel, direct); err != nil {
				t.Fatal(err)
			}
			viaMem := bytes.Repeat([]byte{0x11}, n)
			if err := dh.Read(h5.NewSimple(sel.NumSelected()), sel, viaMem); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(direct, viaMem) {
				t.Error("direct read differs from the identity memory-space read")
			}
			if want := h5.GatherSelected(nil, tc.written, sel, es); !bytes.Equal(direct, want) {
				t.Error("direct read differs from the written elements")
			}
		})
	}
}

// TestDirectReadAllocatesNoSelectionBuffer bounds what a read with no
// memory space allocates well below the selection's size: the bytes land
// in the caller's buffer, not in a staging copy.
func TestDirectReadAllocatesNoSelectionBuffer(t *testing.T) {
	c := newTestConnector()
	writeReadFixture(t, c, "alloc.h5")
	dh := openDataset(t, c, "alloc.h5", "particles")
	sel := dh.Dataspace().Clone() // the handle lends its own; select on a copy
	if err := sel.SelectHyperslab(h5.SelectSet, []int64{1000, 0}, []int64{20000, 3}); err != nil {
		t.Fatal(err)
	}
	n := sel.NumSelected() * 4
	data := make([]byte, n)
	const reads = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if err := dh.Read(nil, sel, data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := int64(after.TotalAlloc-before.TotalAlloc) / reads; per >= n/4 {
		t.Errorf("a %d-byte read allocated %d bytes", n, per)
	}
}

// TestFileOpenRejectsCorruptSuperblock pins superblocks whose metadata
// block cannot lie inside the file: each must fail to open with an error,
// neither panicking on the allocation nor decoding zero fill.
func TestFileOpenRejectsCorruptSuperblock(t *testing.T) {
	fs := pfs.NewZeroCost()
	c := New(PFSBackend(fs))
	cases := []struct {
		name             string
		metaOff, metaLen uint64
	}{
		{"huge-len.h5", headerSize, 1 << 62},
		{"far-off.h5", 1 << 40, 8},
		{"past-end.h5", headerSize, 1 << 20},
		{"inside-header.h5", 8, 8},
	}
	for _, tc := range cases {
		var hdr [headerSize]byte
		copy(hdr[:4], magic)
		binary.LittleEndian.PutUint32(hdr[4:8], version)
		binary.LittleEndian.PutUint64(hdr[8:16], tc.metaOff)
		binary.LittleEndian.PutUint64(hdr[16:24], tc.metaLen)
		st, _ := fs.Create(tc.name)
		st.WriteAt(hdr[:], 0)
		_, err := c.FileOpen(tc.name, nil)
		if err == nil || !strings.Contains(err.Error(), "corrupt superblock") {
			t.Errorf("%s (metaOff %d, metaLen %d): err = %v, want corrupt superblock",
				tc.name, tc.metaOff, tc.metaLen, err)
		}
	}
}
