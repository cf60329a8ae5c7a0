package h5_test

import (
	"bytes"
	"slices"
	"testing"

	"lowfive/h5"
	"lowfive/internal/core"
	"lowfive/internal/native"
	"lowfive/internal/pfs"
)

// checkDataspaceOwnership pins who owns a dataspace on a writable
// connector. The space given to CreateDataset and the selection given to
// Write stay the caller's: changing them afterwards changes nothing stored.
// Dataset.Dataspace returns the caller's own copy: changing it changes
// neither the extent nor a read. A handle lends its extent in place, so an
// Extend after a read is what the next Dataspace reports.
func checkDataspaceOwnership(t *testing.T, fapl *h5.FileAccessProps, name string) {
	t.Helper()
	f, err := h5.CreateFile(name, fapl)
	if err != nil {
		t.Fatal(err)
	}
	space, err := h5.NewSimpleMax([]int64{4, 3}, []int64{6, 3})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.CreateDataset("d", h5.U8, space)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.SetExtent([]int64{6, 3}); err != nil {
		t.Fatal(err)
	}
	wantDims := func(want ...int64) {
		t.Helper()
		s := ds.Dataspace()
		if !slices.Equal(s.Dims(), want) || !s.IsAll() || s.NumSelected() != s.NumPoints() {
			t.Fatalf("Dataspace() = %v, want dims %v with everything selected", s, want)
		}
	}
	wantDims(4, 3)

	sel := h5.NewSimple(4, 3)
	if err := sel.SelectHyperslab(h5.SelectSet, []int64{1, 0}, []int64{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Write(nil, sel, []byte{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := sel.SelectHyperslab(h5.SelectSet, []int64{0, 0}, []int64{1, 3}); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 0, 0, 0}
	readWhole := func() {
		t.Helper()
		got := make([]byte, len(want))
		if err := ds.Read(nil, nil, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %v, want %v", got, want)
		}
	}
	readWhole()

	mine := ds.Dataspace()
	if err := mine.SelectHyperslab(h5.SelectSet, []int64{0, 0}, []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := mine.SetExtent([]int64{6, 3}); err != nil {
		t.Fatal(err)
	}
	wantDims(4, 3)
	readWhole()

	if err := ds.Extend(6, 3); err != nil {
		t.Fatal(err)
	}
	wantDims(6, 3)
	rows := h5.NewSimple(6, 3)
	if err := rows.SelectHyperslab(h5.SelectSet, []int64{0, 0}, []int64{4, 3}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := ds.Read(nil, rows, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("after Extend, rows 0-3 read %v, want %v", got, want)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDataspaceOwnershipMetadataVOL(t *testing.T) {
	checkDataspaceOwnership(t, h5.NewFileAccessProps(core.NewMetadataVOL(nil)), "own-mem.h5")
}

func TestDataspaceOwnershipNative(t *testing.T) {
	conn := native.New(native.PFSBackend(pfs.NewZeroCost()))
	checkDataspaceOwnership(t, h5.NewFileAccessProps(conn), "own-native.h5")
}
