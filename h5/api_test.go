package h5_test

import (
	"strings"
	"testing"

	"lowfive/h5"
	"lowfive/internal/core"
)

func memFapl() *h5.FileAccessProps {
	return h5.NewFileAccessProps(core.NewMetadataVOL(nil))
}

func TestCreateFileRequiresVOL(t *testing.T) {
	if _, err := h5.CreateFile("x.h5", nil); err == nil {
		t.Error("nil fapl should fail")
	}
	if _, err := h5.CreateFile("x.h5", &h5.FileAccessProps{}); err == nil {
		t.Error("fapl without VOL should fail")
	}
	if _, err := h5.OpenFile("x.h5", nil); err == nil {
		t.Error("open with nil fapl should fail")
	}
}

func TestPathValidation(t *testing.T) {
	f, err := h5.CreateFile("p.h5", memFapl())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "/", "a//b", "a/./b", "../x"} {
		if _, err := f.CreateGroup(bad); err == nil {
			t.Errorf("CreateGroup(%q) should fail", bad)
		}
	}
	// Leading/trailing slashes are tolerated.
	if _, err := f.CreateGroup("/g/"); err != nil {
		t.Errorf("CreateGroup with surrounding slashes: %v", err)
	}
	if _, err := f.OpenGroup("g"); err != nil {
		t.Errorf("open after slashed create: %v", err)
	}
}

// TestWalkAllocs pins the path walk under CreateDataset and OpenDataset:
// a one-segment path costs no allocation and resolves to the object's own
// handle, which callers do not close, and a path is validated whole before
// any group on it is opened.
func TestWalkAllocs(t *testing.T) {
	f, err := h5.CreateFile("w.h5", memFapl())
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.CreateGroup("g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.CreateDataset("d", h5.U8, h5.NewSimple(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateDataset("d", h5.U8, h5.NewSimple(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenDataset("/g/d"); err != nil {
		t.Fatal(err)
	}
	for _, o := range []*h5.Object{&f.Object, &g.Object} {
		for _, p := range []string{"d", "/d", "d/"} {
			if a := testing.AllocsPerRun(100, func() { o.Walk(p) }); a != 0 {
				t.Errorf("walk(%q) under %q allocates %v times, want 0", p, o.Path(), a)
			}
			if parent, last, err := o.Walk(p); err != nil || parent != o.Handle() || last != "d" {
				t.Errorf("walk(%q) under %q = %v, %q, %v", p, o.Path(), parent, last, err)
			}
		}
	}
	// OpenDataset adds only its *Dataset to what the connector allocates:
	// the dataset's path is built when Path is called.
	h := g.Handle()
	vol := testing.AllocsPerRun(100, func() { h.DatasetOpen("d") })
	api := testing.AllocsPerRun(100, func() { g.OpenDataset("d") })
	if api != vol+1 {
		t.Errorf("OpenDataset allocates %v times, connector %v: want connector + 1", api, vol)
	}
	if _, err := f.OpenGroup("missing/./x"); err == nil || !strings.Contains(err.Error(), "invalid path") {
		t.Errorf("OpenGroup through a missing group with a bad segment: %v, want invalid path", err)
	}
}

// TestObjectPaths: Path is the parent's path, a slash, and the trimmed
// path the object was created or opened under.
func TestObjectPaths(t *testing.T) {
	f, err := h5.CreateFile("paths.h5", memFapl())
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.CreateGroup("/g/")
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.CreateGroup("h")
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.CreateDataset("d/", h5.U8, h5.NewSimple(2))
	if err != nil {
		t.Fatal(err)
	}
	og, err := f.OpenGroup("g/h/")
	if err != nil {
		t.Fatal(err)
	}
	od, err := f.OpenDataset("/g/h/d")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ got, want string }{
		{f.Path(), "paths.h5"},
		{g.Path(), "paths.h5" + "/" + "g"},
		{h.Path(), "paths.h5/g" + "/" + "h"},
		{d.Path(), "paths.h5/g/h" + "/" + "d"},
		{og.Path(), "paths.h5" + "/" + "g/h"},
		{od.Path(), "paths.h5" + "/" + "g/h/d"},
	} {
		if c.got != c.want {
			t.Errorf("Path() = %q, want %q", c.got, c.want)
		}
	}
}

func TestCreateDatasetValidation(t *testing.T) {
	f, _ := h5.CreateFile("d.h5", memFapl())
	if _, err := f.CreateDataset("d", nil, h5.NewSimple(4)); err == nil {
		t.Error("nil datatype should fail")
	}
	if _, err := f.CreateDataset("d", h5.U8, nil); err == nil {
		t.Error("nil dataspace should fail")
	}
}

func TestTransferValidation(t *testing.T) {
	f, _ := h5.CreateFile("t.h5", memFapl())
	ds, _ := f.CreateDataset("d", h5.U32, h5.NewSimple(4, 4))

	// Short buffer.
	if err := ds.Write(nil, nil, make([]byte, 10)); err == nil {
		t.Error("short buffer should fail")
	}
	// File space rank mismatch.
	bad := h5.NewSimple(16)
	if err := ds.Write(nil, bad, make([]byte, 64)); err == nil {
		t.Error("file-space rank mismatch should fail")
	}
	// File space dims mismatch.
	bad2 := h5.NewSimple(4, 5)
	if err := ds.Write(nil, bad2, make([]byte, 80)); err == nil {
		t.Error("file-space dims mismatch should fail")
	}
	// Mem/file selection size mismatch.
	mem := h5.NewSimple(8)
	mem.SelectHyperslab(h5.SelectSet, []int64{0}, []int64{3})
	fsel := h5.NewSimple(4, 4)
	fsel.SelectHyperslab(h5.SelectSet, []int64{0, 0}, []int64{2, 2})
	if err := ds.Write(mem, fsel, make([]byte, 32)); err == nil {
		t.Error("selection count mismatch should fail")
	}
	// Same checks on the read path.
	if err := ds.Read(nil, nil, make([]byte, 10)); err == nil {
		t.Error("short read buffer should fail")
	}
	if err := ds.Read(mem, fsel, make([]byte, 32)); err == nil {
		t.Error("read selection mismatch should fail")
	}
}

func TestCompoundDatasetEndToEnd(t *testing.T) {
	// A particle record: 3 float32 coordinates + uint64 id, written and
	// read back through the VOL as raw compound elements.
	particle, err := h5.NewCompound(24,
		h5.Field{Name: "x", Offset: 0, Type: h5.F32},
		h5.Field{Name: "y", Offset: 4, Type: h5.F32},
		h5.Field{Name: "z", Offset: 8, Type: h5.F32},
		h5.Field{Name: "id", Offset: 16, Type: h5.U64},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := h5.CreateFile("c.h5", memFapl())
	ds, err := f.CreateDataset("particles", particle, h5.NewSimple(10))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10*24)
	for i := 0; i < 10; i++ {
		rec := buf[i*24:]
		copy(rec[0:], h5.Bytes([]float32{float32(i), float32(i) + 0.25, float32(i) + 0.5}))
		copy(rec[16:], h5.Bytes([]uint64{uint64(1000 + i)}))
	}
	if err := ds.Write(nil, nil, buf); err != nil {
		t.Fatal(err)
	}
	// Read a sub-range.
	sel := h5.NewSimple(10)
	sel.SelectHyperslab(h5.SelectSet, []int64{3}, []int64{4})
	out := make([]byte, 4*24)
	if err := ds.Read(nil, sel, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rec := out[i*24:]
		x := h5.View[float32](rec[0:4])[0]
		id := h5.View[uint64](rec[16:24])[0]
		if x != float32(3+i) || id != uint64(1003+i) {
			t.Errorf("record %d: x=%v id=%d", i, x, id)
		}
	}
	if !ds.Datatype().Equal(particle) {
		t.Error("datatype lost through the VOL")
	}
}

func TestObjectPathsAndHandles(t *testing.T) {
	f, _ := h5.CreateFile("paths.h5", memFapl())
	g, _ := f.CreateGroup("a")
	sub, _ := g.CreateGroup("b")
	ds, _ := sub.CreateDataset("d", h5.U8, h5.NewSimple(1))
	if !strings.HasSuffix(ds.Path(), "a/b/d") {
		t.Errorf("dataset path %q", ds.Path())
	}
	if !strings.HasSuffix(sub.Path(), "a/b") {
		t.Errorf("group path %q", sub.Path())
	}
	if f.Name() != "paths.h5" {
		t.Errorf("file name %q", f.Name())
	}
	if ds.Handle() == nil || g.Handle() == nil {
		t.Error("handles must be exposed")
	}
	// Deep open through the root.
	if _, err := f.OpenDataset("a/b/d"); err != nil {
		t.Error(err)
	}
	// Walking through a missing intermediate fails cleanly.
	if _, err := f.OpenDataset("a/missing/d"); err == nil {
		t.Error("missing intermediate should fail")
	}
}

func TestAttributeValidation(t *testing.T) {
	f, _ := h5.CreateFile("av.h5", memFapl())
	g, _ := f.CreateGroup("g")
	if err := g.WriteAttribute("bad", h5.U64, make([]byte, 7)); err == nil {
		t.Error("misaligned attribute data should fail")
	}
	if err := g.WriteAttribute("empty", h5.U64, nil); err == nil {
		t.Error("empty attribute should fail")
	}
	ds, _ := g.CreateDataset("d", h5.U8, h5.NewSimple(1))
	if err := ds.WriteAttribute("bad", h5.U64, make([]byte, 7)); err == nil {
		t.Error("misaligned dataset attribute should fail")
	}
	// Attribute data is copied: mutating the source must not change it.
	src := []int64{7}
	if err := g.WriteAttribute("v", h5.I64, h5.Bytes(src)); err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	_, data, err := g.ReadAttribute("v")
	if err != nil || h5.View[int64](data)[0] != 7 {
		t.Errorf("attribute should be snapshotted: %v %v", data, err)
	}
	names, _ := f.AttributeNames()
	if len(names) != 0 {
		t.Errorf("root attributes %v", names)
	}
}
