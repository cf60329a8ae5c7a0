package core

import (
	"bytes"
	"path"
	"strings"
	"testing"

	"lowfive/h5"
)

func memFapl() (*MetadataVOL, *h5.FileAccessProps) {
	vol := NewMetadataVOL(nil)
	return vol, h5.NewFileAccessProps(vol)
}

func TestMetaVOLCreateWriteRead(t *testing.T) {
	_, fapl := memFapl()
	f, err := h5.CreateFile("a.h5", fapl)
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.CreateGroup("group1")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := g.CreateDataset("grid", h5.U64, h5.NewSimple(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, 16)
	for i := range vals {
		vals[i] = uint64(i * i)
	}
	if err := ds.Write(nil, nil, h5.Bytes(vals)); err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, 16)
	if err := ds.Read(nil, nil, h5.Bytes(out)); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Errorf("out[%d]=%d", i, out[i])
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMetaVOLFilePersistsAfterClose(t *testing.T) {
	vol, fapl := memFapl()
	f, _ := h5.CreateFile("persist.h5", fapl)
	ds, _ := f.CreateDataset("x", h5.U8, h5.NewSimple(3))
	ds.Write(nil, nil, []byte{7, 8, 9})
	f.Close()

	f2, err := h5.OpenFile("persist.h5", fapl)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := f2.OpenDataset("x")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 3)
	ds2.Read(nil, nil, out)
	if !bytes.Equal(out, []byte{7, 8, 9}) {
		t.Errorf("got %v", out)
	}
	vol.RemoveFile("persist.h5")
	if _, err := h5.OpenFile("persist.h5", fapl); err == nil {
		t.Error("open after remove should fail")
	}
}

func TestMetaVOLNestedPaths(t *testing.T) {
	_, fapl := memFapl()
	f, _ := h5.CreateFile("n.h5", fapl)
	if _, err := f.CreateGroup("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateGroup("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateDataset("a/b/d", h5.F32, h5.NewSimple(2)); err != nil {
		t.Fatal(err)
	}
	ds, err := f.OpenDataset("a/b/d")
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Datatype().Equal(h5.F32) {
		t.Errorf("type %v", ds.Datatype())
	}
	if _, err := f.CreateDataset("missing/d", h5.F32, h5.NewSimple(2)); err == nil {
		t.Error("creating under a missing group should fail")
	}
	kids, _ := f.Children()
	if len(kids) != 1 || kids[0].Name != "a" || kids[0].Kind != h5.KindGroup {
		t.Errorf("children %v", kids)
	}
}

func TestMetaVOLPartialWritesAndSelections(t *testing.T) {
	_, fapl := memFapl()
	f, _ := h5.CreateFile("p.h5", fapl)
	ds, _ := f.CreateDataset("d", h5.U8, h5.NewSimple(4, 4))
	// Two ranks' worth of row-wise writes.
	top := h5.NewSimple(4, 4)
	top.SelectHyperslab(h5.SelectSet, []int64{0, 0}, []int64{2, 4})
	ds.Write(nil, top, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	bot := h5.NewSimple(4, 4)
	bot.SelectHyperslab(h5.SelectSet, []int64{2, 0}, []int64{2, 4})
	ds.Write(nil, bot, []byte{2, 2, 2, 2, 2, 2, 2, 2})
	// Column-wise read.
	col := h5.NewSimple(4, 4)
	col.SelectHyperslab(h5.SelectSet, []int64{0, 1}, []int64{4, 1})
	out := make([]byte, 4)
	if err := ds.Read(nil, col, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{1, 1, 2, 2}) {
		t.Errorf("column read %v", out)
	}
}

func TestMetaVOLMemSpaceTransfer(t *testing.T) {
	_, fapl := memFapl()
	f, _ := h5.CreateFile("m.h5", fapl)
	ds, _ := f.CreateDataset("d", h5.U8, h5.NewSimple(4))
	// Memory buffer is 8 wide; write elements 2..5 of it into the dataset.
	mem := h5.NewSimple(8)
	mem.SelectHyperslab(h5.SelectSet, []int64{2}, []int64{4})
	buf := []byte{0, 0, 10, 11, 12, 13, 0, 0}
	if err := ds.Write(mem, nil, buf); err != nil {
		t.Fatal(err)
	}
	// Read back into positions 1..4 of a 6-wide buffer.
	rmem := h5.NewSimple(6)
	rmem.SelectHyperslab(h5.SelectSet, []int64{1}, []int64{4})
	out := make([]byte, 6)
	if err := ds.Read(rmem, nil, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{0, 10, 11, 12, 13, 0}) {
		t.Errorf("got %v", out)
	}
}

func TestMetaVOLAttributes(t *testing.T) {
	_, fapl := memFapl()
	f, _ := h5.CreateFile("at.h5", fapl)
	g, _ := f.CreateGroup("g")
	if err := g.WriteAttribute("answer", h5.I64, h5.Bytes([]int64{42})); err != nil {
		t.Fatal(err)
	}
	dt, data, err := g.ReadAttribute("answer")
	if err != nil {
		t.Fatal(err)
	}
	if !dt.Equal(h5.I64) || h5.View[int64](data)[0] != 42 {
		t.Errorf("dt=%v data=%v", dt, data)
	}
	ds, _ := g.CreateDataset("d", h5.U8, h5.NewSimple(1))
	if err := ds.WriteAttribute("scale", h5.F64, h5.Bytes([]float64{2.5})); err != nil {
		t.Fatal(err)
	}
	names, _ := ds.AttributeNames()
	if len(names) != 1 || names[0] != "scale" {
		t.Errorf("names=%v", names)
	}
	if _, _, err := ds.ReadAttribute("missing"); err == nil {
		t.Error("missing attribute should fail")
	}
}

// TestMatchDatasetAgreesWithFullPath pins matchDataset, which matches a
// pattern without a separator against the node's name, to the rule it
// replaced: such a pattern against path.Base of the full path, any other
// against the full path.
func TestMatchDatasetAgreesWithFullPath(t *testing.T) {
	root := NewGroupNode("")
	g1, g2 := NewGroupNode("g1"), NewGroupNode("g2")
	top := NewDatasetNode("grid", h5.U8, h5.NewSimple(1))
	mid := NewDatasetNode("grid", h5.U8, h5.NewSimple(1))
	deep := NewDatasetNode("p.x", h5.U8, h5.NewSimple(1))
	for _, add := range []struct{ parent, child *Node }{
		{root, top}, {root, g1}, {g1, mid}, {g1, g2}, {g2, deep},
	} {
		if err := add.parent.AddChild(add.child); err != nil {
			t.Fatal(err)
		}
	}
	old := func(pat, p string) bool {
		if !strings.Contains(pat, "/") {
			return matchPattern(pat, path.Base(p))
		}
		return matchPattern(pat, p)
	}
	pats := []string{"*", "grid", "grid*", "p.*", "g1", "[", "/*", "/grid",
		"/g1/*", "/g1/grid", "g1/grid", "*/grid", "/g1/g2/*", "/*/*/p.x", "/g1/["}
	for _, n := range []*Node{top, mid, deep} {
		for _, pat := range pats {
			if got, want := matchDataset(pat, n), old(pat, n.Path()); got != want {
				t.Errorf("matchDataset(%q, %s) = %v, full-path rule says %v", pat, n.Path(), got, want)
			}
		}
	}
}

func TestMetaVOLZeroCopyPattern(t *testing.T) {
	vol, fapl := memFapl()
	vol.SetZeroCopy("z.h5", "/group1/*")
	f, _ := h5.CreateFile("z.h5", fapl)
	g, _ := f.CreateGroup("group1")
	ds, _ := g.CreateDataset("particles", h5.U8, h5.NewSimple(4))
	buf := []byte{1, 2, 3, 4}
	ds.Write(nil, nil, buf)
	fn, _ := vol.File("z.h5")
	node, _ := fn.Resolve("group1/particles")
	if node.Ownership != OwnShallow {
		t.Error("dataset matching zero-copy pattern should be shallow")
	}
	// Non-matching dataset stays deep.
	ds2, _ := f.CreateDataset("other", h5.U8, h5.NewSimple(1))
	_ = ds2
	n2, _ := fn.Resolve("other")
	if n2.Ownership != OwnDeep {
		t.Error("non-matching dataset should be deep")
	}
}

func TestMetaVOLPatternPrecedence(t *testing.T) {
	vol := NewMetadataVOL(nil)
	vol.SetMemory("*", true)
	vol.SetMemory("out-*.h5", false)
	if vol.memoryOn("data.h5") != true {
		t.Error("data.h5 should be memory")
	}
	if vol.memoryOn("out-1.h5") != false {
		t.Error("out-1.h5 should not be memory (later setting wins)")
	}
}

func TestMetaVOLNeitherModeFails(t *testing.T) {
	vol := NewMetadataVOL(nil)
	vol.SetMemory("*", false)
	fapl := h5.NewFileAccessProps(vol)
	if _, err := h5.CreateFile("x.h5", fapl); err == nil {
		t.Error("create with neither memory nor passthru should fail")
	}
}

func TestMetaVOLDuplicateCreateFails(t *testing.T) {
	_, fapl := memFapl()
	f, _ := h5.CreateFile("dup.h5", fapl)
	if _, err := f.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateGroup("g"); err == nil {
		t.Error("duplicate group should fail")
	}
	if _, err := f.CreateDataset("g", h5.U8, h5.NewSimple(1)); err == nil {
		t.Error("dataset clashing with group name should fail")
	}
	if _, err := f.OpenDataset("g"); err == nil {
		t.Error("opening a group as dataset should fail")
	}
	if _, err := f.OpenGroup("nope"); err == nil {
		t.Error("opening a missing group should fail")
	}
}

func TestMetaVOLNamesAndListing(t *testing.T) {
	vol, fapl := memFapl()
	if vol.ConnectorName() == "" {
		t.Error("metadata VOL must be named")
	}
	f, _ := h5.CreateFile("list.h5", fapl)
	f.CreateGroup("g")
	ds, _ := f.CreateDataset("d", h5.U8, h5.NewSimple(1))
	if names := vol.FileNames(); len(names) != 1 || names[0] != "list.h5" {
		t.Errorf("files %v", names)
	}
	g, _ := f.OpenGroup("g")
	if names, err := g.AttributeNames(); err != nil || len(names) != 0 {
		t.Errorf("group attrs %v err=%v", names, err)
	}
	if names, err := ds.AttributeNames(); err != nil || len(names) != 0 {
		t.Errorf("dataset attrs %v err=%v", names, err)
	}
	if err := g.Close(); err != nil {
		t.Error(err)
	}
}

func TestDeleteObjects(t *testing.T) {
	_, fapl := memFapl()
	f, _ := h5.CreateFile("del.h5", fapl)
	f.CreateGroup("g")
	f.CreateGroup("g/sub")
	f.CreateDataset("g/sub/d", h5.U8, h5.NewSimple(4))
	f.CreateDataset("top", h5.U8, h5.NewSimple(4))

	// Delete a nested dataset.
	if err := f.Delete("g/sub/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenDataset("g/sub/d"); err == nil {
		t.Error("deleted dataset should be gone")
	}
	// Delete a whole subtree.
	if err := f.Delete("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenGroup("g"); err == nil {
		t.Error("deleted group should be gone")
	}
	kids, _ := f.Children()
	if len(kids) != 1 || kids[0].Name != "top" {
		t.Errorf("children %v", kids)
	}
	// A name can be reused after deletion.
	if _, err := f.CreateGroup("g"); err != nil {
		t.Errorf("recreate after delete: %v", err)
	}
	if err := f.Delete("missing"); err == nil {
		t.Error("deleting a missing child should fail")
	}
}
