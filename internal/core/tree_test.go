package core

import (
	"bytes"
	"math/rand"
	"testing"

	"lowfive/h5"
	"lowfive/internal/grid"
)

func buildSampleTree(t *testing.T) *FileNode {
	t.Helper()
	fn := NewFileNode("step1.h5")
	g1 := NewGroupNode("group1")
	g2 := NewGroupNode("group2")
	if err := fn.AddChild(g1); err != nil {
		t.Fatal(err)
	}
	if err := fn.AddChild(g2); err != nil {
		t.Fatal(err)
	}
	gridDS := NewDatasetNode("grid", h5.U64, h5.NewSimple(4, 4, 4))
	if err := g1.AddChild(gridDS); err != nil {
		t.Fatal(err)
	}
	particles := NewDatasetNode("particles", h5.F32, h5.NewSimple(100, 3))
	if err := g2.AddChild(particles); err != nil {
		t.Fatal(err)
	}
	return fn
}

func TestTreeStructure(t *testing.T) {
	fn := buildSampleTree(t)
	n, err := fn.Resolve("group1/grid")
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != h5.KindDataset || n.Path() != "/group1/grid" {
		t.Errorf("kind=%v path=%q", n.Kind, n.Path())
	}
	if _, err := fn.Resolve("group1/missing"); err == nil {
		t.Error("missing child should fail")
	}
	if len(fn.Children()) != 2 {
		t.Errorf("children=%d", len(fn.Children()))
	}
	// Duplicate names rejected.
	if err := fn.AddChild(NewGroupNode("group1")); err == nil {
		t.Error("duplicate child should fail")
	}
	// Parent links.
	if n.Parent.Name != "group1" || n.Parent.Parent != fn.Node {
		t.Error("parent links broken")
	}
}

// TestResolveSegments: Resolve skips the empty segments of leading,
// trailing and doubled slashes, the same segments splitSegs returns.
func TestResolveSegments(t *testing.T) {
	fn := buildSampleTree(t)
	for _, c := range []struct {
		path string
		want string // Path of the node reached; "" when Resolve fails
		segs int
	}{
		{"", "/", 0},
		{"/", "/", 0},
		{"//", "/", 0},
		{"group1/grid", "/group1/grid", 2},
		{"/group1/grid", "/group1/grid", 2},
		{"group1/grid/", "/group1/grid", 2},
		{"//group1//grid//", "/group1/grid", 2},
		{"group2", "/group2", 1},
		{"/group2/", "/group2", 1},
		{"group1/missing", "", 2},
		{"/missing/", "", 1},
		{"group1/grid/deeper", "", 3},
	} {
		n, err := fn.Resolve(c.path)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("Resolve(%q) = %q, want an error", c.path, n.Path())
		case c.want != "" && (err != nil || n.Path() != c.want):
			t.Errorf("Resolve(%q) = %v, %v, want %q", c.path, n, err, c.want)
		}
		if got := splitSegs(c.path); len(got) != c.segs {
			t.Errorf("splitSegs(%q) = %q, want %d segments", c.path, got, c.segs)
		}
	}
}

func TestResolveAllocatesNothing(t *testing.T) {
	fn := buildSampleTree(t)
	var n *Node
	if allocs := testing.AllocsPerRun(100, func() { n, _ = fn.Resolve("/group1//grid/") }); allocs != 0 {
		t.Errorf("Resolve allocated %v times per run, want 0", allocs)
	}
	if n == nil || n.Path() != "/group1/grid" {
		t.Errorf("Resolve reached %v", n)
	}
}

func TestAddChildToDataset(t *testing.T) {
	ds := NewDatasetNode("d", h5.U8, h5.NewSimple(4))
	if err := ds.AddChild(NewGroupNode("g")); err == nil {
		t.Error("adding a child to a dataset should fail")
	}
}

func TestAttributes(t *testing.T) {
	n := NewGroupNode("g")
	n.SetAttribute(&Attribute{Name: "b", Type: h5.U8, Space: h5.NewSimple(1), Data: []byte{1}})
	n.SetAttribute(&Attribute{Name: "a", Type: h5.U8, Space: h5.NewSimple(1), Data: []byte{2}})
	n.SetAttribute(&Attribute{Name: "b", Type: h5.U8, Space: h5.NewSimple(1), Data: []byte{3}}) // replace
	names := n.AttributeNames()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Errorf("names=%v (creation order expected, replacement keeps slot)", names)
	}
	a, ok := n.Attribute("b")
	if !ok || a.Data[0] != 3 {
		t.Errorf("replaced attribute: %+v", a)
	}
}

func TestRecordWriteDeepSnapshotsData(t *testing.T) {
	ds := NewDatasetNode("d", h5.U8, h5.NewSimple(8))
	fs := h5.NewSimple(8)
	fs.SelectHyperslab(h5.SelectSet, []int64{2}, []int64{3})
	buf := []byte{10, 11, 12}
	if err := ds.RecordWrite(nil, fs, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // user reuses the buffer; deep copy must be unaffected
	got, err := ds.ReadPacked(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 10, 11, 12, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestRecordWriteShallowSeesUserBuffer(t *testing.T) {
	ds := NewDatasetNode("d", h5.U8, h5.NewSimple(4))
	ds.Ownership = OwnShallow
	buf := []byte{1, 2, 3, 4}
	mem := h5.NewSimple(4)
	if err := ds.RecordWrite(mem, nil, buf); err != nil {
		t.Fatal(err)
	}
	// Mutation before first read is visible (shallow semantics).
	buf[0] = 42
	got, err := ds.ReadPacked(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Errorf("shallow write should reference the user buffer, got %v", got)
	}
	// After the first read the packed cache is fixed.
	buf[1] = 77
	got2, _ := ds.ReadPacked(nil)
	if got2[1] != 2 {
		t.Errorf("packed cache should be stable after first access, got %v", got2)
	}
}

func TestReadPackedOverwriteOrder(t *testing.T) {
	ds := NewDatasetNode("d", h5.U8, h5.NewSimple(6))
	fs1 := h5.NewSimple(6)
	fs1.SelectHyperslab(h5.SelectSet, []int64{0}, []int64{4})
	ds.RecordWrite(nil, fs1, []byte{1, 1, 1, 1})
	fs2 := h5.NewSimple(6)
	fs2.SelectHyperslab(h5.SelectSet, []int64{2}, []int64{4})
	ds.RecordWrite(nil, fs2, []byte{2, 2, 2, 2})
	got, _ := ds.ReadPacked(nil)
	want := []byte{1, 1, 2, 2, 2, 2}
	if !bytes.Equal(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestReadPackedSubSelection(t *testing.T) {
	ds := NewDatasetNode("d", h5.U16, h5.NewSimple(4, 4))
	whole := make([]uint16, 16)
	for i := range whole {
		whole[i] = uint16(i)
	}
	ds.RecordWrite(nil, nil, h5.Bytes(whole))
	sel := h5.NewSimple(4, 4)
	sel.SelectHyperslab(h5.SelectSet, []int64{1, 1}, []int64{2, 2})
	got, err := ds.ReadPacked(sel)
	if err != nil {
		t.Fatal(err)
	}
	vals := h5.View[uint16](got)
	want := []uint16{5, 6, 9, 10}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("vals[%d]=%d want %d", i, vals[i], want[i])
		}
	}
}

func TestWrittenBoxes(t *testing.T) {
	ds := NewDatasetNode("d", h5.U8, h5.NewSimple(4, 4))
	fs := h5.NewSimple(4, 4)
	fs.SelectHyperslab(h5.SelectSet, []int64{0, 0}, []int64{2, 4})
	ds.RecordWrite(nil, fs, make([]byte, 8))
	fs2 := h5.NewSimple(4, 4)
	fs2.SelectHyperslab(h5.SelectSet, []int64{2, 0}, []int64{2, 4})
	ds.RecordWrite(nil, fs2, make([]byte, 8))
	boxes := ds.WrittenBoxes()
	if len(boxes) != 2 {
		t.Fatalf("boxes=%v", boxes)
	}
	if !boxes[0].Equal(grid.NewBox([]int64{0, 0}, []int64{2, 4})) {
		t.Errorf("box0=%v", boxes[0])
	}
}

func TestTreeCodecRoundTrip(t *testing.T) {
	fn := buildSampleTree(t)
	n, _ := fn.Resolve("group1/grid")
	n.SetAttribute(&Attribute{Name: "units", Type: h5.NewString(2), Space: h5.NewSimple(1), Data: []byte("kg")})
	var e h5.Encoder
	EncodeTree(&e, fn.Node, nil)
	d := &h5.Decoder{Buf: e.Buf}
	got, err := DecodeTree(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := (&FileNode{Node: got}).Resolve("group1/grid")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Type.Equal(h5.U64) || g.Space.NumPoints() != 64 {
		t.Errorf("decoded dataset %v %v", g.Type, g.Space)
	}
	a, ok := g.Attribute("units")
	if !ok || string(a.Data) != "kg" {
		t.Errorf("attribute lost: %+v", a)
	}
	p, err := (&FileNode{Node: got}).Resolve("group2/particles")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Type.Equal(h5.F32) {
		t.Errorf("particles type %v", p.Type)
	}
}

func TestTreeCodecCorruptInput(t *testing.T) {
	fn := buildSampleTree(t)
	var e h5.Encoder
	EncodeTree(&e, fn.Node, nil)
	for _, n := range []int{0, 1, 5, len(e.Buf) / 2} {
		d := &h5.Decoder{Buf: e.Buf[:n]}
		if _, err := DecodeTree(d, nil); err == nil && d.Err == nil {
			t.Errorf("truncation at %d should fail", n)
		}
	}
}

func TestProtocolDecodersRejectGarbage(t *testing.T) {
	// Property: arbitrary bytes fed to the response decoder and to the
	// request decoder and its answer paths return errors or empty results,
	// never panic.
	rng := rand.New(rand.NewSource(7))
	vol, _ := requestFixture(t)
	for i := 0; i < 500; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("panic on %d bytes: %v", len(buf), rec)
				}
			}()
			decodeBoxesResp(buf, 2, 4)
			answerRaw(t, vol, buf)
		}()
	}
}
