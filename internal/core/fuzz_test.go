package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"lowfive/h5"
	"lowfive/internal/grid"
)

// Fuzz targets for the wire-protocol decoders. Every decoder must return an
// error (or an empty value) on corrupt input — never panic, hang, or allocate
// proportionally to a claimed count the buffer cannot back.

// seedMutations derives truncated and bit-flipped variants of a valid
// encoding so the fuzzer starts near the interesting boundaries.
func seedMutations(f *testing.F, valid []byte) {
	f.Add(valid)
	for _, cut := range []int{0, 1, len(valid) / 2, len(valid) - 1} {
		if cut >= 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	for _, pos := range []int{0, 7, len(valid) / 3, len(valid) - 1} {
		if pos >= 0 && pos < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= 0xff
			f.Add(mut)
		}
	}
}

func validBoxBytes() []byte {
	e := &h5.Encoder{}
	encodeBox(e, grid.Box{Min: []int64{0, -3}, Max: []int64{15, 9}})
	return e.Buf
}

func FuzzDecodeBox(f *testing.F) {
	seedMutations(f, validBoxBytes())
	f.Fuzz(func(t *testing.T, buf []byte) {
		d := &h5.Decoder{Buf: buf}
		b := decodeBox(d)
		if d.Err == nil && len(b.Min) != len(b.Max) {
			t.Errorf("accepted box with mismatched ranks: %v", b)
		}
	})
}

func FuzzDecodeTree(f *testing.F) {
	root := NewGroupNode("/")
	g := NewGroupNode("state")
	ds := NewDatasetNode("grid", h5.F64, h5.NewSimple(4, 4))
	ds.SetAttribute(&Attribute{
		Name:  "units",
		Type:  h5.I64,
		Space: h5.Scalar(),
		Data:  []byte{1, 0, 0, 0, 0, 0, 0, 0},
	})
	_ = g.AddChild(ds)
	_ = root.AddChild(g)
	e := &h5.Encoder{}
	EncodeTree(e, root, nil)
	seedMutations(f, e.Buf)
	f.Fuzz(func(t *testing.T, buf []byte) {
		d := &h5.Decoder{Buf: buf}
		n, err := DecodeTree(d, nil)
		if err == nil && n == nil {
			t.Error("nil tree without error")
		}
	})
}

// redirectAnswerFixture is an owner's answer for a 2-D dataset served by
// four producers: three entries, one of them a replica of another block's.
func redirectAnswerFixture() []byte {
	return encodeBoxesResp([]indexEntry{
		{box: grid.Box{Min: []int64{0, 0}, Max: []int64{3, 7}}, src: 0},
		{box: grid.Box{Min: []int64{4, 0}, Max: []int64{7, 7}}, src: 2},
		{box: grid.Box{Min: []int64{2, 2}, Max: []int64{5, 5}}, src: 3},
	}, 2)
}

// FuzzDecodeBoxesResp: a redirect answer is input from another process.
// Whatever it holds, the decoder never panics, and an answer it accepts
// has exactly the entries its length holds, each a box of the dataset's
// rank from a producer that exists. The corpus in
// testdata/fuzz/FuzzDecodeBoxesResp holds hostile counts, ranks and
// sources.
func FuzzDecodeBoxesResp(f *testing.F) {
	const rank, producers = 2, 4
	seedMutations(f, redirectAnswerFixture())
	all := grid.Box{Min: []int64{math.MinInt64, math.MinInt64}, Max: []int64{math.MaxInt64, math.MaxInt64}}
	f.Fuzz(func(t *testing.T, buf []byte) {
		a, err := decodeBoxesResp(buf, rank, producers)
		if err != nil {
			return
		}
		if 8+a.len()*boxEntrySize(rank) != len(buf) {
			t.Errorf("accepted %d entries from %d bytes", a.len(), len(buf))
		}
		for i := 0; i < a.len(); i++ {
			if src, _ := a.match(i, all); src < 0 || src >= producers {
				t.Errorf("accepted source rank %d of %d producers", src, producers)
			}
		}
	})
}

// indexFixtureID is the layout id proposal of indexMsgFixture.
const indexFixtureID = 0x5eed_1d

// indexMsgFixture is producer 0's index-exchange message to a rank owning
// blocks of both datasets of a two-producer file: the proposal, then one
// entry per dataset.
func indexMsgFixture() []byte {
	e := &h5.Encoder{}
	e.PutI64(indexFixtureID)
	e.PutString("/state/grid")
	encodeBox(e, grid.Box{Min: []int64{0, 0}, Max: []int64{3, 7}})
	e.PutString("/particles")
	encodeBox(e, grid.Box{Min: []int64{0, 0}, Max: []int64{9, 2}})
	return e.Buf
}

// FuzzDecodeIndexMsg: an index-exchange message is input from another
// producer rank. Whatever it holds, filing it never panics; a message the
// decoder accepts carries a non-zero proposal, re-encodes to exactly its
// bytes and is filed under the larger of the two proposals; a refused one
// fails with the error naming its sender. The corpus in
// testdata/fuzz/FuzzDecodeIndexMsg holds a truncated and a zero proposal, a
// truncated entry, and messages in the retired fingerprint format.
func FuzzDecodeIndexMsg(f *testing.F) {
	valid := indexMsgFixture()
	seedMutations(f, valid)
	f.Fuzz(func(t *testing.T, buf []byte) {
		re := &h5.Encoder{}
		id, err := decodeIndexMsg(buf, func(path string, box grid.Box) {
			re.PutString(path)
			encodeBox(re, box)
		})
		if err == nil {
			head := &h5.Encoder{}
			head.PutI64(int64(id))
			if id == 0 || !bytes.Equal(append(head.Buf, re.Buf...), buf) {
				t.Errorf("accepted message with proposal %x re-encodes to other bytes", id)
			}
		}
		// Filed as rank 1's message beside rank 0's valid one.
		b, ferr := indexFrom([][]byte{valid, buf})
		if ferr != nil {
			if !strings.Contains(ferr.Error(), "corrupt index message from rank 1") {
				t.Errorf("refused with %q, want the error naming rank 1", ferr)
			}
			return
		}
		if err != nil {
			t.Errorf("filed a message the decoder refuses: %v", err)
		}
		if want := max(id, indexFixtureID); b.id != want {
			t.Errorf("filed under layout id %x, want the larger proposal %x", b.id, want)
		}
	})
}

// FuzzDecodeMetadataResp: a metadata answer is input from another process.
// Whatever it holds, the decoder never panics, and a layout id it accepts
// is non-zero and is the answer's last eight bytes. The corpus in
// testdata/fuzz/FuzzDecodeMetadataResp holds a truncated and a zero id,
// trailing bytes, and answers in the retired fingerprint format.
func FuzzDecodeMetadataResp(f *testing.F) {
	vol, _ := requestFixture(f)
	fn, _ := vol.File("outfile.h5")
	seedMutations(f, encodeMetadataResp(fn, vol.indexes["outfile.h5"].id))
	f.Fuzz(func(t *testing.T, buf []byte) {
		_, id, err := decodeMetadataResp(buf)
		if err != nil {
			return
		}
		if id == 0 || len(buf) < 8 || binary.LittleEndian.Uint64(buf[len(buf)-8:]) != id {
			t.Errorf("accepted layout id %x that is not the answer's last eight bytes", id)
		}
	})
}

func FuzzDecodeDataspace(f *testing.F) {
	sp, err := h5.NewSimpleMax([]int64{8, 8}, []int64{16, 16})
	if err != nil {
		f.Fatal(err)
	}
	sp.SelectBox(h5.SelectSet, grid.Box{Min: []int64{0, 0}, Max: []int64{3, 3}})
	seedMutations(f, h5.MarshalDataspace(sp))
	f.Fuzz(func(t *testing.T, buf []byte) {
		h5.UnmarshalDataspace(buf)
	})
}

func FuzzDecodeDatatype(f *testing.F) {
	compound, err := h5.NewCompound(16,
		h5.Field{Name: "x", Offset: 0, Type: h5.F64},
		h5.Field{Name: "id", Offset: 8, Type: h5.I64},
	)
	if err != nil {
		f.Fatal(err)
	}
	seedMutations(f, h5.MarshalDatatype(compound))
	f.Fuzz(func(t *testing.T, buf []byte) {
		h5.UnmarshalDatatype(buf)
	})
}

// requestFixture is a producer VOL holding outfile.h5 — /state/grid, an
// [8,8] u16 dataset written as two overlapping hyperslabs, the second
// overwriting the first — with its index in place, so every request op
// reaches its answer path.
func requestFixture(t testing.TB) (*DistMetadataVOL, *Node) {
	vol := NewDistMetadataVOL(nil, nil)
	fn := NewFileNode("outfile.h5")
	g := NewGroupNode("state")
	ds := NewDatasetNode("grid", h5.U16, h5.NewSimple(8, 8))
	if err := g.AddChild(ds); err != nil {
		t.Fatal(err)
	}
	if err := fn.AddChild(g); err != nil {
		t.Fatal(err)
	}
	var entries []indexEntry
	for i, box := range []grid.Box{
		{Min: []int64{0, 0}, Max: []int64{4, 7}},
		{Min: []int64{3, 2}, Max: []int64{7, 5}},
	} {
		sel := h5.NewSimple(8, 8)
		if err := sel.SelectBox(h5.SelectSet, box); err != nil {
			t.Fatal(err)
		}
		vals := make([]uint16, box.NumPoints())
		for k := range vals {
			vals[k] = uint16(100*(i+1) + k)
		}
		if err := ds.RecordWrite(nil, sel, h5.Bytes(vals)); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, indexEntry{box: box, src: i})
	}
	vol.indexes["outfile.h5"] = &builtIndex{id: 1, idx: map[string][]indexEntry{"/state/grid": entries}}
	vol.putFile("outfile.h5", fn)
	return vol, ds
}

// segmentBuffer collects StreamRegions' segments into one payload, in place
// of a response stream.
type segmentBuffer struct{ payload []byte }

func (b *segmentBuffer) MaxSegment() int { return 96 } // small: regions span several segments

func (b *segmentBuffer) Grab(n int) []byte {
	b.payload = append(b.payload, make([]byte, n)...)
	return b.payload[len(b.payload)-n:]
}

// answerRaw decodes a request and runs it through its answer path the way
// dispatch would once the file is indexed, minus the transport. A streamed
// answer whose selection lies inside the dataset must scatter at the
// consumer to exactly what ReadPacked assembles at the producer.
func answerRaw(t *testing.T, vol *DistMetadataVOL, buf []byte) {
	req, err := decodeRequest(buf)
	if _, indexed := vol.indexes[req.file]; err != nil || !indexed {
		return // dispatch parks a request for a file not indexed yet
	}
	switch req.op {
	case opMetadata:
		vol.serveMu.Lock()
		vol.answer(req)
		vol.serveMu.Unlock()
	case opBoxes:
		// Whatever was asked, the answer is one the consumer's decoder
		// accepts: the fixture's two producers, the query's rank.
		vol.serveMu.Lock()
		resp := vol.answer(req)
		vol.serveMu.Unlock()
		if _, err := decodeBoxesResp(resp, req.box.Dim(), 2); err != nil {
			t.Errorf("redirect answer for %v: %v", req.box, err)
		}
	case opDataStream:
		node := vol.streamSource(req)
		if node == nil {
			return
		}
		var sb segmentBuffer
		if err := node.StreamRegions(&sb, req.sel); err != nil {
			t.Fatalf("streaming %v: %v", req.sel, err)
		}
		extent := grid.WholeExtent(node.Space.Dims())
		for _, b := range req.sel.SelectionBoxes() {
			if !b.IsEmpty() && !(extent.Contains(b.Min) && extent.Contains(b.Max)) {
				return
			}
		}
		if req.sel.NumSelected() > 1024 {
			return
		}
		want, _ := node.ReadPacked(req.sel)
		got := make([]byte, len(want))
		if err := newStreamTarget(got, req.sel, 2).consume(sb.payload); err != nil || !bytes.Equal(got, want) {
			t.Errorf("streamed read of %v: err=%v\n got %v\nwant %v", req.sel, err, got, want)
		}
	}
}

// FuzzHandleRequest feeds the one request decoder and the answer paths
// behind it. Whatever a faulty peer delivers, nothing panics, and a streamed
// answer always places the bytes ReadPacked would. The corpus in
// testdata/fuzz/FuzzHandleRequest adds truncated data-stream requests and
// hostile selections.
func FuzzHandleRequest(f *testing.F) {
	seedMutations(f, encodeMetadataReq("outfile.h5"))
	seedMutations(f, encodeBoxesReq("outfile.h5", "/state/grid", grid.Box{Min: []int64{0, 0}, Max: []int64{7, 7}}))
	sel := h5.NewSimple(8, 8)
	sel.SelectBox(h5.SelectSet, grid.Box{Min: []int64{2, 1}, Max: []int64{5, 6}})
	seedMutations(f, encodeDataStreamReq("outfile.h5", "/state/grid", sel))
	seedMutations(f, encodeDone("outfile.h5"))
	vol, _ := requestFixture(f)
	f.Fuzz(func(t *testing.T, buf []byte) {
		answerRaw(t, vol, buf)
	})
}

// --- stream segments ---

// appendSegment encodes one stream segment the way StreamRegions does.
func appendSegment(payload []byte, box grid.Box, data []byte) []byte {
	e := &h5.Encoder{Buf: payload}
	encodeBox(e, box)
	e.PutI64(int64(len(data)))
	return append(e.Buf, data...)
}

// consumeFixture is a 2-D uint32 read of [2..5]x[1..4] out of an 8x6 extent
// and a valid frame of two segments covering rows 0..3 and 4..7, every
// element holding its row-major index in the extent.
func consumeFixture() (sel *h5.Dataspace, valid, want []byte) {
	sel = h5.NewSimple(8, 6)
	if err := sel.SelectHyperslab(h5.SelectSet, []int64{2, 1}, []int64{4, 4}); err != nil {
		panic(err)
	}
	rows := func(lo, hi int64) (grid.Box, []byte) {
		var vals []uint32
		for i := lo * 6; i < (hi+1)*6; i++ {
			vals = append(vals, uint32(i))
		}
		return grid.Box{Min: []int64{lo, 0}, Max: []int64{hi, 5}}, h5.Bytes(vals)
	}
	for _, r := range [][2]int64{{0, 3}, {4, 7}} {
		box, data := rows(r[0], r[1])
		valid = appendSegment(valid, box, data)
	}
	var vals []uint32
	for i := int64(2); i <= 5; i++ {
		for j := int64(1); j <= 4; j++ {
			vals = append(vals, uint32(i*6+j))
		}
	}
	return sel, valid, h5.Bytes(vals)
}

func TestStreamConsumeMalformedSegments(t *testing.T) {
	sel, valid, want := consumeFixture()
	dst := make([]byte, len(want))
	if err := newStreamTarget(dst, sel, 4).consume(valid); err != nil || !bytes.Equal(dst, want) {
		t.Fatalf("valid frame: err=%v dst=%v want %v", err, dst, want)
	}
	row := make([]byte, 6*4)
	huge := grid.Box{Min: []int64{math.MinInt64 / 2, 0}, Max: []int64{math.MaxInt64 / 2, 5}}
	for _, c := range []struct {
		name, want string
		payload    []byte
	}{
		{"1-D segment against the 2-D read", "stream segment rank 1",
			appendSegment(nil, grid.Box{Min: []int64{0}, Max: []int64{5}}, row)},
		{"3-D segment against the 2-D read", "stream segment rank 3",
			appendSegment(nil, grid.Box{Min: []int64{0, 0, 0}, Max: []int64{0, 0, 5}}, row)},
		{"rank 0", "stream segment rank 0", appendSegment(nil, grid.Box{}, nil)},
		{"truncated data", "truncated", valid[:len(valid)-1]},
		{"truncated header", "does not match its box", valid[:20]},
		{"length and box disagree", "does not match its box",
			appendSegment(nil, grid.Box{Min: []int64{2, 0}, Max: []int64{3, 5}}, row)},
		{"point count overflows", "exceeds its frame", appendSegment(nil, huge, row)},
	} {
		err := newStreamTarget(make([]byte, len(want)), sel, 4).consume(c.payload)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err=%v, want one naming %q", c.name, err, c.want)
		}
	}
}

// FuzzStreamConsume: a frame payload is input from another process. Whatever
// it holds, consume returns an error or places bytes — it never panics and
// never writes outside dst (the race/bounds checker's job) — and the valid
// frame always parses. The corpus in testdata/fuzz/FuzzStreamConsume holds
// the malformed cases above; `go test -run FuzzStreamConsume` replays it.
func FuzzStreamConsume(f *testing.F) {
	sel, valid, want := consumeFixture()
	f.Fuzz(func(t *testing.T, payload []byte) {
		dst := make([]byte, len(want))
		err := newStreamTarget(dst, sel, 4).consume(payload)
		if bytes.Equal(payload, valid) && (err != nil || !bytes.Equal(dst, want)) {
			t.Errorf("valid frame: err=%v dst=%v", err, dst)
		}
	})
}
