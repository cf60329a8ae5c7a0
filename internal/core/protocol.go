package core

import (
	"encoding/binary"
	"fmt"

	"lowfive/h5"
	"lowfive/internal/grid"
)

// Wire protocol between consumer (client) and producer (server) ranks.
// Requests are dispatched by a one-byte opcode; all payloads use the h5
// binary encoder.

const (
	opMetadata   uint8 = iota + 1 // file metadata at open
	opBoxes                       // Alg. 2 lines 4–8: which producers intersect a bbox
	_                             // unused: keeps the wire numbers of the ops below
	opDone                        // consumer finished with a file (no response)
	opDataStream                  // Alg. 2 lines 9–14: intersecting data as a chunked frame stream
)

func encodeBox(e *h5.Encoder, b grid.Box) {
	e.PutI64(int64(b.Dim()))
	for d := range b.Min {
		e.PutI64(b.Min[d])
		e.PutI64(b.Max[d])
	}
}

func decodeBox(d *h5.Decoder) grid.Box {
	nd := d.I64()
	if d.Err != nil || nd < 0 || nd > 64 {
		if d.Err == nil {
			d.Err = fmt.Errorf("lowfive: corrupt box rank %d", nd)
		}
		return grid.Box{}
	}
	b := grid.Box{Min: make([]int64, nd), Max: make([]int64, nd)}
	for k := int64(0); k < nd; k++ {
		b.Min[k] = d.I64()
		b.Max[k] = d.I64()
	}
	return b
}

// --- metadata request ---

func encodeMetadataReq(file string) []byte {
	e := &h5.Encoder{}
	e.PutU8(opMetadata)
	e.PutString(file)
	return e.Buf
}

// encodeMetadataResp answers a metadata request with the file's tree and
// then the layout id of the index build the file is served under:
//
//	[1][tree][id u64]
//
// A file this rank no longer holds is answered [0].
func encodeMetadataResp(fn *FileNode, id uint64) []byte {
	e := &h5.Encoder{}
	if fn == nil {
		e.PutU8(0)
		return e.Buf
	}
	e.PutU8(1)
	EncodeTree(e, fn.Node, nil)
	e.PutI64(int64(id))
	return e.Buf
}

// decodeMetadataResp reads a metadata answer: the file's tree and its
// layout id. The answer comes from another process, so a truncated or zero
// id and trailing bytes are corrupt.
func decodeMetadataResp(buf []byte) (*Node, uint64, error) {
	d := &h5.Decoder{Buf: buf}
	if d.U8() == 0 {
		return nil, 0, fmt.Errorf("lowfive: producer does not have the requested file")
	}
	root, err := DecodeTree(d, nil)
	if err != nil {
		return nil, 0, err
	}
	id, err := getLayoutID(d)
	if err != nil {
		return nil, 0, fmt.Errorf("lowfive: corrupt metadata answer: %w", err)
	}
	if d.Pos != len(buf) {
		return nil, 0, fmt.Errorf("lowfive: corrupt metadata answer: %d trailing bytes", len(buf)-d.Pos)
	}
	return root, id, nil
}

// getLayoutID reads a layout id. Producers never propose zero, so a zero id
// is as corrupt as a truncated one.
func getLayoutID(d *h5.Decoder) (uint64, error) {
	id := uint64(d.I64())
	if d.Err != nil {
		return 0, fmt.Errorf("layout id: %w", d.Err)
	}
	if id == 0 {
		return 0, fmt.Errorf("zero layout id")
	}
	return id, nil
}

// --- index exchange (Algorithm 1) ---

// An index-exchange message starts with the sender's layout id proposal,
// the same 8 bytes to every rank; the sender's entries for the receiving
// rank follow, each [path][box], to the end of the message:
//
//	[proposal u64] then [path][box]...
//
// decodeIndexMsg reads one, handing each entry to entry in message order,
// and returns the proposal.
func decodeIndexMsg(buf []byte, entry func(path string, box grid.Box)) (uint64, error) {
	d := &h5.Decoder{Buf: buf}
	id, err := getLayoutID(d)
	if err != nil {
		return 0, err
	}
	for d.Pos < len(d.Buf) {
		path := d.String()
		box := decodeBox(d)
		if d.Err != nil {
			return 0, d.Err
		}
		entry(path, box)
	}
	return id, nil
}

// The flag round before each index exchange (see index.go): one byte per
// producer, OR-ed across the task. A malformed flag folds to
// indexFlagCorrupt, which absorbs whatever it meets, so a rank that took in
// one anywhere in the round gets an error, never a reuse.
const (
	indexFlagSame    byte = 0
	indexFlagChanged byte = 1
	indexFlagCorrupt byte = 0xff
)

// encodeIndexFlag is one producer's flag: whether its index inputs differ
// from those of its last build.
func encodeIndexFlag(changed bool) []byte {
	if changed {
		return []byte{indexFlagChanged}
	}
	return []byte{indexFlagSame}
}

// orIndexFlags is the flag round's reduction. It is associative,
// commutative and idempotent, as the dissemination round needs, and it
// modifies neither argument.
func orIndexFlags(a, b []byte) []byte {
	if len(a) != 1 || len(b) != 1 || a[0] > indexFlagChanged || b[0] > indexFlagChanged {
		return []byte{indexFlagCorrupt}
	}
	return []byte{a[0] | b[0]}
}

// decodeIndexFlag reads the flag round's result: whether any producer's
// index inputs changed.
func decodeIndexFlag(buf []byte) (changed bool, err error) {
	if len(buf) != 1 || buf[0] > indexFlagChanged {
		return false, fmt.Errorf("lowfive: corrupt index flag % x", buf)
	}
	return buf[0] == indexFlagChanged, nil
}

// --- box (redirect) query ---

// encodeBoxesReq asks the owner of a common-decomposition block for its
// index entries of one dataset. The owner answers with every entry of bb's
// rank, whatever its bounds: the consumer keeps the answer for as long as
// the file's layout id stays the same and filters it against each read
// itself (see redirect).
func encodeBoxesReq(file, dset string, bb grid.Box) []byte {
	e := &h5.Encoder{}
	e.PutU8(opBoxes)
	e.PutString(file)
	e.PutString(dset)
	encodeBox(e, bb)
	return e.Buf
}

// boxEntrySize is the wire size of one redirect entry, [box][src i64], for
// boxes of the given rank.
func boxEntrySize(rank int) int { return 8 + 16*rank + 8 }

// encodeBoxesResp answers a redirect query with the owner's index entries
// of the given rank, in index order:
//
//	[count i64] then count × [box][src i64]
func encodeBoxesResp(entries []indexEntry, rank int) []byte {
	n := 0
	for _, ent := range entries {
		if ent.box.Dim() == rank {
			n++
		}
	}
	e := &h5.Encoder{Buf: make([]byte, 0, 8+n*boxEntrySize(rank))}
	e.PutI64(int64(n))
	for _, ent := range entries {
		if ent.box.Dim() == rank {
			encodeBox(e, ent.box)
			e.PutI64(int64(ent.src))
		}
	}
	return e.Buf
}

// redirectAnswer is one owner's validated answer to a redirect query, read
// in place: caching it copies nothing.
type redirectAnswer struct {
	entries []byte // boxEntrySize(rank) bytes per entry
	rank    int
}

func (a redirectAnswer) len() int { return len(a.entries) / boxEntrySize(a.rank) }

// match returns entry i's source rank and whether its box intersects bb, a
// box of the answer's rank.
func (a redirectAnswer) match(i int, bb grid.Box) (src int, hit bool) {
	e := a.entries[i*boxEntrySize(a.rank):]
	hit = true
	for d := 0; d < a.rank; d++ {
		lo := int64(binary.LittleEndian.Uint64(e[8+16*d:]))
		hi := int64(binary.LittleEndian.Uint64(e[16+16*d:]))
		if min(hi, bb.Max[d]) < max(lo, bb.Min[d]) {
			hit = false
			break
		}
	}
	return int(binary.LittleEndian.Uint64(e[8+16*a.rank:])), hit
}

// decodeBoxesResp validates a redirect answer for a dataset of the given
// rank served by a task of the given size. The answer comes from another
// process, so a count its length disagrees with, a box of another rank and
// a source outside [0, producers) are all corrupt; none of them reaches a
// stream request.
func decodeBoxesResp(buf []byte, rank, producers int) (redirectAnswer, error) {
	size := boxEntrySize(rank)
	d := &h5.Decoder{Buf: buf}
	n := d.I64()
	rest := len(buf) - d.Pos
	if d.Err != nil || rest%size != 0 || n != int64(rest/size) {
		return redirectAnswer{}, fmt.Errorf("lowfive: corrupt box-query response: %d entries in %d bytes", n, len(buf))
	}
	a := redirectAnswer{entries: buf[d.Pos:], rank: rank}
	for i := 0; i < int(n); i++ {
		e := a.entries[i*size:]
		if r := int64(binary.LittleEndian.Uint64(e)); r != int64(rank) {
			return redirectAnswer{}, fmt.Errorf("lowfive: corrupt box-query response: box of rank %d for a rank-%d dataset", r, rank)
		}
		if src := int64(binary.LittleEndian.Uint64(e[size-8:])); src < 0 || src >= int64(producers) {
			return redirectAnswer{}, fmt.Errorf("lowfive: corrupt box-query response: source rank %d of %d producers", src, producers)
		}
	}
	return a, nil
}

// --- data query ---

// encodeDataStreamReq asks a producer for the bytes of a dataset selection,
// answered as a sequence of bounded frames.
func encodeDataStreamReq(file, dset string, sel *h5.Dataspace) []byte {
	e := &h5.Encoder{}
	e.PutU8(opDataStream)
	e.PutString(file)
	e.PutString(dset)
	h5.EncodeDataspace(e, sel)
	return e.Buf
}

// --- done notification ---

func encodeDone(file string) []byte {
	e := &h5.Encoder{}
	e.PutU8(opDone)
	e.PutString(file)
	return e.Buf
}

// --- request decoding ---

// request is one decoded consumer request; which fields are set depends on
// op.
type request struct {
	op   uint8
	file string
	dset string        // opBoxes, opDataStream
	box  grid.Box      // opBoxes: a read's bounding box; only its rank is used
	sel  *h5.Dataspace // opDataStream: the read's file selection
}

// decodeRequest is the one decoder for every request a producer receives.
func decodeRequest(buf []byte) (request, error) {
	d := &h5.Decoder{Buf: buf}
	r := request{op: d.U8(), file: d.String()}
	switch r.op {
	case opMetadata, opDone:
	case opBoxes:
		r.dset = d.String()
		r.box = decodeBox(d)
	case opDataStream:
		r.dset = d.String()
		r.sel = h5.DecodeDataspace(d)
	default:
		if d.Err == nil {
			d.Err = fmt.Errorf("unknown op %d", r.op)
		}
	}
	if d.Err != nil {
		return r, fmt.Errorf("lowfive: corrupt %s request: %w", opName(r.op), d.Err)
	}
	return r, nil
}
