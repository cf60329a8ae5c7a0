package core

import (
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

func encodeMetadataResp(fn *FileNode) []byte {
	e := &h5.Encoder{}
	if fn == nil {
		e.PutU8(0)
		return e.Buf
	}
	e.PutU8(1)
	EncodeTree(e, fn.Node, nil)
	return e.Buf
}

func decodeMetadataResp(buf []byte) (*Node, error) {
	d := &h5.Decoder{Buf: buf}
	if d.U8() == 0 {
		return nil, fmt.Errorf("lowfive: producer does not have the requested file")
	}
	return DecodeTree(d, nil)
}

// --- box (redirect) query ---

func encodeBoxesReq(file, dset string, bb grid.Box) []byte {
	e := &h5.Encoder{}
	e.PutU8(opBoxes)
	e.PutString(file)
	e.PutString(dset)
	encodeBox(e, bb)
	return e.Buf
}

func encodeBoxesResp(ranks []int) []byte {
	e := &h5.Encoder{}
	e.PutI64(int64(len(ranks)))
	for _, r := range ranks {
		e.PutI64(int64(r))
	}
	return e.Buf
}

func decodeBoxesResp(buf []byte) ([]int, error) {
	d := &h5.Decoder{Buf: buf}
	n := d.I64()
	// Each rank entry is 8 bytes; a count the buffer cannot hold is corrupt.
	if d.Err != nil || n < 0 || n > int64(len(buf)-d.Pos)/8 {
		return nil, fmt.Errorf("lowfive: corrupt box-query response")
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.I64())
	}
	return out, d.Err
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
	box  grid.Box      // opBoxes: the read's bounding box
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
