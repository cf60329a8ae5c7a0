package h5

import (
	"encoding/binary"
	"fmt"
	"math"

	"lowfive/internal/grid"
)

// Binary serialization of datatypes and dataspaces, used by both the native
// container file format and the in situ transport. Little-endian throughout.

// Encoder appends primitive values to a buffer.
type Encoder struct{ Buf []byte }

// PutU8 appends one byte.
func (e *Encoder) PutU8(v uint8) { e.Buf = append(e.Buf, v) }

// PutI64 appends a little-endian int64.
func (e *Encoder) PutI64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	e.Buf = append(e.Buf, b[:]...)
}

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutI64(int64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// PutBytes appends length-prefixed raw bytes.
func (e *Encoder) PutBytes(b []byte) {
	e.PutI64(int64(len(b)))
	e.Buf = append(e.Buf, b...)
}

// Decoder consumes primitive values from a buffer.
type Decoder struct {
	Buf []byte
	Pos int
	Err error
}

func (d *Decoder) fail(what string) {
	if d.Err == nil {
		d.Err = fmt.Errorf("h5: truncated encoding reading %s at offset %d", what, d.Pos)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.Err != nil || d.Pos+1 > len(d.Buf) {
		d.fail("u8")
		return 0
	}
	v := d.Buf[d.Pos]
	d.Pos++
	return v
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 {
	if d.Err != nil || d.Pos+8 > len(d.Buf) {
		d.fail("i64")
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(d.Buf[d.Pos:]))
	d.Pos += 8
	return v
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.I64()
	if d.Err != nil || n < 0 || d.Pos+int(n) > len(d.Buf) {
		d.fail("string")
		return ""
	}
	s := string(d.Buf[d.Pos : d.Pos+int(n)])
	d.Pos += int(n)
	return s
}

// Bytes reads length-prefixed raw bytes (aliasing the underlying buffer).
func (d *Decoder) Bytes() []byte {
	n := d.I64()
	if d.Err != nil || n < 0 || d.Pos+int(n) > len(d.Buf) {
		d.fail("bytes")
		return nil
	}
	b := d.Buf[d.Pos : d.Pos+int(n) : d.Pos+int(n)]
	d.Pos += int(n)
	return b
}

// EncodeDatatype appends t's encoding to the encoder.
func EncodeDatatype(e *Encoder, t *Datatype) {
	e.PutU8(uint8(t.Class))
	e.PutI64(int64(t.Size))
	if t.Signed {
		e.PutU8(1)
	} else {
		e.PutU8(0)
	}
	e.PutI64(int64(len(t.Fields)))
	for _, f := range t.Fields {
		e.PutString(f.Name)
		e.PutI64(int64(f.Offset))
		EncodeDatatype(e, f.Type)
	}
	if t.Elem != nil {
		e.PutU8(1)
		EncodeDatatype(e, t.Elem)
		e.PutI64(int64(len(t.Dims)))
		for _, d := range t.Dims {
			e.PutI64(d)
		}
	} else {
		e.PutU8(0)
	}
}

// remaining returns the undecoded byte count, the bound for any claimed
// element count: a corrupt count larger than the bytes that could encode it
// must be rejected before allocating, not after.
func (d *Decoder) remaining() int64 {
	if d.Err != nil || d.Pos > len(d.Buf) {
		return 0
	}
	return int64(len(d.Buf) - d.Pos)
}

// DecodeDatatype reads a datatype encoding.
func DecodeDatatype(d *Decoder) *Datatype {
	t := &Datatype{Class: Class(d.U8()), Size: int(d.I64()), Signed: d.U8() == 1}
	nf := d.I64()
	// Every field costs at least 8 bytes (its name length prefix), so a
	// count beyond remaining/8 cannot be honest.
	if d.Err != nil || nf < 0 || nf > d.remaining()/8 {
		if nf != 0 {
			d.fail("datatype fields")
		}
		return t
	}
	for i := int64(0); i < nf && d.Err == nil; i++ {
		f := Field{Name: d.String(), Offset: int(d.I64())}
		f.Type = DecodeDatatype(d)
		t.Fields = append(t.Fields, f)
	}
	if d.U8() == 1 {
		t.Elem = DecodeDatatype(d)
		nd := d.I64()
		if d.Err != nil || nd < 0 || nd > 64 {
			d.fail("datatype dims")
			return t
		}
		for i := int64(0); i < nd; i++ {
			t.Dims = append(t.Dims, d.I64())
		}
	}
	return t
}

// EncodeDataspace appends s's encoding (extent, max extent and selection).
func EncodeDataspace(e *Encoder, s *Dataspace) {
	e.PutI64(int64(len(s.dims)))
	for _, d := range s.dims {
		e.PutI64(d)
	}
	if s.maxDims == nil {
		e.PutU8(0)
	} else {
		e.PutU8(1)
		for _, d := range s.maxDims {
			e.PutI64(d)
		}
	}
	e.PutU8(uint8(s.kind))
	e.PutI64(int64(len(s.boxes)))
	for _, b := range s.boxes {
		for d := range b.Min {
			e.PutI64(b.Min[d])
			e.PutI64(b.Max[d])
		}
	}
	e.PutI64(int64(len(s.points)))
	for _, p := range s.points {
		for _, c := range p {
			e.PutI64(c)
		}
	}
}

// DecodeDataspace reads a dataspace encoding.
func DecodeDataspace(d *Decoder) *Dataspace {
	nd := d.I64()
	if d.Err != nil || nd <= 0 || nd > 64 {
		d.fail("dataspace rank")
		return &Dataspace{dims: []int64{1}, kind: selNone}
	}
	s := &Dataspace{dims: make([]int64, nd)}
	// Every extent is positive and the point count fits an int64, as
	// NewSimple guarantees; anything else would make a reader size a
	// buffer from a garbage count.
	points := int64(1)
	for i := range s.dims {
		s.dims[i] = d.I64()
		if d.Err != nil {
			break
		}
		if s.dims[i] <= 0 || s.dims[i] > math.MaxInt64/points {
			d.fail("dataspace extent")
			return &Dataspace{dims: []int64{1}, kind: selNone}
		}
		points *= s.dims[i]
	}
	if d.U8() == 1 {
		s.maxDims = make([]int64, nd)
		for i := range s.maxDims {
			s.maxDims[i] = d.I64()
		}
	}
	s.kind = selKind(d.U8())
	nb := d.I64()
	// Each box encodes 16*nd bytes; a larger count than the buffer can hold
	// is corruption, rejected before any allocation.
	if d.Err != nil || nb < 0 || nb > d.remaining()/(16*nd) {
		if nb != 0 {
			d.fail("dataspace boxes")
		}
		return s
	}
	for i := int64(0); i < nb && d.Err == nil; i++ {
		b := grid.Box{Min: make([]int64, nd), Max: make([]int64, nd)}
		for k := int64(0); k < nd; k++ {
			b.Min[k] = d.I64()
			b.Max[k] = d.I64()
		}
		s.boxes = append(s.boxes, b)
	}
	np := d.I64()
	if d.Err != nil || np < 0 || np > d.remaining()/(8*nd) {
		if np != 0 {
			d.fail("dataspace points")
		}
		return s
	}
	for i := int64(0); i < np && d.Err == nil; i++ {
		p := make([]int64, nd)
		for k := range p {
			p[k] = d.I64()
		}
		s.points = append(s.points, p)
	}
	return s
}

// MarshalDatatype encodes a datatype to a fresh buffer.
func MarshalDatatype(t *Datatype) []byte {
	var e Encoder
	EncodeDatatype(&e, t)
	return e.Buf
}

// UnmarshalDatatype decodes a datatype.
func UnmarshalDatatype(b []byte) (*Datatype, error) {
	d := &Decoder{Buf: b}
	t := DecodeDatatype(d)
	return t, d.Err
}

// MarshalDataspace encodes a dataspace to a fresh buffer.
func MarshalDataspace(s *Dataspace) []byte {
	var e Encoder
	EncodeDataspace(&e, s)
	return e.Buf
}

// UnmarshalDataspace decodes a dataspace.
func UnmarshalDataspace(b []byte) (*Dataspace, error) {
	d := &Decoder{Buf: b}
	s := DecodeDataspace(d)
	return s, d.Err
}
