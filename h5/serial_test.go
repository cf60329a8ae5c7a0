package h5

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderPrimitives(t *testing.T) {
	var e Encoder
	e.PutU8(7)
	e.PutI64(-42)
	e.PutString("hello")
	e.PutBytes([]byte{1, 2, 3})
	d := &Decoder{Buf: e.Buf}
	if d.U8() != 7 || d.I64() != -42 || d.String() != "hello" {
		t.Error("primitive roundtrip failed")
	}
	if b := d.Bytes(); len(b) != 3 || b[2] != 3 {
		t.Errorf("bytes %v", b)
	}
	if d.Err != nil {
		t.Error(d.Err)
	}
	// Reading past the end sets Err and returns zero values.
	if d.I64() != 0 || d.Err == nil {
		t.Error("over-read should set Err")
	}
}

func TestDecoderRandomBytesNeverPanic(t *testing.T) {
	// Property: feeding arbitrary bytes to the decoders returns an error or
	// a structurally valid value, never panics.
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(n)%512)
		r.Read(buf)
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("UnmarshalDatatype panicked on %d bytes: %v", len(buf), rec)
				}
			}()
			dt, err := UnmarshalDatatype(buf)
			if err == nil && dt == nil {
				t.Fatal("nil datatype without error")
			}
		}()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("UnmarshalDataspace panicked on %d bytes: %v", len(buf), rec)
				}
			}()
			sp, err := UnmarshalDataspace(buf)
			if err == nil && sp == nil {
				t.Fatal("nil dataspace without error")
			}
		}()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDataspaceDecodeRejectsBadRank(t *testing.T) {
	var e Encoder
	e.PutI64(100) // rank 100 > 64 limit
	if _, err := UnmarshalDataspace(e.Buf); err == nil {
		t.Error("excessive rank should fail")
	}
	var e2 Encoder
	e2.PutI64(0)
	if _, err := UnmarshalDataspace(e2.Buf); err == nil {
		t.Error("zero rank should fail")
	}
}

func TestDataspaceDecodeRejectsBadExtent(t *testing.T) {
	encode := func(dims ...int64) []byte {
		var e Encoder
		e.PutI64(int64(len(dims)))
		for _, d := range dims {
			e.PutI64(d)
		}
		e.PutU8(0)             // no max extent
		e.PutU8(uint8(selAll)) // all selected: the point count is the extent
		e.PutI64(0)            // boxes
		e.PutI64(0)            // points
		return e.Buf
	}
	for _, dims := range [][]int64{
		{0, 8}, {8, -1}, {math.MinInt64},
		{1 << 32, 1 << 32}, // 2^64 points
		{math.MaxInt64, 2},
		{3, math.MaxInt64 / 2},
	} {
		if _, err := UnmarshalDataspace(encode(dims...)); err == nil {
			t.Errorf("extent %v decoded", dims)
		}
	}
	s, err := UnmarshalDataspace(encode(1<<31, 1<<31))
	if err != nil || s.NumPoints() != 1<<62 {
		t.Fatalf("largest representable extent: %v, %d points", err, s.NumPoints())
	}
}
