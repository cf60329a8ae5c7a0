package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire format of one frame, everything little-endian:
//
//	[0:4)   payload length (uint32)
//	[4:12)  CommID (uint64)
//	[12:16) WorldSrc (uint32)
//	[16:20) Src (uint32)
//	[20:28) Tag (int64; internal collective tags are negative)
//	[28:32) CRC32C over bytes [4:28) plus the payload
//	[32:..) payload
//
// The length prefix frames the stream; the CRC covers the header fields
// and the payload so a flipped byte anywhere in a frame is detected
// before it reaches a mailbox. Decoding never panics: malformed input
// surfaces as one of the typed errors below, which is what lets the sock
// engine treat a corrupt connection as a peer fault instead of a crash.

// FrameHeaderLen is the fixed number of bytes before a frame's payload.
const FrameHeaderLen = 32

// MaxFrameBytes caps a single frame's payload, bounding the allocation a
// length prefix can demand from a corrupt or hostile stream.
const MaxFrameBytes = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Typed decode errors. ErrTruncatedFrame also covers a stream that ends
// mid-frame (io.ErrUnexpectedEOF wraps it in ReadFrame).
var (
	// ErrTruncatedFrame marks input shorter than its framing promises.
	ErrTruncatedFrame = errors.New("transport: truncated frame")
	// ErrBadCRC marks a frame whose checksum does not match its bytes.
	ErrBadCRC = errors.New("transport: frame CRC mismatch")
	// ErrFrameTooBig marks a length prefix beyond MaxFrameBytes.
	ErrFrameTooBig = errors.New("transport: frame exceeds size limit")
)

// AppendFrame appends the wire encoding of f to dst and returns the
// extended slice.
func AppendFrame(dst []byte, f *Frame) []byte {
	return append(appendHeader(dst, f), f.Data...)
}

// appendHeader appends f's FrameHeaderLen header bytes to dst, its CRC
// computed over the header fields and f.Data, without the payload itself:
// a sender that writes the payload from where it already lies (the sock
// engine's held frames) sends these bytes and then f.Data.
func appendHeader(dst []byte, f *Frame) []byte {
	var hdr [FrameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(f.Data)))
	binary.LittleEndian.PutUint64(hdr[4:], f.CommID)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(f.WorldSrc))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(f.Src))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(int64(f.Tag)))
	crc := crc32.Update(0, crcTable, hdr[4:28])
	crc = crc32.Update(crc, crcTable, f.Data)
	binary.LittleEndian.PutUint32(hdr[28:], crc)
	return append(dst, hdr[:]...)
}

// DecodeFrame parses one frame from the front of b, returning the frame
// and the number of bytes it consumed. The returned payload aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < FrameHeaderLen {
		return Frame{}, 0, ErrTruncatedFrame
	}
	n := binary.LittleEndian.Uint32(b[0:])
	if n > MaxFrameBytes {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	total := FrameHeaderLen + int(n)
	if len(b) < total {
		return Frame{}, 0, ErrTruncatedFrame
	}
	payload := b[FrameHeaderLen:total:total]
	crc := crc32.Update(0, crcTable, b[4:28])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != binary.LittleEndian.Uint32(b[28:]) {
		return Frame{}, 0, ErrBadCRC
	}
	return Frame{
		CommID:   binary.LittleEndian.Uint64(b[4:]),
		WorldSrc: int(int32(binary.LittleEndian.Uint32(b[12:]))),
		Src:      int(int32(binary.LittleEndian.Uint32(b[16:]))),
		Tag:      int(int64(binary.LittleEndian.Uint64(b[20:]))),
		Data:     payload,
	}, total, nil
}

// WriteFrame writes f's wire encoding to w in one Write call (sock
// connections rely on a single write per frame so concurrent senders
// serialize at the connection mutex, not mid-frame). It writes a copy:
// f.Data stays the caller's. The sock engine's held frames are the
// exception that does not copy; they go out as one writev of header and
// payload (sock.go, writeEntry).
func WriteFrame(w io.Writer, f *Frame) error {
	buf := AppendFrame(make([]byte, 0, FrameHeaderLen+len(f.Data)), f)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from r. A clean EOF before the first header
// byte returns io.EOF; a stream ending mid-frame returns an error wrapping
// ErrTruncatedFrame. The payload is freshly allocated (it must outlive the
// read buffer — it goes straight into a mailbox); the sock engine reads a
// held frame's payload into a pooled chunk instead, through the same
// readHeader and readPayload. It reads header and payload with one
// io.ReadFull each, so over a bare conn a frame costs two reads; the sock
// engine passes a session's bufio.Reader (readWire), which serves a burst
// of frames from one read.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [FrameHeaderLen]byte
	n, err := readHeader(r, &hdr)
	if err != nil {
		return Frame{}, err
	}
	return readPayload(r, &hdr, make([]byte, n))
}

// readHeader reads one frame header into hdr and returns the payload
// length it announces, checked against MaxFrameBytes.
func readHeader(r io.Reader, hdr *[FrameHeaderLen]byte) (int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	if n > MaxFrameBytes {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	return int(n), nil
}

// readPayload reads the payload of the frame whose header is hdr into
// payload (sized to the header's length), checks the CRC and returns the
// frame, whose Data is payload.
func readPayload(r io.Reader, hdr *[FrameHeaderLen]byte, payload []byte) (Frame, error) {
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	crc := crc32.Update(0, crcTable, hdr[4:28])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != binary.LittleEndian.Uint32(hdr[28:]) {
		return Frame{}, ErrBadCRC
	}
	return Frame{
		CommID:   binary.LittleEndian.Uint64(hdr[4:]),
		WorldSrc: int(int32(binary.LittleEndian.Uint32(hdr[12:]))),
		Src:      int(int32(binary.LittleEndian.Uint32(hdr[16:]))),
		Tag:      int(int64(binary.LittleEndian.Uint64(hdr[20:]))),
		Data:     payload,
	}, nil
}
