package transport

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{CommID: 1, Src: 0, WorldSrc: 0, Tag: 0, Data: nil},
		{CommID: 1, Src: 3, WorldSrc: 7, Tag: 42, Data: []byte("hello")},
		{CommID: 0xdeadbeefcafe, Src: 255, WorldSrc: 1023, Tag: -2 - 9*1024, Data: bytes.Repeat([]byte{0xAB}, 4096)},
		{CommID: 2, Src: 1, WorldSrc: 2, Tag: -1, Data: []byte{0}},
	}
	for i, f := range frames {
		enc := AppendFrame(nil, &f)
		got, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if n != len(enc) {
			t.Fatalf("frame %d: consumed %d of %d bytes", i, n, len(enc))
		}
		checkFrameEq(t, f, got)

		var buf bytes.Buffer
		if err := WriteFrame(&buf, &f); err != nil {
			t.Fatalf("frame %d: write: %v", i, err)
		}
		got2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		checkFrameEq(t, f, got2)
	}
}

func checkFrameEq(t *testing.T, want, got Frame) {
	t.Helper()
	if got.CommID != want.CommID || got.Src != want.Src ||
		got.WorldSrc != want.WorldSrc || got.Tag != want.Tag {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("payload mismatch: got %d bytes want %d", len(got.Data), len(want.Data))
	}
}

func TestFrameStreamConcat(t *testing.T) {
	var buf bytes.Buffer
	want := []Frame{
		{CommID: 1, Src: 0, WorldSrc: 0, Tag: 5, Data: []byte("a")},
		{CommID: 1, Src: 1, WorldSrc: 1, Tag: -64, Data: []byte("bb")},
		{CommID: 9, Src: 2, WorldSrc: 2, Tag: 0, Data: nil},
	}
	for i := range want {
		if err := WriteFrame(&buf, &want[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		checkFrameEq(t, want[i], got)
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("expected EOF at stream end")
	}
}

func TestFrameCorruption(t *testing.T) {
	f := Frame{CommID: 3, Src: 1, WorldSrc: 1, Tag: 17, Data: []byte("payload-bytes")}
	enc := AppendFrame(nil, &f)
	// Flip one byte everywhere past the length prefix: every flip must be
	// caught by the CRC, never panic.
	for i := 4; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		_, _, err := DecodeFrame(bad)
		if !errors.Is(err, ErrBadCRC) {
			t.Fatalf("flip at %d: got %v, want ErrBadCRC", i, err)
		}
		if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadCRC) {
			t.Fatalf("flip at %d (stream): got %v, want ErrBadCRC", i, err)
		}
	}
}

func TestFrameTruncated(t *testing.T) {
	f := Frame{CommID: 3, Src: 1, WorldSrc: 1, Tag: 17, Data: []byte("payload")}
	enc := AppendFrame(nil, &f)
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeFrame(enc[:n]); !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("len %d: got %v, want ErrTruncatedFrame", n, err)
		}
	}
	// A stream that dies mid-frame is typed too (except a clean boundary EOF).
	for n := 1; n < len(enc); n++ {
		_, err := ReadFrame(bytes.NewReader(enc[:n]))
		if !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("stream len %d: got %v, want ErrTruncatedFrame", n, err)
		}
	}
}

func TestFrameTooBig(t *testing.T) {
	f := Frame{CommID: 1, Data: []byte("x")}
	enc := AppendFrame(nil, &f)
	enc[0], enc[1], enc[2], enc[3] = 0xFF, 0xFF, 0xFF, 0x7F // ~2 GiB length prefix
	if _, _, err := DecodeFrame(enc); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("got %v, want ErrFrameTooBig", err)
	}
	if _, err := ReadFrame(bytes.NewReader(enc)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("stream: got %v, want ErrFrameTooBig", err)
	}
}

func TestChanEngine(t *testing.T) {
	var gotDst int
	var got Frame
	charged := 0
	tr := NewChan(func(dst int, f Frame) { gotDst, got = dst, f },
		func(bytes int) { charged += bytes })
	f := Frame{CommID: 1, Src: 0, Tag: 7, Data: []byte("abc")}
	if err := tr.Send(3, f); err != nil {
		t.Fatal(err)
	}
	// The frame arrives as an equal value whose payload is the sender's
	// very slice: the chan engine copies no bytes.
	if gotDst != 3 || got.CommID != f.CommID || got.Tag != f.Tag || &got.Data[0] != &f.Data[0] {
		t.Fatalf("delivered (%d,%+v), want (3,%+v) sharing its payload", gotDst, got, f)
	}
	if charged != 3 {
		t.Fatalf("cost charged %d bytes, want 3", charged)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// dialWorld brings up a coordinator plus size sock endpoints in one
// process. Each rank's inbound frames land in its own slice.
func dialWorld(t *testing.T, network string, size int) (*Coordinator, []*Sock, []chan Frame) {
	t.Helper()
	addr := ""
	if network == "unix" {
		addr = t.TempDir() + "/coord.sock"
	} else {
		addr = "127.0.0.1:0"
	}
	coord, err := NewCoordinator(network, addr, size)
	if err != nil {
		t.Fatal(err)
	}
	socks := make([]*Sock, size)
	inbox := make([]chan Frame, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		inbox[r] = make(chan Frame, 128)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ch := inbox[r]
			socks[r], errs[r] = DialSock(SockConfig{
				Network: network, Coord: coord.Addr(), Rank: r, Size: size,
				Deliver: func(dst int, f *Frame) { ch <- *f },
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, s := range socks {
			if s != nil {
				s.Close()
			}
		}
		coord.Close()
	})
	return coord, socks, inbox
}

func testSockWorld(t *testing.T, network string) {
	const size = 3
	_, socks, inbox := dialWorld(t, network, size)

	// All-pairs (including self-send) with distinguishable payloads.
	for src := 0; src < size; src++ {
		for dst := 0; dst < size; dst++ {
			f := &Frame{CommID: 1, Src: src, WorldSrc: src, Tag: 100*src + dst,
				Data: []byte{byte(src), byte(dst)}}
			if err := socks[src].Send(dst, f); err != nil {
				t.Fatalf("send %d→%d: %v", src, dst, err)
			}
		}
	}
	for dst := 0; dst < size; dst++ {
		seen := map[int]bool{}
		for i := 0; i < size; i++ {
			select {
			case f := <-inbox[dst]:
				if f.Tag != 100*f.Src+dst || !bytes.Equal(f.Data, []byte{byte(f.Src), byte(dst)}) {
					t.Fatalf("dst %d: bad frame %+v", dst, f)
				}
				seen[f.Src] = true
			case <-time.After(5 * time.Second):
				t.Fatalf("dst %d: timed out after %d frames", dst, i)
			}
		}
		if len(seen) != size {
			t.Fatalf("dst %d: got frames from %v", dst, seen)
		}
	}
	st := socks[0].Stats()
	if st.SentFrames != size || st.RecvFrames != size {
		t.Fatalf("rank 0 stats %+v, want %d sent/recv frames", st, size)
	}
}

func TestSockWorldTCP(t *testing.T)  { testSockWorld(t, "tcp") }
func TestSockWorldUnix(t *testing.T) { testSockWorld(t, "unix") }

func TestSockFIFOOrdering(t *testing.T) {
	_, socks, inbox := dialWorld(t, "tcp", 2)
	const n = 500
	for i := 0; i < n; i++ {
		f := &Frame{CommID: 1, Src: 0, WorldSrc: 0, Tag: i, Data: []byte{byte(i)}}
		if err := socks[0].Send(1, f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case f := <-inbox[1]:
			if f.Tag != i {
				t.Fatalf("frame %d arrived with tag %d: FIFO violated", i, f.Tag)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at frame %d", i)
		}
	}
}

func TestSockPeerDeath(t *testing.T) {
	const size = 2
	network := "tcp"
	coord, err := NewCoordinator(network, "127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	deaths := make(chan int, 8)
	socks := make([]*Sock, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := SockConfig{
				Network: network, Coord: coord.Addr(), Rank: r, Size: size,
				Deliver: func(int, *Frame) {},
			}
			if r == 0 {
				cfg.OnPeerDeath = func(rank int) { deaths <- rank }
			}
			socks[r], errs[r] = DialSock(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer socks[0].Close()

	// Rank 1 "dies": closing its endpoint drops its coordinator
	// connection, which must surface at rank 0 as a typed death.
	socks[1].Close()
	select {
	case r := <-deaths:
		if r != 1 {
			t.Fatalf("death of rank %d, want 1", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no peer-death notification")
	}
	// And sends to the dead peer fail with the typed error.
	var pd *PeerDeadError
	err = socks[0].Send(1, &Frame{CommID: 1, Data: []byte("x")})
	if !errors.As(err, &pd) || pd.Rank != 1 {
		t.Fatalf("send to dead peer: %v, want *PeerDeadError{Rank:1}", err)
	}
}

func TestSockRejoin(t *testing.T) {
	const size = 2
	network := "tcp"
	coord, err := NewCoordinator(network, "127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	deaths := make(chan int, 8)
	rejoins := make(chan int, 8)
	inbox0 := make(chan Frame, 16)
	socks := make([]*Sock, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := SockConfig{
				Network: network, Coord: coord.Addr(), Rank: r, Size: size,
				Deliver: func(int, *Frame) {},
			}
			if r == 0 {
				cfg.Deliver = func(dst int, f *Frame) { inbox0 <- *f }
				cfg.OnPeerDeath = func(rank int) { deaths <- rank }
				cfg.OnPeerRejoin = func(rank int) { rejoins <- rank }
			}
			socks[r], errs[r] = DialSock(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer socks[0].Close()

	socks[1].Close()
	select {
	case <-deaths:
	case <-time.After(5 * time.Second):
		t.Fatal("no death before rejoin")
	}

	// Respawn rank 1 with a bumped incarnation: rank 0 must see the
	// rejoin and traffic must flow again in both directions.
	s1b, err := DialSock(SockConfig{
		Network: network, Coord: coord.Addr(), Rank: 1, Size: size, Inc: 1,
		Deliver: func(int, *Frame) {},
	})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	defer s1b.Close()
	select {
	case r := <-rejoins:
		if r != 1 {
			t.Fatalf("rejoin of rank %d, want 1", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no rejoin notification")
	}
	if err := s1b.Send(0, &Frame{CommID: 1, Src: 1, WorldSrc: 1, Tag: 9, Data: []byte("back")}); err != nil {
		t.Fatalf("send after rejoin: %v", err)
	}
	select {
	case f := <-inbox0:
		if f.Tag != 9 || string(f.Data) != "back" {
			t.Fatalf("bad frame after rejoin: %+v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame from rejoined peer never arrived")
	}
	if err := socks[0].Send(1, &Frame{CommID: 1, Src: 0, WorldSrc: 0, Tag: 10, Data: []byte("hi")}); err != nil {
		t.Fatalf("send to rejoined peer: %v", err)
	}
}
