package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"lowfive/internal/buf"
)

// wireMsg is one decoded wire message, as readWire returns it.
type wireMsg struct {
	seq  uint64
	f    Frame
	held bool
	err  error
}

// heldWire returns the wire bytes of a held frame: the prefix marked with
// heldBit, the header, then the payload.
func heldWire(seq uint64, f *Frame) []byte {
	e := newEntry(seq, f, true)
	return append(e.buf, e.held...)
}

// decodeAll reads wire messages from r until the first error, copying each
// payload out and releasing held chunks, and checks that a held payload is
// chunk-backed and that no receive chunk is left outstanding.
func decodeAll(t *testing.T, r io.Reader) []wireMsg {
	t.Helper()
	rp := newRecvPools()
	var out []wireMsg
	for {
		seq, f, held, err := readWire(r, &rp)
		if err != nil {
			out = append(out, wireMsg{err: err})
			break
		}
		m := wireMsg{seq: seq, f: f, held: held}
		m.f.Data = bytes.Clone(f.Data)
		if held {
			if !buf.Retain(f.Data) {
				t.Fatalf("seq %d: held payload is not chunk-backed", seq)
			}
			buf.Release(f.Data)
			buf.Release(f.Data) // the delivery's reference
		}
		out = append(out, m)
	}
	for i, p := range rp {
		if n := p.Outstanding(); n != 0 {
			t.Fatalf("receive pool %d: %d chunks outstanding after every held frame was released", i, n)
		}
	}
	return out
}

// Reading through a session's bufio.Reader decodes exactly what reading
// the stream directly does, wherever the underlying reads split it: the
// same copied, held and control frames, the same held flags, and the same
// typed error at the end (io.EOF, ErrBadCRC, ErrTruncatedFrame), with every
// held chunk back in its pool.
func TestReadWireBufferedSplits(t *testing.T) {
	small := func(seq uint64, n int) []byte {
		d := make([]byte, n)
		for i := range d {
			d[i] = byte(int(seq)*13 + i)
		}
		return encodeWire(seq, &Frame{CommID: 3, Src: 1, WorldSrc: 2, Tag: -int(seq), Data: d})
	}
	held := func(seq uint64) []byte {
		return heldWire(seq, &Frame{CommID: 3, Src: 1, WorldSrc: 2, Tag: int(seq), Data: mibPayload(int(seq), zeroCopyMin+123)})
	}
	ctl := encodeWire(0, &Frame{CommID: helloCommID, Tag: ctlAckReq})
	var good []byte
	good = append(good, small(0, 1)...)
	good = append(good, ctl...)
	good = append(good, held(1)...)
	good = append(good, small(2, 12073)...)
	good = append(good, small(3, 0)...)
	good = append(good, held(4)...)
	good = append(good, ctl...)
	good = append(good, small(5, 48)...)

	corrupt := small(6, 200)
	corrupt[8+FrameHeaderLen+17] ^= 0x40
	heldCorrupt := held(6)
	heldCorrupt[len(heldCorrupt)-1] ^= 1
	heldMsg := held(6)
	streams := map[string]struct {
		tail []byte
		want error
	}{
		"clean-eof":         {nil, io.EOF},
		"bad-crc":           {corrupt, ErrBadCRC},
		"bad-crc-held":      {heldCorrupt, ErrBadCRC},
		"cut-in-prefix":     {small(6, 10)[:5], ErrTruncatedFrame},
		"cut-in-header":     {small(6, 10)[:8+20], ErrTruncatedFrame},
		"cut-in-payload":    {small(6, 10)[:8+FrameHeaderLen+4], ErrTruncatedFrame},
		"cut-in-held":       {heldMsg[:len(heldMsg)-zeroCopyMin/2], ErrTruncatedFrame},
		"cut-after-control": {ctl[:len(ctl)-1], ErrTruncatedFrame},
	}
	for name, st := range streams {
		t.Run(name, func(t *testing.T) {
			stream := append(bytes.Clone(good), st.tail...)
			want := decodeAll(t, bytes.NewReader(stream))
			if last := want[len(want)-1].err; !errors.Is(last, st.want) {
				t.Fatalf("direct read ended with %v, want %v", last, st.want)
			}
			if got := len(want) - 1; got != 8 {
				t.Fatalf("direct read decoded %d messages, want 8", got)
			}
			for i, h := range []bool{false, false, true, false, false, true, false, false} {
				if want[i].held != h {
					t.Fatalf("direct read: message %d held %v, want %v", i, want[i].held, h)
				}
			}
			for split, wrap := range map[string]func(io.Reader) io.Reader{
				"full":     func(r io.Reader) io.Reader { return r },
				"one-byte": iotest.OneByteReader,
				"half":     iotest.HalfReader,
			} {
				got := decodeAll(t, bufio.NewReaderSize(wrap(bytes.NewReader(stream)), 16<<10))
				if len(got) != len(want) {
					t.Fatalf("%s: %d messages through the buffer, %d direct", split, len(got), len(want))
				}
				for i := range want {
					w, g := want[i], got[i]
					if w.err != nil {
						if !errors.Is(g.err, st.want) {
							t.Fatalf("%s: message %d: error %v, want %v", split, i, g.err, st.want)
						}
						continue
					}
					if g.err != nil || g.seq != w.seq || g.held != w.held {
						t.Fatalf("%s: message %d: seq %d held %v err %v, want seq %d held %v", split, i, g.seq, g.held, g.err, w.seq, w.held)
					}
					checkFrameEq(t, w.f, g.f)
				}
			}
		})
	}
}

// countConn counts the Read calls that returned on a net.Conn.
type countConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

// A live session's acceptor reads a burst of small frames in at most one
// read per frame, where reading prefix, header and payload separately costs
// three. The acceptor's conn is wrapped in a read counter; rank 0 dials it
// as rank 1's listener.
func TestSockReadsPerFrame(t *testing.T) {
	const burst = 64
	_, socks, inbox := dialWorldCfg(t, "tcp", 2, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan *countConn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		cc := &countConn{Conn: c}
		socks[1].wg.Add(1)
		go socks[1].readLoop(cc)
		accepted <- cc
	}()
	p := &socks[0].peers[1]
	p.mu.Lock()
	p.addr = ln.Addr().String()
	p.mu.Unlock()

	send := func(i int) {
		f := &Frame{CommID: 1, Src: 0, WorldSrc: 0, Tag: i, Data: bytes.Repeat([]byte{byte(i)}, 40)}
		if err := socks[0].Send(1, f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	recv := func(i int) {
		select {
		case f := <-inbox[1]:
			if f.Tag != i || !bytes.Equal(f.Data, bytes.Repeat([]byte{byte(i)}, 40)) {
				t.Fatalf("frame %d: tag %d, payload %v", i, f.Tag, f.Data)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for frame %d", i)
		}
	}
	send(0)
	recv(0)
	var cc *countConn
	select {
	case cc = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("rank 0 never dialed the counted listener")
	}
	before := cc.reads.Load()
	for i := 1; i <= burst; i++ {
		send(i)
	}
	for i := 1; i <= burst; i++ {
		recv(i)
	}
	reads := cc.reads.Load() - before
	if reads > burst {
		t.Fatalf("%d reads for a burst of %d frames, want at most one per frame", reads, burst)
	}
	t.Logf("%d reads for a burst of %d frames", reads, burst)
}

// Close's drain waits on ack progress, not on a clock: six ranks, each
// with one frame its peer has delivered but not acknowledged (a ten-second
// AckInterval), drain at once in about a round trip, every queue empty.
// The best of five worlds must drain in under a millisecond; a drain that
// polls sleeps past it. Close then tears each world down.
func TestSockCloseDrainsSixRanks(t *testing.T) {
	const size, tries = 6, 5
	best := time.Hour
	for try := 0; try < tries; try++ {
		_, socks, inbox := dialWorldCfg(t, "unix", size, func(r int, cfg *SockConfig) {
			cfg.AckInterval = 10 * time.Second
			cfg.RetransmitTimeout = 10 * time.Second
		})
		for r, s := range socks {
			if err := s.Send((r+1)%size, &Frame{CommID: 1, Src: r, WorldSrc: r, Tag: r, Data: []byte{byte(r)}}); err != nil {
				t.Fatalf("send from %d: %v", r, err)
			}
		}
		for r := range socks {
			select {
			case <-inbox[r]:
			case <-time.After(5 * time.Second):
				t.Fatalf("rank %d never received its frame", r)
			}
		}
		run := func(f func(s *Sock)) time.Duration {
			var wg sync.WaitGroup
			t0 := time.Now()
			for _, s := range socks {
				wg.Add(1)
				go func(s *Sock) {
					defer wg.Done()
					f(s)
				}(s)
			}
			wg.Wait()
			return time.Since(t0)
		}
		best = min(best, run((*Sock).drain))
		for r, s := range socks {
			p := &s.peers[(r+1)%size]
			p.mu.Lock()
			pending := len(p.queue)
			p.mu.Unlock()
			if pending != 0 {
				t.Fatalf("try %d: rank %d drained with %d frames unacknowledged", try, r, pending)
			}
		}
		run(func(s *Sock) { s.Close() })
	}
	if best >= time.Millisecond {
		t.Fatalf("best of %d six-rank drains took %v, want a round trip (< 1ms)", tries, best)
	}
}

// A write into a session whose peer stopped reading fails within
// WriteTimeout and tears the session, though Send arms the deadline only
// when less than ⅞ of it remains; small sends spread over more than
// WriteTimeout, which the socket buffer absorbs, tear nothing. The peer is
// a fake acceptor that answers the handshake and then never reads; no Send
// may block past the timeout.
func TestSockWriteDeadlineTearsStalledSession(t *testing.T) {
	const timeout = 200 * time.Millisecond
	tears := make(chan error, 1)
	_, socks, _ := dialWorldCfg(t, "unix", 2, func(r int, cfg *SockConfig) {
		cfg.WriteTimeout = timeout
		cfg.RetransmitTimeout = 10 * time.Second
		cfg.DrainTimeout = 50 * time.Millisecond // nothing toward the fake peer is ever acked
		cfg.OnRecovery = func(ev RecoveryEvent) {
			if ev.Kind == "tear" && ev.Peer == 1 {
				select {
				case tears <- ev.Err:
				default:
				}
			}
		}
	})
	ln, err := net.Listen("unix", t.TempDir()+"/stall.sock")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		t.Cleanup(func() { c.Close() })
		if _, _, _, err := readWire(c, nil); err != nil {
			return
		}
		resume := socks[1].ctlFrame(ctlResume, make([]byte, 8))
		c.Write(encodeWire(0, &resume))
	}()
	p := &socks[0].peers[1]
	p.mu.Lock()
	p.addr = ln.Addr().String()
	p.mu.Unlock()

	payload := make([]byte, 32<<10)
	if err := socks[0].Send(1, &Frame{CommID: 1, Data: payload}); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		up := p.conn != nil
		p.mu.Unlock()
		if up {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("no session to the fake peer within 5s")
		}
	}
	for i := 0; i < 6; i++ {
		time.Sleep(timeout / 4)
		if err := socks[0].Send(1, &Frame{CommID: 1, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-tears:
		t.Fatalf("a session that takes every write was torn: %v", err)
	default:
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 512; i++ {
			t0 := time.Now()
			if err := socks[0].Send(1, &Frame{CommID: 1, Src: 0, WorldSrc: 0, Tag: i, Data: payload}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if d := time.Since(t0); d > timeout+time.Second {
				t.Errorf("send %d blocked %v, past the %v write timeout", i, d, timeout)
				return
			}
			select {
			case err := <-tears:
				if !isTimeout(err) {
					t.Errorf("session torn by %v, want a write timeout", err)
				}
				return
			default:
			}
		}
		t.Error("512 sends to a peer that never reads and no tear")
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked on a stalled session for 10s")
	}
}
