package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// dialWorldCfg is dialWorld with a per-rank config hook, for tests that
// inject wire faults or tighten the recovery timings.
func dialWorldCfg(t *testing.T, network string, size int, mutate func(r int, cfg *SockConfig)) (*Coordinator, []*Sock, []chan Frame) {
	t.Helper()
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = t.TempDir() + "/coord.sock"
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
		inbox[r] = make(chan Frame, 4096)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ch := inbox[r]
			cfg := SockConfig{
				Network: network, Coord: coord.Addr(), Rank: r, Size: size,
				Deliver: func(dst int, f *Frame) { ch <- *f },
			}
			if mutate != nil {
				mutate(r, &cfg)
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

// fastRecovery tightens the recovery timings so fault tests converge in
// milliseconds instead of the production-scale defaults.
func fastRecovery(cfg *SockConfig) {
	cfg.AckInterval = 5 * time.Millisecond
	cfg.RetransmitTimeout = 250 * time.Millisecond
	cfg.HandshakeTimeout = 500 * time.Millisecond
	cfg.ReconnectTimeout = 10 * time.Second
}

// sendNumbered ships frames tagged 0..n-1 from src to dst, pausing after
// the first until it has been received — so the session is live and any
// mid-stream fault lands on an established connection, not the initial
// dial.
func sendNumbered(t *testing.T, src, dst *Sock, dstRank, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f := &Frame{CommID: 1, Src: src.cfg.Rank, WorldSrc: src.cfg.Rank, Tag: i, Data: []byte{byte(i)}}
		if err := src.Send(dstRank, f); err != nil {
			t.Fatalf("send %d: %v (a torn connection must not surface to Send)", i, err)
		}
		if i == 0 {
			deadline := time.Now().Add(10 * time.Second)
			for dst.Stats().RecvFrames == 0 {
				if time.Now().After(deadline) {
					t.Fatal("first frame never delivered")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// expectInOrder drains n frames from inbox and asserts their tags run
// 0..n-1 — per-peer FIFO with no loss and no duplicates, the contract
// recovery must preserve.
func expectInOrder(t *testing.T, inbox chan Frame, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case f := <-inbox:
			if f.Tag != i {
				t.Fatalf("frame %d arrived with tag %d: order or content broken by recovery", i, f.Tag)
			}
			if len(f.Data) != 1 || f.Data[0] != byte(i) {
				t.Fatalf("frame %d: payload corrupted: %v", i, f.Data)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for frame %d of %d", i, n)
		}
	}
	select {
	case f := <-inbox:
		t.Fatalf("duplicate frame after the stream: %+v", f)
	case <-time.After(100 * time.Millisecond):
	}
}

// A connection hard-reset mid-frame must come back as reconnect + resend,
// bit-identical and in order — not as a dead rank.
func TestSockResetMidFrameRecovers(t *testing.T) {
	const n = 20
	_, socks, inbox := dialWorldCfg(t, "tcp", 2, func(r int, cfg *SockConfig) {
		fastRecovery(cfg)
		if r == 0 {
			cfg.Faults = &Plan{Seed: 11, Rules: []Rule{
				// Writes toward rank 1: hello, frame 0, then the inline
				// burst. The sixth write (data frame 4) dies mid-buffer.
				{Action: Reset, Rank: 0, Dst: DstRank(1), After: 5, Count: 1},
			}}
		}
	})
	sendNumbered(t, socks[0], socks[1], 1, n)
	expectInOrder(t, inbox[1], n)
	st := socks[0].Stats()
	if st.Reconnects < 1 || st.Redials < 1 || st.ResentFrames < 1 {
		t.Fatalf("stats %+v: reset recovery must count a reconnect, a redial and resent frames", st)
	}
	if st.SentFrames != n {
		t.Fatalf("SentFrames = %d, want %d: resends must not inflate the send counter", st.SentFrames, n)
	}
	if socks[1].Stats().RecvFrames != n {
		t.Fatalf("RecvFrames = %d, want %d: duplicates must not inflate the recv counter", socks[1].Stats().RecvFrames, n)
	}
}

// Bytes corrupted on the wire are caught below the codec (CRC or sequence
// mismatch) and repaired by reconnect + resend; the old behavior — a CRC
// error killing the rank — is exactly what this pins against.
func TestSockCorruptOnWireRecovers(t *testing.T) {
	const n = 20
	_, socks, inbox := dialWorldCfg(t, "tcp", 2, func(r int, cfg *SockConfig) {
		fastRecovery(cfg)
		if r == 0 {
			cfg.Faults = &Plan{Seed: 23, Rules: []Rule{
				{Action: Corrupt, Rank: 0, Dst: DstRank(1), After: 3, Count: 1},
			}}
		}
	})
	sendNumbered(t, socks[0], socks[1], 1, n)
	expectInOrder(t, inbox[1], n)
	st := socks[0].Stats()
	if st.Redials < 1 || st.ResentFrames < 1 {
		t.Fatalf("stats %+v: corrupt-on-wire recovery must redial and resend", st)
	}
}

// A silently dropped frame — no error on either side — is exposed by the
// receiver's sequence gap (or, for a trailing frame, the sender's ack
// stall) and repaired by resend.
func TestSockSilentDropRecovers(t *testing.T) {
	const n = 30
	_, socks, inbox := dialWorldCfg(t, "tcp", 2, func(r int, cfg *SockConfig) {
		fastRecovery(cfg)
		if r == 0 {
			cfg.Faults = &Plan{Seed: 31, Rules: []Rule{
				{Action: Drop, Rank: 0, Dst: DstRank(1), After: 10, Count: 1},
			}}
		}
	})
	sendNumbered(t, socks[0], socks[1], 1, n)
	expectInOrder(t, inbox[1], n)
	if st := socks[0].Stats(); st.ResentFrames < 1 {
		t.Fatalf("stats %+v: a swallowed frame must be resent", st)
	}
}

// The drop hitting the *last* frame of a burst: no successor reveals the
// gap, so only the ack-progress monitor can — the half-open/silent-loss
// backstop.
func TestSockTrailingDropAckStall(t *testing.T) {
	const n = 5
	_, socks, inbox := dialWorldCfg(t, "tcp", 2, func(r int, cfg *SockConfig) {
		fastRecovery(cfg)
		if r == 0 {
			cfg.Faults = &Plan{Seed: 43, Rules: []Rule{
				// Hello, frame 0, frames 1..3 inline pass; the sixth write
				// — the final data frame — vanishes with no successor to
				// reveal the gap.
				{Action: Drop, Rank: 0, Dst: DstRank(1), After: n, Count: 1},
			}}
		}
	})
	sendNumbered(t, socks[0], socks[1], 1, n)
	expectInOrder(t, inbox[1], n)
	if st := socks[0].Stats(); st.ResentFrames < 1 || st.Reconnects < 1 {
		t.Fatalf("stats %+v: trailing drop must be recovered via ack-stall tear + resend", st)
	}
}

// The two sides of a healthy exchange must agree exactly: sender frame and
// byte counters mirror the receiver's.
func TestSockStatsMirror(t *testing.T) {
	const n = 50
	_, socks, inbox := dialWorldCfg(t, "tcp", 2, nil)
	var wantBytes int64
	for i := 0; i < n; i++ {
		data := make([]byte, 1+i%7)
		for j := range data {
			data[j] = byte(i)
		}
		wantBytes += int64(len(data))
		if err := socks[0].Send(1, &Frame{CommID: 1, Src: 0, WorldSrc: 0, Tag: i, Data: data}); err != nil {
			t.Fatal(err)
		}
		if err := socks[1].Send(0, &Frame{CommID: 1, Src: 1, WorldSrc: 1, Tag: i, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		<-inbox[0]
		<-inbox[1]
	}
	for r := 0; r < 2; r++ {
		st := socks[r].Stats()
		if st.SentFrames != n || st.RecvFrames != n {
			t.Fatalf("rank %d: %+v, want %d sent and %d recv frames", r, st, n, n)
		}
		if st.SentBytes != wantBytes || st.RecvBytes != wantBytes {
			t.Fatalf("rank %d: %+v, want %d bytes both ways", r, st, wantBytes)
		}
		if st.Reconnects != 0 || st.ResentFrames != 0 {
			t.Fatalf("rank %d: %+v: healthy run must not count recoveries", r, st)
		}
	}
	s0, s1 := socks[0].Stats(), socks[1].Stats()
	if s0.SentFrames != s1.RecvFrames || s0.SentBytes != s1.RecvBytes {
		t.Fatalf("sides disagree: %+v vs %+v", s0, s1)
	}
}

// A world that cannot form — a rank process missing — must surface as a
// typed JoinTimeoutError, not an eternal hang at the barrier.
func TestSockJoinTimeout(t *testing.T) {
	coord, err := NewCoordinator("tcp", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	start := time.Now()
	_, err = DialSock(SockConfig{
		Network: "tcp", Coord: coord.Addr(), Rank: 0, Size: 2,
		Deliver: func(int, *Frame) {},
		Tuning:  Tuning{JoinTimeout: 300 * time.Millisecond},
	})
	var jt *JoinTimeoutError
	if !errors.As(err, &jt) {
		t.Fatalf("got %v, want *JoinTimeoutError", err)
	}
	if jt.Rank != 0 || jt.Timeout != 300*time.Millisecond {
		t.Fatalf("error fields %+v", jt)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gave up after %v: the timeout is not bounding the wait", elapsed)
	}
}

// A rank process that hangs — connection open, heartbeats stopped — must
// be evicted by the coordinator's read deadline and broadcast as dead,
// instead of wedging the world forever.
func TestCoordinatorEvictsHungRank(t *testing.T) {
	coord, err := NewCoordinator("tcp", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	coord.SetTimeouts(300*time.Millisecond, 0)
	defer coord.Close()

	deaths := make(chan int, 4)
	socks := make([]*Sock, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := SockConfig{
				Network: "tcp", Coord: coord.Addr(), Rank: r, Size: 2,
				Deliver: func(int, *Frame) {},
				Tuning:  Tuning{HeartbeatInterval: 50 * time.Millisecond},
			}
			if r == 0 {
				cfg.OnPeerDeath = func(rank int) { deaths <- rank }
			} else {
				// Rank 1 is the hung process: it joins, then never
				// heartbeats again.
				cfg.HeartbeatInterval = time.Hour
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
	defer socks[1].Close()

	select {
	case r := <-deaths:
		if r != 1 {
			t.Fatalf("death of rank %d, want the hung rank 1", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hung rank never evicted: the coordinator read deadline is not working")
	}
}

// FuzzCoordProto throws arbitrary bytes at the coordinator's newline-JSON
// control connection: whatever arrives, the coordinator must neither
// panic nor wedge (Close must return).
func FuzzCoordProto(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"op":"join","rank":0,"addr":"127.0.0.1:9","inc":0}` + "\n"),
		[]byte(`{"op":"join","rank":1,"addr":"x","inc":3}` + "\n" + `{"op":"ping","rank":1}` + "\n"),
		[]byte(`{"op":"join","rank":99,"addr":"y"}` + "\n"),
		[]byte(`{"op":"join","rank":-1}` + "\n"),
		[]byte(`{"op":"joi`),
		[]byte(""),
		[]byte("\x00\xff\x7f frame junk \x00"),
		[]byte(`{"op":"death","rank":1}` + "\n" + `{"op":"world","size":9}` + "\n"),
		[]byte(`{"op":"join","rank":0,"inc":4294967295,"addrs":["a","b"],"dead":[true,true]}` + "\n"),
		[]byte(`{"op":"join","rank":0}` + "\n" + `{"op":"join","rank":0,"inc":1}` + "\n"),
		[]byte(`[1,2,3]` + "\n" + `"just a string"` + "\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		coord, err := NewCoordinator("tcp", "127.0.0.1:0", 2)
		if err != nil {
			t.Skip("no loopback listener available")
		}
		coord.SetTimeouts(100*time.Millisecond, 100*time.Millisecond)
		conn, err := net.Dial("tcp", coord.Addr())
		if err == nil {
			conn.SetDeadline(time.Now().Add(time.Second))
			conn.Write(data)
			conn.Close()
		}
		done := make(chan struct{})
		go func() {
			coord.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("coordinator wedged: Close did not return")
		}
	})
}
