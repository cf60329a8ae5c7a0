package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lowfive/internal/buf"
)

// A send to a peer copies the payload onto the wire and returns its chunk
// to the pool at once: a two-chunk pool serves three sends without waiting
// out its grace period. A send to a dead peer leaves the chunk with the
// caller; a self-send hands the very slice to the receiver, whose release
// returns it.
func TestSockSendReturnsChunkToPool(t *testing.T) {
	_, socks, inbox := dialWorldCfg(t, "tcp", 2, nil)
	pool := buf.NewPool(4096, 2)
	payload := func(i int) []byte {
		b := make([]byte, 100+i)
		for j := range b {
			b[j] = byte(i*7 + j)
		}
		return b
	}
	send := func(dst, i int) ([]byte, error) {
		data := pool.Get().Bytes()[:100+i]
		copy(data, payload(i))
		return data, socks[0].Send(dst, &Frame{CommID: 1, Src: 0, WorldSrc: 0, Tag: i, Data: data})
	}

	const n = 3
	for i := 0; i < n; i++ {
		if _, err := send(1, i); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if got := pool.Outstanding(); got != 0 {
			t.Fatalf("after send %d: %d chunks outstanding, want 0", i, got)
		}
	}
	if got := pool.Overflow(); got != 0 {
		t.Fatalf("%d gets overflowed the pool, want 0", got)
	}
	for i := 0; i < n; i++ {
		select {
		case f := <-inbox[1]:
			if f.Tag != i || !bytes.Equal(f.Data, payload(i)) {
				t.Fatalf("frame %d: tag %d, %d bytes: payload differs from what was sent", i, f.Tag, len(f.Data))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for frame %d", i)
		}
	}

	data, err := send(0, n)
	if err != nil {
		t.Fatalf("self-send: %v", err)
	}
	f := <-inbox[0]
	if &f.Data[0] != &data[0] {
		t.Fatal("self-send delivered a copy, want the sender's slice")
	}
	if got := pool.Outstanding(); got != 1 {
		t.Fatalf("self-send: %d chunks outstanding before the receiver releases, want 1", got)
	}
	buf.Release(f.Data)
	if got := pool.Outstanding(); got != 0 {
		t.Fatalf("self-send: %d chunks outstanding after the receiver released, want 0", got)
	}

	socks[0].peerConnDied(1, socks[0].peerInc(1))
	data, err = send(1, n+1)
	var pd *PeerDeadError
	if !errors.As(err, &pd) || pd.Rank != 1 {
		t.Fatalf("send to a dead peer: %v, want *PeerDeadError{Rank:1}", err)
	}
	if got := pool.Outstanding(); got != 1 {
		t.Fatalf("failed send: %d chunks outstanding, want 1 (the caller owns it)", got)
	}
	buf.Release(data)
	if got := pool.Overflow(); got != 0 {
		t.Fatalf("%d gets overflowed the pool, want 0", got)
	}
}

// Close asks the peer for its ack instead of waiting for the next ack
// tick: with a ten-second AckInterval it still returns in a round trip,
// every frame delivered and acknowledged. The retransmit timeout is as long,
// so an ack-stall resync cannot empty the queue first.
func TestSockCloseDrainsInRoundTrip(t *testing.T) {
	const n = 20
	_, socks, _ := dialWorldCfg(t, "tcp", 2, func(r int, cfg *SockConfig) {
		cfg.AckInterval = 10 * time.Second
		cfg.RetransmitTimeout = 10 * time.Second
	})
	for i := 0; i < n; i++ {
		if err := socks[0].Send(1, &Frame{CommID: 1, Src: 0, WorldSrc: 0, Tag: i, Data: []byte{byte(i)}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	t0 := time.Now()
	if err := socks[0].Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d >= time.Second {
		t.Fatalf("Close took %v, want a round trip (< 1s)", d)
	}
	if got := socks[1].Stats().RecvFrames; got != n {
		t.Fatalf("peer received %d frames, want %d", got, n)
	}
	p := &socks[0].peers[1]
	p.mu.Lock()
	pending := len(p.queue)
	p.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d frames left in the retransmit queue, want 0", pending)
	}
}

// mibPayload returns the bytes of the i-th test payload of n bytes.
func mibPayload(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i*31 + j*7)
	}
	return b
}

// recvOutstanding sums the chunks a Sock's receive pools have handed out
// and not yet had back.
func recvOutstanding(s *Sock) int {
	n := 0
	for _, p := range s.rpools {
		n += p.Outstanding()
	}
	return n
}

// A chunk-backed payload of zeroCopyMin or more is held, not copied, and
// comes back in one round trip: the receiver acks a held frame at once, so
// with a ten-second AckInterval (and as long a retransmit timeout, so no
// ack-stall resync can trim the queue) a two-chunk pool still serves three
// 1 MiB sends without overflowing. The peer gets the bytes in a chunk of
// its own receive pool, which its release returns.
func TestSockHeldChunkReturnsInRoundTrip(t *testing.T) {
	const size = 1 << 20
	_, socks, inbox := dialWorldCfg(t, "tcp", 2, func(r int, cfg *SockConfig) {
		cfg.AckInterval = 10 * time.Second
		cfg.RetransmitTimeout = 10 * time.Second
	})
	pool := buf.NewPool(size, 2)
	for i := 0; i < 3; i++ {
		data := pool.Get().Bytes()
		copy(data, mibPayload(i, size))
		sent := time.Now()
		if err := socks[0].Send(1, &Frame{CommID: 1, Src: 0, WorldSrc: 0, Tag: i, Data: data}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		for pool.Outstanding() != 0 {
			if time.Since(sent) > time.Second {
				t.Fatalf("send %d: chunk not back within 1s of its Send", i)
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case f := <-inbox[1]:
			if f.Tag != i || !bytes.Equal(f.Data, mibPayload(i, size)) {
				t.Fatalf("frame %d: tag %d, %d bytes: payload differs from what was sent", i, f.Tag, len(f.Data))
			}
			if !buf.Retain(f.Data) {
				t.Fatalf("frame %d: delivered payload is not chunk-backed", i)
			}
			buf.Release(f.Data)
			buf.Release(f.Data) // the consumer's release
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for frame %d", i)
		}
	}
	if got := pool.Overflow(); got != 0 {
		t.Fatalf("%d gets overflowed the pool, want 0", got)
	}
	if got := recvOutstanding(socks[1]); got != 0 {
		t.Fatalf("receiver: %d receive chunks outstanding after the consumer released, want 0", got)
	}
}

// Every path that drops a queued held frame returns its chunk. Toward a
// partitioned peer the frames stay queued, each holding its 1 MiB chunk;
// the peer's death, Close with a short DrainTimeout, and the reconnect
// budget's unreachable verdict must each leave the pool empty.
func TestSockDroppedQueueReleasesChunks(t *testing.T) {
	const size, n = 1 << 20, 3
	cases := []struct {
		name string
		cfg  func(cfg *SockConfig)
		drop func(t *testing.T, s *Sock)
	}{
		{"peer-death", nil, func(t *testing.T, s *Sock) {
			s.peerConnDied(1, s.peerInc(1))
		}},
		{"close", func(cfg *SockConfig) { cfg.DrainTimeout = 50 * time.Millisecond }, func(t *testing.T, s *Sock) {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"unreachable", func(cfg *SockConfig) { cfg.ReconnectTimeout = 300 * time.Millisecond }, func(t *testing.T, s *Sock) {
			dead := func() bool {
				p := &s.peers[1]
				p.mu.Lock()
				defer p.mu.Unlock()
				return p.dead
			}
			deadline := time.Now().Add(5 * time.Second)
			for !dead() {
				if time.Now().After(deadline) {
					t.Fatal("peer never declared unreachable")
				}
				time.Sleep(5 * time.Millisecond)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, socks, _ := dialWorldCfg(t, "tcp", 2, func(r int, cfg *SockConfig) {
				if r != 0 {
					return
				}
				fastRecovery(cfg)
				cfg.HandshakeTimeout = 100 * time.Millisecond
				cfg.Faults = &Plan{Seed: 5, Rules: []Rule{{Action: Partition, Rank: 0, Dst: DstRank(1)}}}
				if tc.cfg != nil {
					tc.cfg(cfg)
				}
			})
			pool := buf.NewPool(size, n)
			for i := 0; i < n; i++ {
				data := pool.Get().Bytes()
				copy(data, mibPayload(i, size))
				if err := socks[0].Send(1, &Frame{CommID: 1, Src: 0, WorldSrc: 0, Tag: i, Data: data}); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if got := pool.Outstanding(); got != n {
				t.Fatalf("%d chunks outstanding with the link partitioned, want %d held in the queue", got, n)
			}
			tc.drop(t, socks[0])
			if got := pool.Outstanding(); got != 0 {
				t.Fatalf("%d chunks outstanding after the queue was dropped, want 0", got)
			}
		})
	}
}
