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
