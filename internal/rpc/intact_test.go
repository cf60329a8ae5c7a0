package rpc

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lowfive/internal/buf"
	"lowfive/internal/transport"
	"lowfive/mpi"
)

// countChecksums replaces the envelope checksum with a counting wrapper
// for the rest of the test and returns the counter.
func countChecksums(t testing.TB) *atomic.Int64 {
	var n atomic.Int64
	orig := checksum
	checksum = func(b []byte) uint32 {
		n.Add(1)
		return orig(b)
	}
	t.Cleanup(func() { checksum = orig })
	return &n
}

// corruptingPlan makes a world non-intact without ever firing: the rule
// arms only after more sends than any test makes, so the CRC is on but
// every byte arrives as sent.
func corruptingPlan() mpi.FaultPlan {
	return mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{
		{Action: mpi.FaultCorrupt, Rank: mpi.AnyRank, Tag: TagResponse, After: 1 << 30},
	}}
}

func crcField(msg []byte) uint32 { return binary.LittleEndian.Uint32(msg[8:]) }

// TestIntactWorldSkipsCRC: on an intact world every envelope and every
// stream frame carries a zero CRC field, scalar and streamed calls still
// round-trip, and not one checksum runs on the rpc path.
func TestIntactWorldSkipsCRC(t *testing.T) {
	n := countChecksums(t)
	pool := buf.NewPool(4096, 8)
	const reps, grab = 16, 1024
	want := wantStream(reps, grab)
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("server")
			if !ic.Intact() {
				t.Error("a world with no fault plan reports not intact")
			}
			c := &Client{IC: ic}
			if resp, err := c.Call(0, []byte("ping")); err != nil || string(resp) != "ping" {
				t.Errorf("echo call = %q, %v", resp, err)
			}
			// Read one stream's frames off the wire to see the envelopes.
			c.StartStream(0, []byte("raw"))
			var raw bytes.Buffer
			for {
				msg, _ := ic.Recv(0, TagResponse)
				if crc := crcField(msg); crc != 0 {
					t.Errorf("stream frame carries CRC %#x on an intact world", crc)
				}
				raw.Write(msg[FrameOverhead:])
				last := msg[headerLen+4]&flagLast != 0
				buf.Release(msg)
				if last {
					break
				}
			}
			if !bytes.Equal(raw.Bytes(), want) {
				t.Errorf("raw stream = %d bytes, want %d identical", raw.Len(), len(want))
			}
			var got bytes.Buffer
			if err := c.StartStream(0, []byte("data")).Drain(func(b []byte) error {
				got.Write(b)
				return nil
			}); err != nil {
				t.Errorf("drain: %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("drained stream = %d bytes, want %d identical", got.Len(), len(want))
			}
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("client")
			msg, st := ic.Recv(mpi.AnySource, TagRequest)
			if crc := crcField(msg); crc != 0 {
				t.Errorf("request envelope carries CRC %#x on an intact world", crc)
			}
			seq, _, body, ok := unseal(ic.Intact(), msg)
			if !ok {
				t.Error("intact request failed to unseal")
			}
			ic.Send(st.Source, TagResponse, seal(ic.Intact(), seq, 0, body))
			streamServer(p, pool, 2, reps, grab)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 0 {
		t.Fatalf("%d checksums ran on the rpc path of an intact world, want 0", got)
	}
	if pool.Outstanding() != 0 {
		t.Fatalf("pool leaked %d chunks", pool.Outstanding())
	}
}

// TestCorruptingWorldChecksumsEachFrameOnce: with the CRC on, a scalar
// call costs one checksum per envelope (request and response, each sealed
// once and verified once), and a stream verifies each data frame exactly
// once on the client — the shed check never unseals a frame.
func TestCorruptingWorldChecksumsEachFrameOnce(t *testing.T) {
	n := countChecksums(t)
	pool := buf.NewPool(4096, 8)
	const reps, grab = 16, 1024
	var frames atomic.Int64
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			c := &Client{IC: p.Intercomm("server")}
			if c.IC.Intact() {
				t.Error("a world whose plan has a FaultCorrupt rule reports intact")
			}
			if _, err := c.Call(0, []byte("ping")); err != nil {
				t.Errorf("call: %v", err)
			}
			var got bytes.Buffer
			if err := c.StartStream(0, []byte("data")).Drain(func(b []byte) error {
				got.Write(b)
				return nil
			}); err != nil {
				t.Errorf("drain: %v", err)
			}
			if !bytes.Equal(got.Bytes(), wantStream(reps, grab)) {
				t.Errorf("stream payload mismatch: %d bytes", got.Len())
			}
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			s := &Server{IC: p.Intercomm("client"), Handler: func(int, []byte) ([]byte, bool) {
				return []byte("pong"), true
			}}
			s.ServeOne()
			src, seq, _ := s.Recv()
			st := s.NewStream(src, seq, pool)
			for r := 0; r < reps; r++ {
				region := st.Grab(grab)
				for j := range region {
					region[j] = byte(r + j)
				}
			}
			st.Close()
			frames.Store(int64(st.Frames()))
		}},
	}, mpi.WithFaultPlan(corruptingPlan()))
	if err != nil {
		t.Fatal(err)
	}
	// Call: 2 seals + 2 unseals. Stream: request seal + unseal, then one
	// seal per frame on the server and one verify per frame on the client.
	want := 4 + 2 + 2*frames.Load()
	if got := n.Load(); got != want {
		t.Fatalf("%d checksums for a call and a %d-frame stream, want %d (one verify per frame)",
			got, frames.Load(), want)
	}
}

// TestStreamShedRecognised: a shed reply still ends or retries a stream
// on both drain paths (fail-stop and timeout), with the CRC on or off,
// and the retried stream arrives intact.
func TestStreamShedRecognised(t *testing.T) {
	const reps, grab = 8, 512
	for _, world := range []struct {
		name string
		opts []mpi.Option
	}{
		{"intact", nil},
		{"corrupting", []mpi.Option{mpi.WithFaultPlan(corruptingPlan())}},
	} {
		for _, mode := range []struct {
			name    string
			timeout time.Duration
		}{{"fail-stop", 0}, {"timeout", time.Second}} {
			t.Run(world.name+"/"+mode.name, func(t *testing.T) {
				pool := buf.NewPool(1024, 16)
				err := mpi.RunWorkflow([]mpi.TaskSpec{
					{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
						c := &Client{IC: p.Intercomm("server"), Timeout: mode.timeout, Retries: 2, ShedRetries: 2}
						var got bytes.Buffer
						if err := c.StartStream(0, []byte("data")).Drain(func(b []byte) error {
							got.Write(b)
							return nil
						}); err != nil {
							t.Errorf("drain after a shed: %v", err)
						}
						if !bytes.Equal(got.Bytes(), wantStream(reps, grab)) {
							t.Errorf("stream after a shed = %d bytes, want identical", got.Len())
						}
						if st := c.Stats(); st.Sheds != 1 || st.Retries != 0 {
							t.Errorf("stats %+v, want exactly one shed and no timed-out retry", st)
						}
					}},
					{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
						s := &Server{IC: p.Intercomm("client")}
						src, seq, _ := s.Recv()
						s.RespondOverloaded(src, seq, time.Millisecond)
						streamServer(p, pool, 1, reps, grab)
					}},
				}, world.opts...)
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestStreamOverSockWorldWithWireCorruption: on a sock world, seeded
// byte flips on the wire are caught by the frame CRC-32C and resent by the
// session, so rpc runs with its own CRC off and still delivers the stream
// byte-identical.
func TestStreamOverSockWorldWithWireCorruption(t *testing.T) {
	// Fewer chunks than the stream has frames: each must come back when
	// its frame is sent.
	streamOverCorruptingSockWorld(t, buf.NewPool(4096, 4), 64, 1024)
}

// TestStreamOverSockWorldWithWireCorruptionHeld is the same stream in
// 1 MiB chunks, which the sock engine sends by reference (held frames):
// the flips must land in a copy of the wire bytes, never in a held chunk,
// and each chunk must still come back within a round trip of its frame.
func TestStreamOverSockWorldWithWireCorruptionHeld(t *testing.T) {
	streamOverCorruptingSockWorld(t, buf.NewPool(1<<20, 4), 64, 256<<10)
}

// streamOverCorruptingSockWorld streams reps grabs of grab bytes from a
// server to a client over a two-rank unix sock world whose server-side
// wire flips bytes, drawing frames from pool. It checks the stream arrives
// byte-identical, that the session resent at least one frame, that rpc ran
// no checksum, and that pool ends empty without overflowing.
func streamOverCorruptingSockWorld(t *testing.T, pool *buf.Pool, reps, grab int) {
	n := countChecksums(t)
	const size = 2
	coord, err := transport.NewCoordinator("unix", t.TempDir()+"/coord.sock", size)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// World rank 1 is the server: its response frames take the flips.
	plan := &mpi.FaultPlan{Seed: 12, Rules: []mpi.FaultRule{
		{Action: mpi.FaultCorrupt, Rank: 1, After: 6, Count: 2},
	}}
	tuning := mpi.SockTuning{
		HandshakeTimeout:  500 * time.Millisecond,
		RetransmitTimeout: 300 * time.Millisecond,
		AckInterval:       5 * time.Millisecond,
	}
	var got bytes.Buffer
	specs := []mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("server")
			if !ic.Intact() {
				t.Error("sock world with a corrupting wire plan reports not intact")
			}
			c := &Client{IC: ic, Timeout: 5 * time.Second, Retries: 2}
			if err := c.StartStream(0, []byte("data")).Drain(func(b []byte) error {
				got.Write(b)
				return nil
			}); err != nil {
				t.Errorf("drain: %v", err)
			}
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			streamServer(p, pool, 1, reps, grab)
		}},
	}
	worlds := make([]*mpi.World, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w, err := mpi.NewSockWorld(mpi.SockWorldConfig{
				Network: "unix", Coord: coord.Addr(), Rank: r, Size: size,
				Wire: plan, Tuning: tuning,
			})
			if err != nil {
				errs[r] = err
				return
			}
			worlds[r] = w
			errs[r] = w.RunWorkflowLocal(specs)
		}(r)
	}
	wg.Wait()
	var resent int64
	for _, w := range worlds {
		if w == nil {
			continue
		}
		if st, ok := w.SockStats(); ok {
			resent += st.ResentFrames
		}
		w.Close()
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if !bytes.Equal(got.Bytes(), wantStream(reps, grab)) {
		t.Fatalf("stream over a corrupting wire = %d bytes, want %d identical", got.Len(), reps*grab)
	}
	if resent == 0 {
		t.Error("no frame was resent: the wire plan never corrupted anything")
	}
	if c := n.Load(); c != 0 {
		t.Errorf("%d rpc checksums ran on an intact sock world, want 0", c)
	}
	if o, ov := pool.Outstanding(), pool.Overflow(); o != 0 || ov != 0 {
		t.Errorf("pool: %d chunks outstanding and %d overflows after the stream, want 0 and 0", o, ov)
	}
}

// BenchmarkStream moves 1 MiB frames from a server to a client on a chan
// world: "intact" runs the rpc path with its CRC off, "corrupting" with it
// on (a FaultCorrupt rule that never fires), so the gap is the cost of
// the checksum passes alone.
func BenchmarkStream(b *testing.B) {
	const frame = 1 << 20
	const frames = 8
	for _, bc := range []struct {
		name string
		opts []mpi.Option
	}{
		{"intact", nil},
		{"corrupting", []mpi.Option{mpi.WithFaultPlan(corruptingPlan())}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pool := buf.NewPool(frame, 4)
			seg := frame - FrameOverhead
			b.SetBytes(int64(frames * seg))
			b.ReportAllocs()
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
					c := &Client{IC: p.Intercomm("server")}
					var got int
					for i := 0; i < b.N; i++ {
						if err := c.StartStream(0, []byte("data")).Drain(func(pl []byte) error {
							got += len(pl)
							return nil
						}); err != nil {
							b.Error(err)
							return
						}
					}
					if got != b.N*frames*seg {
						b.Errorf("drained %d bytes, want %d", got, b.N*frames*seg)
					}
				}},
				{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
					s := &Server{IC: p.Intercomm("client")}
					for i := 0; i < b.N; i++ {
						src, seq, _ := s.Recv()
						st := s.NewStream(src, seq, pool)
						for f := 0; f < frames; f++ {
							st.Grab(seg)
						}
						st.Close()
					}
				}},
			}, bc.opts...)
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
