package rpc

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"lowfive/internal/buf"
	"lowfive/mpi"
)

// TestNotificationIsNeverAnswered: a notification gets no response on any
// answer path — a handler that responds (as core's done handler does), a
// shed, and a streamed answer — so after the notifications and a following
// call the client's mailbox holds no response, on an intact world and on
// one with the CRC on.
func TestNotificationIsNeverAnswered(t *testing.T) {
	for _, world := range []struct {
		name string
		opts []mpi.Option
	}{
		{"intact", nil},
		{"corrupting", []mpi.Option{mpi.WithFaultPlan(corruptingPlan())}},
	} {
		t.Run(world.name, func(t *testing.T) {
			pool := buf.NewPool(1024, 4)
			var done int
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
					c := &Client{IC: p.Intercomm("server"), Timeout: 5 * time.Second, Retries: 1}
					c.Notify(0, []byte("done"))
					c.Notify(0, []byte("shed"))
					c.Notify(0, []byte("stream"))
					resp, err := c.Call(0, []byte("x"))
					if err != nil {
						// The server swallowed the call and waits for more:
						// wake it instead of hanging.
						p.World.World().Abort(err)
						return
					}
					if string(resp) != "ack" {
						t.Errorf("call after the notifications = %q", resp)
					}
					if st, ok := c.IC.Iprobe(mpi.AnySource, TagResponse); ok {
						t.Errorf("a response from rank %d waits unread after the call: a notification was answered", st.Source)
					}
				}},
				{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
					s := &Server{IC: p.Intercomm("client"), Handler: func(src int, req []byte) ([]byte, bool) {
						if string(req) == "done" {
							done++
							return []byte{1}, true
						}
						return []byte("ack"), true
					}}
					s.ServeOne()
					src, seq, _ := s.Recv()
					s.RespondOverloaded(src, seq, time.Millisecond)
					src, seq, _ = s.Recv()
					st := s.NewStream(src, seq, pool)
					st.Grab(st.MaxSegment())
					st.Grab(16)
					st.Close()
					if st.Frames() != 0 {
						t.Errorf("a stream answering a notification sent %d frames", st.Frames())
					}
					s.ServeOne()
				}},
			}, world.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if done != 1 {
				t.Errorf("done handled %d times, want 1", done)
			}
			if pool.Outstanding() != 0 {
				t.Errorf("a stream answering a notification leaked %d chunks", pool.Outstanding())
			}
		})
	}
}

// TestNotificationsInterleavedWithCalls: with every request duplicated,
// 3×dedupWindow notifications interleaved with calls are each dispatched
// once, every call is answered, and no duplicate of a notification is
// answered from the dedup cache. The notification's mark must not reach
// the dedup window: if it did, the window's newest seq would jump to 2^63
// and every later call would be swallowed as an ancient duplicate.
func TestNotificationsInterleavedWithCalls(t *testing.T) {
	const rounds = 3 * dedupWindow
	plan := mpi.FaultPlan{Seed: 5, Rules: []mpi.FaultRule{
		{Action: mpi.FaultDuplicate, Rank: 0, Tag: TagRequest},
	}}
	dispatched := map[string]int{}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			c := &Client{IC: p.Intercomm("server"), Timeout: 5 * time.Second, Retries: 1}
			notified := map[uint64]bool{}
			notify := func(body string) {
				c.Notify(0, []byte(body))
				notified[c.seq] = true
			}
			for i := 0; i < rounds; i++ {
				notify(fmt.Sprintf("n%d", i))
				body := fmt.Sprintf("c%d", i)
				resp, err := c.Call(0, []byte(body))
				if err != nil {
					p.World.World().Abort(fmt.Errorf("call %d: %w", i, err))
					return
				}
				if string(resp) != "ack:"+body {
					t.Errorf("call %d answered %q", i, resp)
				}
			}
			// The last notification's duplicate reaches the server's replay
			// path only when the next request arrives; read every response
			// that precedes the answer to that request off the wire.
			notify("last")
			end := c.nextSeq()
			c.IC.Send(0, TagRequest, seal(c.IC.Intact(), end, 0, []byte("end")))
			for {
				msg, _ := c.IC.Recv(0, TagResponse)
				seq, _, _, ok := unseal(c.IC.Intact(), msg)
				if !ok {
					t.Fatal("a response failed to unseal on a world that does not corrupt")
				}
				if seq&notifyBit != 0 || notified[seq] {
					t.Errorf("notification seq %#x was answered", seq)
				}
				if seq == end {
					break
				}
			}
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			var ended bool
			s := &Server{IC: p.Intercomm("client"), Handler: func(src int, req []byte) ([]byte, bool) {
				dispatched[string(req)]++
				ended = string(req) == "end"
				return append([]byte("ack:"), req...), true
			}}
			for !ended {
				s.ServeOne()
			}
		}},
	}, mpi.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*rounds + 2; len(dispatched) != want {
		t.Errorf("%d distinct requests dispatched, want %d", len(dispatched), want)
	}
	for body, n := range dispatched {
		if n != 1 {
			t.Errorf("%q dispatched %d times, want once", body, n)
		}
	}
}

// TestEnvelopeCRCCoversSeq: on a world that can corrupt, flipping any one
// bit of an envelope's seq — a scalar envelope's or a stream frame's —
// makes unseal report it lost, so a flipped notification mark can never
// turn a call into a notification, and each envelope still costs one
// checksum pass to seal and one to verify. An intact world runs none.
func TestEnvelopeCRCCoversSeq(t *testing.T) {
	n := countChecksums(t)
	flipSeq := func(t *testing.T, intact bool, env []byte) {
		t.Helper()
		for bit := 0; bit < 64; bit++ {
			bad := append([]byte(nil), env...)
			bad[bit/8] ^= 1 << (bit % 8)
			if _, _, _, ok := unseal(intact, bad); ok == !intact {
				t.Errorf("intact=%v: seq bit %d flipped, unseal ok=%v", intact, bit, ok)
			}
		}
	}
	for _, seq := range []uint64{7, 7 | notifyBit} {
		env := seal(false, seq, 12345, []byte("body"))
		if got, dl, body, ok := unseal(false, env); !ok || got != seq || dl != 12345 || string(body) != "body" {
			t.Fatalf("unseal(seal(%#x)) = %#x, %d, %q, %v", seq, got, dl, body, ok)
		}
		flipSeq(t, false, env)
	}
	if got, want := n.Load(), int64(2*(2+64)); got != want {
		t.Errorf("%d checksum passes for 2 seals and 2×65 verifies, want %d", got, want)
	}

	n.Store(0)
	flipSeq(t, true, seal(true, 7, 0, []byte("body")))
	if got := n.Load(); got != 0 {
		t.Errorf("%d checksum passes on an intact world, want 0", got)
	}

	pool := buf.NewPool(1024, 4)
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			c := &Client{IC: p.Intercomm("server")}
			sc := c.StartStream(0, []byte("data"))
			frame, _ := c.IC.Recv(0, TagResponse)
			if seq, _, _, ok := unseal(false, frame); !ok || seq != sc.seq {
				t.Errorf("stream frame unsealed as seq %d ok=%v, want %d", seq, ok, sc.seq)
			}
			if binary.LittleEndian.Uint32(frame[headerLen:]) != 0 || frame[headerLen+4]&flagLast == 0 {
				t.Error("want the stream's single, last frame")
			}
			flipSeq(t, false, frame)
			buf.Release(frame)
		}},
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			streamServer(p, pool, 1, 1, 64)
		}},
	}, mpi.WithFaultPlan(corruptingPlan()))
	if err != nil {
		t.Fatal(err)
	}
}
