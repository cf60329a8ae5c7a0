// Package rankmain is the rank-process entry point of the sock transport:
// the deterministic producer→consumer workload one lowfive-rank process
// (or a re-exec'd test binary) runs as its share of a multi-process
// world. The workload is designed so the harness can prove transport
// equivalence and restart correctness end to end:
//
//   - Every payload is a pure function of (seed, producer, consumer,
//     epoch), so a consumer's digest over a complete run is bit-identical
//     whether frames moved in-proc or over sockets, and whatever order
//     they arrived in.
//   - A producer re-sends every epoch from the top when it is respawned,
//     and consumers deduplicate by (producer, epoch), so a SIGKILLed and
//     restarted producer converges to the exact same digest.
//   - Consumers receive producer-by-producer and treat RankFailedError as
//     "wait for the supervisor to respawn the peer", with a deadline, so
//     a kill mid-stream stalls the consumer instead of failing it.
package rankmain

import (
	"fmt"
	"hash/fnv"
	"time"

	"lowfive/mpi"
)

// Spec sizes the workload. The world has Producers+Consumers ranks:
// producers are world ranks [0,Producers), consumers follow.
type Spec struct {
	// Producers and Consumers are the two group sizes.
	Producers, Consumers int
	// Epochs is how many timesteps each producer publishes.
	Epochs int
	// SliceBytes is the payload size of one (producer, consumer, epoch)
	// piece.
	SliceBytes int
	// Seed derives every payload byte.
	Seed int64
	// PaceMs is the per-epoch pause on each producer, stretching the send
	// phase so a kill lands mid-stream.
	PaceMs int
	// ToleranceMs is how long a consumer waits for a dead producer to be
	// respawned before giving up (default 20s).
	ToleranceMs int
	// Workload selects the traffic: "" or "digest" for raw tagged slices
	// (restart-protocol testing), "vol" for the full distributed-metadata
	// VOL exchange per epoch (transport-transparency testing). In vol
	// mode GridPoints/Particles size the per-producer data and SliceBytes
	// is unused.
	Workload              string
	GridPoints, Particles int64
	// Wire injects seeded faults into every rank process's outgoing
	// connection writes (mpi.SockWorldConfig.Wire, which validates it); it
	// rides the child-process environment as part of the spec.
	Wire *mpi.FaultPlan `json:"wire,omitempty"`
	// FastRecovery tightens the sock engine's recovery timings so fault
	// cases tear/redial/resend in milliseconds.
	FastRecovery bool
}

// sockTuning maps FastRecovery onto the transport timing overrides.
func (s Spec) sockTuning() mpi.SockTuning {
	if !s.FastRecovery {
		return mpi.SockTuning{}
	}
	return mpi.SockTuning{
		HandshakeTimeout:  500 * time.Millisecond,
		RetransmitTimeout: 300 * time.Millisecond,
		AckInterval:       5 * time.Millisecond,
	}
}

// WorldSize is the total rank count of the workload's world.
func (s Spec) WorldSize() int { return s.Producers + s.Consumers }

// IsConsumer reports whether a world rank belongs to the consumer group.
func (s Spec) IsConsumer(worldRank int) bool { return worldRank >= s.Producers }

func (s Spec) tolerance() time.Duration {
	if s.ToleranceMs <= 0 {
		return 20 * time.Second
	}
	return time.Duration(s.ToleranceMs) * time.Millisecond
}

// slice generates the deterministic payload producer p sends consumer c
// (consumer group index) at epoch e: a splitmix-style stream keyed by
// (Seed, p, c, e).
func (s Spec) slice(p, c, e int) []byte {
	out := make([]byte, s.SliceBytes)
	x := uint64(s.Seed)*0x9e3779b97f4a7c15 ^
		uint64(p+1)*0xbf58476d1ce4e5b9 ^
		uint64(c+1)*0x94d049bb133111eb ^
		uint64(e+1)*0xd6e8feb86659fd93
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// pieceHash hashes one received piece with its identity; consumers sum
// piece hashes, which is order-independent (arrival order differs between
// engines) yet sensitive to every payload byte.
func pieceHash(producer, epoch int, data []byte) uint64 {
	h := fnv.New64a()
	var hdr [16]byte
	for i := 0; i < 8; i++ {
		hdr[i] = byte(producer >> (8 * i))
		hdr[8+i] = byte(epoch >> (8 * i))
	}
	h.Write(hdr[:])
	h.Write(data)
	return h.Sum64()
}

// Digest is the order-independent accumulation of a consumer's pieces.
func digestOf(pieces map[[2]int]uint64) uint64 {
	var d uint64
	for _, h := range pieces {
		d += h
	}
	return d
}

// producerMain publishes all epochs to every consumer. A respawned
// producer runs the identical loop — resending everything is the restart
// protocol; consumers deduplicate.
func (s Spec) producerMain(c *mpi.Comm) {
	p := c.Rank()
	for e := 0; e < s.Epochs; e++ {
		for ci := 0; ci < s.Consumers; ci++ {
			c.Send(s.Producers+ci, e, s.slice(p, ci, e))
		}
		if s.PaceMs > 0 {
			time.Sleep(time.Duration(s.PaceMs) * time.Millisecond)
		}
	}
}

// consumerMain collects Epochs pieces from every producer, tolerating
// producer death while a respawn is pending, and returns the digest.
func (s Spec) consumerMain(w *mpi.World, c *mpi.Comm) (uint64, error) {
	ci := c.Rank() - s.Producers
	pieces := make(map[[2]int]uint64, s.Producers*s.Epochs)
	deadline := time.Now().Add(s.tolerance())
	for p := 0; p < s.Producers; p++ {
		have := 0
		for have < s.Epochs {
			data, st, err := s.recvTolerant(w, c, p, deadline)
			if err != nil {
				return 0, fmt.Errorf("consumer %d: %w", ci, err)
			}
			key := [2]int{p, st.Tag}
			if _, dup := pieces[key]; dup {
				continue // an epoch re-sent by a respawned producer
			}
			pieces[key] = pieceHash(p, st.Tag, data)
			have++
		}
	}
	return digestOf(pieces), nil
}

// recvTolerant receives the next message from producer p, converting the
// RankFailedError panic of a dead producer into a bounded wait for its
// respawn. While waiting it keeps polling the mailbox: a producer that
// exited cleanly races its last frames (still in the socket buffer)
// against the coordinator's death broadcast, and those frames must win.
func (s Spec) recvTolerant(w *mpi.World, c *mpi.Comm, p int, deadline time.Time) (data []byte, st mpi.Status, err error) {
	for {
		failed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if rf, ok := r.(*mpi.RankFailedError); ok && rf.Rank == p {
						failed = true
						return
					}
					panic(r)
				}
			}()
			data, st = c.Recv(p, mpi.AnyTag)
		}()
		if !failed {
			return data, st, nil
		}
		// The producer is (currently) dead. Poll for either a late frame
		// already delivered, or the revive that follows a respawn.
		for {
			got := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(*mpi.RankFailedError); ok {
							return // still dead, nothing queued
						}
						panic(r)
					}
				}()
				if _, ok := c.Iprobe(p, mpi.AnyTag); ok {
					data, st = c.Recv(p, mpi.AnyTag)
					got = true
				}
			}()
			if got {
				return data, st, nil
			}
			if !w.RankFailed(p) {
				break // revived: back to blocking receive
			}
			if time.Now().After(deadline) {
				return nil, st, fmt.Errorf("producer %d dead and not respawned in time", p)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// RunChan runs the whole workload in-proc over the chan engine and
// returns the per-consumer digests: the bit-identical reference the sock
// run must reproduce.
func RunChan(s Spec) ([]uint64, error) {
	w := mpi.NewWorld(s.WorldSize())
	digests := make([]uint64, s.Consumers)
	errs := make([]error, s.Consumers)
	err := w.Run(func(c *mpi.Comm) {
		if !s.IsConsumer(c.Rank()) {
			s.producerMain(c)
			return
		}
		ci := c.Rank() - s.Producers
		digests[ci], errs[ci] = s.consumerMain(w, c)
	})
	if err != nil {
		return nil, err
	}
	for ci, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("consumer %d: %w", ci, e)
		}
	}
	return digests, nil
}

// RunSockRank runs one world rank of the workload in this process as a
// sock-world member: rendezvous, run, close. For consumers it returns the
// digest; producers return 0. The returned stats snapshot (taken before
// the world closes) carries the transport's recovery counters.
func RunSockRank(s Spec, network, coord string, rank int, inc uint32) (uint64, mpi.SockStats, error) {
	w, err := mpi.NewSockWorld(mpi.SockWorldConfig{
		Network: network, Coord: coord, Rank: rank, Size: s.WorldSize(), Inc: inc,
		Wire: s.Wire, Tuning: s.sockTuning(),
	})
	if err != nil {
		return 0, mpi.SockStats{}, err
	}
	defer w.Close()
	var digest uint64
	var workErr error
	var runErr error
	if s.Workload == "vol" {
		runErr = w.RunWorkflowLocal(s.volTaskSpecs(
			func(err error) {
				if err != nil && workErr == nil {
					workErr = err
				}
			},
			func(ci int, d uint64) { digest = d },
		))
	} else {
		runErr = w.RunLocal(func(c *mpi.Comm) {
			if !s.IsConsumer(rank) {
				s.producerMain(c)
				return
			}
			digest, workErr = s.consumerMain(w, c)
		})
	}
	st, _ := w.SockStats()
	if runErr != nil {
		return 0, st, runErr
	}
	return digest, st, workErr
}
