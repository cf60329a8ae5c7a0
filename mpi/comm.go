package mpi

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"lowfive/trace"
)

const worldCommID uint64 = 1

// Comm is an intracommunicator: an ordered group of ranks that can exchange
// point-to-point messages and run collectives. Like an MPI handle, a Comm
// value is local to one rank; every rank of the group holds its own handle.
type Comm struct {
	world *World
	id    uint64
	ranks []int // world ranks of the members, shared (read-only) by all handles
	rank  int   // this handle's rank within the group

	collSeq uint64 // per-handle collective sequence; identical across ranks by the usual MPI ordering requirement
	inc     uint32 // incarnation of the owning rank this handle belongs to (supervised worlds)
}

// Rank returns the calling rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// World returns the underlying world.
func (c *Comm) World() *World { return c.world }

// WorldRank returns the world rank of a communicator-local rank.
func (c *Comm) WorldRank(rank int) int { return c.ranks[rank] }

func (c *Comm) checkRank(rank int) {
	if rank < 0 || rank >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, len(c.ranks)))
	}
}

// Track returns the calling rank's recording track, or nil when the world
// has no tracer attached. Layers built on top of mpi (the VOL stack) pull
// their per-rank track from here, so one WithTracer option instruments the
// whole workflow.
func (c *Comm) Track() *trace.Track {
	if c.world.tracer == nil {
		return nil
	}
	return c.world.tracks[c.ranks[c.rank]]
}

// Send delivers data to dest with the given tag. It is buffered and does not
// wait for a matching receive. Ownership of data passes to the runtime: the
// caller must not modify the slice after sending.
//
// With a tracer attached, the span covers the cost-model charge time the
// sender pays before the message becomes visible.
func (c *Comm) Send(dest, tag int, data []byte) {
	c.checkRank(dest)
	tr := c.Track()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	w := c.world
	w.opGate(c.ranks[c.rank], c.inc)
	w.recordSend(c.ranks[c.rank], c.ranks[dest], len(data))
	m := message{CommID: c.id, Src: c.rank, WorldSrc: c.ranks[c.rank], Tag: tag, Data: data}
	if w.fault != nil {
		self := c.ranks[c.rank]
		if w.failed[self].Load() {
			panic(rankCrashPanic{rank: self})
		}
		w.faultSend(self, c.ranks[dest], m, tr)
	} else {
		w.deliver(c.ranks[dest], m)
	}
	if tr != nil {
		tr.Span("mpi", "send", t0, time.Now(),
			trace.I64("dst", int64(dest)), trace.I64("tag", int64(tag)),
			trace.I64("bytes", int64(len(data))))
	}
}

// Request represents an in-flight nonblocking operation.
type Request struct {
	done chan struct{}
	err  error // written once before done closes
}

// Wait blocks until the operation completes and returns how it ended: nil
// for a delivered send, or the typed failure (*RankFailedError for an
// injected crash of the sending rank, *AbortedError for a world abort)
// that interrupted it. Callers that do not care may ignore the result —
// the sending rank's own goroutine still observes its failure at its next
// operation either way.
func (r *Request) Wait() error {
	<-r.done
	return r.err
}

// WaitAll waits for every request in the slice and returns the first
// non-nil completion error, if any.
func WaitAll(reqs []*Request) error {
	var first error
	for _, r := range reqs {
		if err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Isend starts a nonblocking send and returns a request. The payload must
// not be modified until the request completes.
func (c *Comm) Isend(dest, tag int, data []byte) *Request {
	c.checkRank(dest)
	req := &Request{done: make(chan struct{})}
	if c.world.cost == nil {
		// Without a cost model the send is immediate; avoid a goroutine.
		c.Send(dest, tag, data)
		close(req.done)
		return req
	}
	go func() {
		defer close(req.done)
		// The helper goroutine acts on behalf of the sending rank; if an
		// injected crash or a world abort fires inside Send, it must not
		// crash the process — but it must not vanish either. The halt
		// panic becomes the request's typed completion error, surfaced on
		// Wait; anything else is a real bug and repanics.
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			switch p := rec.(type) {
			case rankCrashPanic:
				req.err = &RankFailedError{Rank: p.rank}
			case *RankFailedError:
				req.err = p
			case *AbortedError:
				req.err = p
			default:
				panic(rec)
			}
		}()
		c.Send(dest, tag, data)
	}()
	return req
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload. src may be AnySource and tag may be AnyTag.
//
// With a tracer attached, the span covers the time blocked waiting for the
// matching message.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	if src != AnySource {
		c.checkRank(src)
	}
	m, _ := c.world.recv(c.ranks[c.rank], c.id, []int{src}, c.ranks, tag, c.inc, time.Time{}, c.Track(), "recv")
	return m.Data, Status{Source: m.Src, Tag: m.Tag, Bytes: len(m.Data)}
}

// Probe blocks until a message matching (src, tag) is available, without
// receiving it.
func (c *Comm) Probe(src, tag int) Status {
	if src != AnySource {
		c.checkRank(src)
	}
	st, _ := c.world.peek(c.ranks[c.rank], c.id, src, c.ranks, tag, c.inc, time.Time{})
	return st
}

// Iprobe reports whether a message matching (src, tag) is available.
func (c *Comm) Iprobe(src, tag int) (Status, bool) {
	if src != AnySource {
		c.checkRank(src)
	}
	return c.world.peek(c.ranks[c.rank], c.id, src, c.ranks, tag, c.inc, probeNow)
}

// deriveID computes a child communicator id that every member arrives at
// independently but identically: a hash of the parent id, the parent's
// collective sequence number, and a discriminator (e.g. split color).
func deriveID(parent uint64, seq uint64, kind string, discriminator int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], parent)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], seq)
	h.Write(buf[:])
	h.Write([]byte(kind))
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(discriminator)))
	h.Write(buf[:])
	id := h.Sum64()
	if id <= worldCommID {
		id = worldCommID + 1
	}
	return id
}

// Dup returns a communicator with the same group but a distinct message
// context, so traffic on the duplicate never matches traffic on the parent.
func (c *Comm) Dup() *Comm {
	c.collSeq++
	seq := c.collSeq
	// Dup is collective; synchronize like a barrier so no rank races ahead
	// and sends on the duplicate before everyone has derived it.
	c.barrier(seq)
	return &Comm{world: c.world, id: deriveID(c.id, seq, "dup", 0), ranks: c.ranks, rank: c.rank, inc: c.inc}
}

// Split partitions the communicator by color. Ranks passing the same color
// end up in the same new communicator, ordered by key and then by parent
// rank. A negative color returns nil (MPI_UNDEFINED).
func (c *Comm) Split(color, key int) *Comm {
	c.collSeq++
	seq := c.collSeq
	// Exchange (color, key) among all ranks.
	mine := make([]byte, 16)
	binary.LittleEndian.PutUint64(mine[0:], uint64(int64(color)))
	binary.LittleEndian.PutUint64(mine[8:], uint64(int64(key)))
	all := c.allgatherInternal(seq, mine)
	type member struct{ color, key, rank int }
	var members []member
	for r, b := range all {
		col := int(int64(binary.LittleEndian.Uint64(b[0:])))
		k := int(int64(binary.LittleEndian.Uint64(b[8:])))
		members = append(members, member{col, k, r})
	}
	if color < 0 {
		return nil
	}
	var group []member
	for _, m := range members {
		if m.color == color {
			group = append(group, m)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	ranks := make([]int, len(group))
	myRank := -1
	for i, m := range group {
		ranks[i] = c.ranks[m.rank]
		if m.rank == c.rank {
			myRank = i
		}
	}
	return &Comm{world: c.world, id: deriveID(c.id, seq, "split", color), ranks: ranks, rank: myRank, inc: c.inc}
}
