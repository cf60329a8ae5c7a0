package mpi

import (
	"time"

	"lowfive/trace"
)

// Intercomm connects two disjoint groups of ranks — in workflow terms, two
// tasks, e.g. a producer and a consumer. Point-to-point operations address
// ranks of the *remote* group, exactly like MPI intercommunicators.
type Intercomm struct {
	world  *World
	id     uint64
	local  []int // world ranks of the local group
	remote []int // world ranks of the remote group
	rank   int   // calling rank within the local group
	sideA  bool  // true on the group that was listed first at creation
	inc    uint32
}

// NewIntercomm builds one side's handle of an intercommunicator. localRanks
// and remoteRanks are world ranks; rank is the caller's index in localRanks.
// sideA must be true on exactly one of the two groups (both sides must agree,
// e.g. by ordering the groups deterministically); it disambiguates message
// direction. The id must be identical on both sides and unique per pair.
func NewIntercomm(w *World, id uint64, localRanks, remoteRanks []int, rank int, sideA bool) *Intercomm {
	return &Intercomm{world: w, id: id, local: localRanks, remote: remoteRanks, rank: rank, sideA: sideA}
}

// LocalRank returns the calling rank within the local group.
func (ic *Intercomm) LocalRank() int { return ic.rank }

// LocalSize returns the size of the local group.
func (ic *Intercomm) LocalSize() int { return len(ic.local) }

// RemoteSize returns the size of the remote group.
func (ic *Intercomm) RemoteSize() int { return len(ic.remote) }

// Intact reports whether the world under this intercomm delivers every
// payload intact (World.Intact).
func (ic *Intercomm) Intact() bool { return ic.world.intact }

// DeliversOnce reports whether the world under this intercomm delivers
// each message at most once (World.DeliversOnce).
func (ic *Intercomm) DeliversOnce() bool { return ic.world.once }

// sendID/recvID split the context by direction so that simultaneous traffic
// A→B and B→A with equal (src, tag) never cross-matches.
func (ic *Intercomm) sendID() uint64 {
	if ic.sideA {
		return ic.id
	}
	return ic.id + 1
}

func (ic *Intercomm) recvID() uint64 {
	if ic.sideA {
		return ic.id + 1
	}
	return ic.id
}

// Track returns the calling rank's recording track, or nil when the world
// has no tracer attached.
func (ic *Intercomm) Track() *trace.Track {
	if ic.world.tracer == nil {
		return nil
	}
	return ic.world.tracks[ic.local[ic.rank]]
}

// Send delivers data to rank dest of the remote group. With a tracer
// attached, the span covers the cost-model charge time.
func (ic *Intercomm) Send(dest, tag int, data []byte) {
	tr := ic.Track()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	w := ic.world
	w.opGate(ic.local[ic.rank], ic.inc)
	w.recordSend(ic.local[ic.rank], ic.remote[dest], len(data))
	m := message{CommID: ic.sendID(), Src: ic.rank, WorldSrc: ic.local[ic.rank], Tag: tag, Data: data}
	if w.fault != nil {
		self := ic.local[ic.rank]
		if w.failed[self].Load() {
			panic(rankCrashPanic{rank: self})
		}
		w.faultSend(self, ic.remote[dest], m, tr)
	} else {
		w.deliver(ic.remote[dest], m)
	}
	if tr != nil {
		tr.Span("mpi", "ic.send", t0, time.Now(),
			trace.I64("dst", int64(dest)), trace.I64("tag", int64(tag)),
			trace.I64("bytes", int64(len(data))))
	}
}

// Recv blocks until a message from remote rank src (or AnySource) with the
// given tag (or AnyTag) arrives. With a tracer attached, the span covers
// the time blocked waiting.
func (ic *Intercomm) Recv(src, tag int) ([]byte, Status) {
	data, st, _ := ic.RecvUntil([]int{src}, tag, time.Time{})
	return data, st
}

// RecvUntil receives a message with the given tag (or AnyTag) from any of
// the remote ranks srcs (AnySource matches every one), blocking until one
// arrives or deadline passes; ok is false only when the deadline passed
// first. A zero deadline blocks like Recv; a deadline already passed takes
// only what is queued. However long it waits it is one receive operation,
// for fault injection (OnRecv rules) as for the heartbeat, and the rank
// counts as blocked in a receive throughout. It panics with
// RankFailedError only once every rank of srcs has crashed, so a wait on
// two replicas outlives the death of one; an empty srcs matches nothing
// and waits out the deadline.
func (ic *Intercomm) RecvUntil(srcs []int, tag int, deadline time.Time) ([]byte, Status, bool) {
	m, ok := ic.world.recv(ic.local[ic.rank], ic.recvID(), srcs, ic.remote, tag, ic.inc, deadline, ic.Track(), "ic.recv")
	if !ok {
		return nil, Status{}, false
	}
	return m.Data, Status{Source: m.Src, Tag: m.Tag, Bytes: len(m.Data)}, true
}

// Probe blocks until a matching message from the remote group is available,
// without receiving it.
func (ic *Intercomm) Probe(src, tag int) Status {
	st, _ := ic.world.peek(ic.local[ic.rank], ic.recvID(), src, ic.remote, tag, ic.inc, time.Time{})
	return st
}

// Iprobe reports whether a matching message from the remote group is
// available.
func (ic *Intercomm) Iprobe(src, tag int) (Status, bool) {
	return ic.world.peek(ic.local[ic.rank], ic.recvID(), src, ic.remote, tag, ic.inc, probeNow)
}
