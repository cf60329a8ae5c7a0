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
	m := &message{CommID: ic.sendID(), Src: ic.rank, WorldSrc: ic.local[ic.rank], Tag: tag, Data: data}
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
	tr := ic.Track()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	self := ic.local[ic.rank]
	ic.world.opGate(self, ic.inc)
	if ic.world.fault != nil {
		ic.world.injectRecv(self, tag, tr)
	}
	m := ic.world.boxes[self].take(ic.world, self, ic.recvID(), src, tag, ic.worldSrc(src), ic.inc, true)
	if tr != nil {
		tr.Span("mpi", "ic.recv", t0, time.Now(),
			trace.I64("src", int64(m.Src)), trace.I64("tag", int64(m.Tag)),
			trace.I64("bytes", int64(len(m.Data))))
	}
	return m.Data, Status{Source: m.Src, Tag: m.Tag, Bytes: len(m.Data)}
}

// TryRecv receives a matching message from the remote group if one is
// already queued, without blocking. The RPC client's timeout path polls
// with it so a lost reply surfaces as a timeout instead of a hang.
func (ic *Intercomm) TryRecv(src, tag int) ([]byte, Status, bool) {
	self := ic.local[ic.rank]
	ic.world.opGate(self, ic.inc)
	m := ic.world.boxes[self].tryTake(ic.world, self, ic.recvID(), src, tag, ic.worldSrc(src), ic.inc, true)
	if m == nil {
		return nil, Status{}, false
	}
	return m.Data, Status{Source: m.Src, Tag: m.Tag, Bytes: len(m.Data)}, true
}

// Probe blocks until a matching message from the remote group is available,
// without receiving it.
func (ic *Intercomm) Probe(src, tag int) Status {
	self := ic.local[ic.rank]
	ic.world.opGate(self, ic.inc)
	m := ic.world.boxes[self].take(ic.world, self, ic.recvID(), src, tag, ic.worldSrc(src), ic.inc, false)
	return Status{Source: m.Src, Tag: m.Tag, Bytes: len(m.Data)}
}

// Iprobe reports whether a matching message from the remote group is
// available.
func (ic *Intercomm) Iprobe(src, tag int) (Status, bool) {
	self := ic.local[ic.rank]
	ic.world.opGate(self, ic.inc)
	m := ic.world.boxes[self].tryTake(ic.world, self, ic.recvID(), src, tag, ic.worldSrc(src), ic.inc, false)
	if m == nil {
		return Status{}, false
	}
	return Status{Source: m.Src, Tag: m.Tag, Bytes: len(m.Data)}, true
}

// worldSrc maps a remote-group source rank to its world rank, or -1 for
// AnySource.
func (ic *Intercomm) worldSrc(src int) int {
	if src == AnySource {
		return -1
	}
	return ic.remote[src]
}
