// Package transport is the message-delivery engine beneath the mpi
// package's World: the seam that decides whether ranks are goroutines
// exchanging pointers inside one process or separate OS processes
// exchanging CRC-framed bytes over real sockets.
//
// Two engines implement the Transport interface:
//
//   - Chan: the in-proc channel delivery extracted from the original
//     goroutine runtime. Frames move by value and their payloads by
//     reference (zero copies, no allocation per frame), the α–β
//     cost model charges the sending goroutine before the frame becomes
//     visible, and delivery is synchronous. This is the fast-test and
//     fault-simulation backend.
//   - Sock: every rank is its own OS process. Ranks rendezvous through a
//     tiny Coordinator (rank↔address registry with a world barrier on
//     join), frames travel length-prefixed and CRC32C-checked over TCP or
//     Unix sockets with one reused connection per outgoing peer, and a
//     dead peer surfaces as a typed PeerDeadError that the mpi layer maps
//     onto its existing RankFailedError/supervision machinery.
//
// The split mirrors ADIOS SST's engine architecture: one API above,
// swappable in-memory vs network engines below.
package transport

import "fmt"

// Frame is one transport-level message: the communicator context it was
// sent on, the sender's rank local to that communicator, the sender's
// world rank, the user tag and the payload. It is both the in-memory
// mailbox record of the chan engine and the unit of the sock engine's
// wire format. Frames travel by value through Send, DeliverFunc and the
// mailbox, so sending one allocates nothing; only Data is shared.
type Frame struct {
	// CommID is the communicator context the frame belongs to; receives
	// only match frames of their own communicator.
	CommID uint64
	// Src is the sender's rank local to CommID's group (what Status
	// reports as Source).
	Src int
	// WorldSrc is the sender's world rank: the routing/accounting
	// identity (LinkBytes matrix, peer-death attribution).
	WorldSrc int
	// Tag is the message tag. User tags are non-negative; internal
	// collective traffic uses reserved negative tags, so the wire format
	// carries tags as full signed 64-bit values.
	Tag int
	// Data is the payload. Ownership passes with the frame, and the
	// receiver releases what it is handed (buf.Release) on either engine.
	// The chan engine delivers the very slice the sender passed. The sock
	// engine holds a pooled payload of 64 KiB or more by reference until
	// the peer acks it, and its receiver reads it into a chunk of the
	// receiving Sock's own pool; any other payload it copies onto the wire
	// and releases inside Send, and its receiver gets a fresh slice. A sock
	// self-send is delivered by reference.
	Data []byte
}

// DeliverFunc hands an inbound sock-engine frame to the local runtime for
// world rank dst; the frame is the callee's to keep. Implementations must
// be safe for concurrent use: the sock engine calls it from one reader
// goroutine per peer connection.
type DeliverFunc func(dst int, f *Frame)

// Transport moves frames between world ranks. Send is fire-and-forget
// (MPI buffered-send semantics): a nil error means the frame was accepted
// for delivery, not that it arrived, and the caller no longer owns the
// payload — Chan hands it to the receiver; Sock keeps a large pooled
// payload in its retransmit queue until the peer acks it and has released
// any other (or, on a self-send, handed it to the receiver). Either way
// the caller must not touch the payload again. A non-nil error is always a
// *PeerDeadError naming the unreachable destination; the caller owns the
// frame's payload again and decides whether to release it.
//
// The frame itself moves by value, so a send through the interface
// allocates nothing for it. Chan implements Transport directly. Sock's own
// Send takes a *Frame, which it does not keep past the call, and the mpi
// layer wraps it (mpi/sockworld.go).
type Transport interface {
	// Send ships f to world rank dst.
	Send(dst int, f Frame) error
	// Close shuts the engine down and releases its resources (sockets,
	// listeners, coordinator registration). Safe to call more than once.
	Close() error
}

// PeerDeadError is the typed send/dial failure for an unreachable rank:
// its process exited, its connection broke, or the coordinator announced
// its death. The mpi layer maps it onto RankFailedError so receivers
// blocked on the dead peer fail fast.
type PeerDeadError struct {
	// Rank is the world rank that is unreachable.
	Rank int
	// Err is the underlying network error, if any.
	Err error
}

func (e *PeerDeadError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("transport: peer rank %d dead: %v", e.Rank, e.Err)
	}
	return fmt.Sprintf("transport: peer rank %d dead", e.Rank)
}

func (e *PeerDeadError) Unwrap() error { return e.Err }
