// Package mpi provides an MPI-style message-passing runtime in which every
// rank is a goroutine inside a single process.
//
// The package reproduces the MPI semantics that in situ transport layers are
// built on: tagged point-to-point messages with source/tag wildcards,
// nonblocking sends, probing, binomial-tree collectives, communicator
// splitting, and intercommunicators between task groups. An MPMD launcher
// (RunWorkflow) starts several named tasks — separate "executables" in the
// paper's terminology — inside one world and wires intercommunicators
// between them, mirroring how a workflow system launches coupled jobs.
//
// A configurable latency/bandwidth cost model (WithCostModel) charges each
// message an injection delay of alpha + bytes/beta, which is how the
// benchmark harness recreates an HPC interconnect regime on a laptop.
//
// Semantics notes, chosen to match the way MPI is used by LowFive:
//
//   - Send is buffered: it never blocks waiting for a matching receive. The
//     payload slice is handed off to the runtime; the caller must not modify
//     it afterwards (this is what makes zero-copy serves meaningful).
//   - Message order is preserved pairwise per (communicator, source, tag),
//     as MPI guarantees.
//   - Collectives must be called in the same order by all ranks of a
//     communicator, as in MPI. User tags must be non-negative; negative tags
//     are reserved for internal collective traffic.
package mpi

// AnySource matches messages from any source rank in Recv and Probe.
const AnySource = -1

// AnyTag matches messages with any non-negative (user) tag in Recv and
// Probe, and every user tag in FaultRule.Tag.
const AnyTag = -1

// Status describes a matched message.
type Status struct {
	// Source is the rank the message was sent from, local to the
	// communicator it was sent on.
	Source int
	// Tag is the tag the message was sent with.
	Tag int
	// Bytes is the payload length.
	Bytes int
}
