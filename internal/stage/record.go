// Package stage implements a log-structured, epoch-versioned staging store:
// the middle tier between producers and consumers that the ADIOS line of
// streaming papers calls a staging area. Staging is a single-process model:
// one Store is state that every rank of its process shares, with no wire
// protocol of its own (dedicated staging ranks across processes are what
// the DataSpaces baseline models). Every producer shard is an append-only
// log of records — epoch-begin, chunk, epoch-commit — kept in lockstep
// replicas with monotonically sequenced, acked appends, so a failed leader
// is replaced by the highest-acked survivor. Restarted ranks and late
// consumers catch up by replaying the tail of the log from their last known
// offset instead of re-serving the producer, and retention is driven by
// subscriber ack watermarks with the PFS container file as the
// low-watermark fallback.
package stage

import "lowfive/internal/grid"

// Record types, in the order they appear within one epoch span.
const (
	// RecEpochBegin opens an epoch: its payload carries the encoded
	// metadata tree (the snapshot part of snapshot + tail).
	RecEpochBegin uint8 = 1
	// RecChunk carries one contiguous box of packed dataset bytes.
	RecChunk uint8 = 2
	// RecEpochCommit seals an epoch; its chunk count lets replay verify
	// the span is whole.
	RecEpochCommit uint8 = 3
)

// Record is one log entry. A record is immutable once appended: every
// replica of its shard holds the same *Record, and the store owns its
// Meta and Data bytes.
type Record struct {
	Type  uint8
	Seq   uint64 // log sequence number, assigned at append
	Epoch int64  // store epoch this record belongs to
	Rank  int    // producer rank that owns the shard

	// RecEpochBegin
	Meta []byte // encoded metadata tree

	// RecChunk
	Dataset string
	Box     grid.Box
	Data    []byte // packed bytes in Box row-major order

	// RecEpochCommit
	Chunks int64 // number of chunk records in the span
}

// size is the record's payload volume: its Meta and Data bytes.
func (r *Record) size() int64 { return int64(len(r.Meta) + len(r.Data)) }
