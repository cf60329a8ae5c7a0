package stage

// shardLog is one replica's append-only record sequence. Sequence numbers
// are dense and monotonic; truncation advances firstSeq, so an offset below
// it is provably garbage-collected rather than merely absent. Replicas of
// one shard share their records but not their entries slice.
type shardLog struct {
	firstSeq uint64 // seq of entries[0]
	nextSeq  uint64 // seq the next append receives
	entries  []*Record
}

// append adds r, whose Seq must already be nextSeq.
func (l *shardLog) append(r *Record) {
	l.entries = append(l.entries, r)
	l.nextSeq++
}

// get returns the record at seq, or nil when it is truncated or beyond the
// tail.
func (l *shardLog) get(seq uint64) *Record {
	if seq < l.firstSeq || seq >= l.nextSeq {
		return nil
	}
	return l.entries[seq-l.firstSeq]
}

// truncateBefore drops every record with seq < seq, returning how many were
// dropped. A seq past the tail truncates to the tail.
func (l *shardLog) truncateBefore(seq uint64) int {
	if seq <= l.firstSeq {
		return 0
	}
	if seq > l.nextSeq {
		seq = l.nextSeq
	}
	n := int(seq - l.firstSeq)
	l.entries = append([]*Record(nil), l.entries[n:]...)
	l.firstSeq = seq
	return n
}
