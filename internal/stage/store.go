package stage

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lowfive/internal/grid"
	"lowfive/metrics"
)

// Store-level typed errors.
var (
	// ErrEpochTruncated reports a query or replay of an epoch the GC has
	// truncated; callers fall back to the PFS container file.
	ErrEpochTruncated = errors.New("stage: epoch truncated from log")
	// ErrNoEpoch reports an epoch that was never committed for the file.
	ErrNoEpoch = errors.New("stage: no such committed epoch")
	// ErrAckRegression reports a subscriber ack below its previous ack;
	// watermarks only move forward.
	ErrAckRegression = errors.New("stage: subscriber ack regression")
	// ErrShardDown reports a shard with no live replica left.
	ErrShardDown = errors.New("stage: no live replica for shard")
	// ErrWaitCommit reports a WaitCommitted that ran out its budget.
	ErrWaitCommit = errors.New("stage: timed out waiting for committed epoch")
)

// Options configures a Store.
type Options struct {
	// Replicas is the follower count F; every shard keeps 1+F log copies.
	// Zero or negative defaults to 1 follower.
	Replicas int
	// Metrics receives log/replay/watermark instruments when non-nil.
	Metrics *metrics.Registry
	// AutoGC truncates acked epochs eagerly on every subscriber ack.
	AutoGC bool
	// OnCommit, when set, runs synchronously inside Commit after the
	// commit record is replicated but before the epoch becomes visible to
	// consumers. The harness uses it to inject replica faults and
	// crash-during-commit at a deterministic point.
	OnCommit func(file string, rank int, epoch int64)
}

// Chunk is one queried or replayed data extent.
type Chunk struct {
	Dataset string
	Box     grid.Box
	Data    []byte
}

// ReplayData is the result of replaying one shard's latest committed span:
// the epoch-begin metadata snapshot plus the chunk tail.
type ReplayData struct {
	Epoch   int64
	Meta    []byte
	Chunks  []Chunk
	Records int   // records scanned — the O(delta) bound
	Bytes   int64 // Meta and Data bytes scanned
}

// StoreStats is a point-in-time aggregate over every shard.
type StoreStats struct {
	Shards           int
	Appends          int64 // records appended (leader copies)
	AppendedBytes    int64 // Meta and Data bytes appended (leader copies)
	CommittedEpochs  int64
	SupersededEpochs int64 // torn epochs replaced by a re-begin after a crash
	Failovers        int64
	DeadReplicas     int
	TruncatedEpochs  int64
	TruncatedRecords int64
	Replays          int64
	ReplayRecords    int64 // total records scanned across all replays
}

type span struct {
	begin     uint64 // seq of the epoch-begin record
	commit    uint64 // seq of the epoch-commit record (valid when committed)
	chunks    int64
	committed bool
	truncated bool
}

type replica struct {
	id    int
	log   shardLog
	acked uint64 // every seq < acked is acknowledged by this replica
	down  bool
}

type shard struct {
	file          string
	rank          int
	replicas      []*replica
	leader        int
	spans         map[int64]*span
	lastCommitted int64
	pending       int64 // epoch begun but not yet committed (0 = none)
}

type shardKey struct {
	file string
	rank int
}

// Store is the staging store: one shard per (file, producer rank), each a
// leader-replicated append-only log, plus subscriber ack bookkeeping for
// watermark-driven GC. A Store outlives task restarts, the way a
// DataSpaces/ADIOS staging area outlives the applications it couples, but
// it lives in one process: every rank of that process shares it, and its
// replicas and their failover are kept inside it.
type Store struct {
	opt Options

	mu     sync.Mutex
	cond   *sync.Cond
	shards map[shardKey]*shard
	order  map[string][]int // file -> sorted shard ranks
	subs   map[string]map[string]int64

	stats StoreStats

	mRecords   *metrics.Counter
	mBytes     *metrics.Counter
	mTruncated *metrics.Counter
	mFailovers *metrics.Counter
	mReplay    *metrics.Histogram
}

// NewStore creates a staging store.
func NewStore(opt Options) *Store {
	if opt.Replicas <= 0 {
		opt.Replicas = 1
	}
	s := &Store{
		opt:    opt,
		shards: make(map[shardKey]*shard),
		order:  make(map[string][]int),
		subs:   make(map[string]map[string]int64),
	}
	s.cond = sync.NewCond(&s.mu)
	if m := opt.Metrics; m != nil {
		s.mRecords = m.Counter("stage.log.records")
		s.mBytes = m.Counter("stage.log.appended_bytes")
		s.mTruncated = m.Counter("stage.log.truncated_records")
		s.mFailovers = m.Counter("stage.failovers")
		s.mReplay = m.Histogram("stage.replay.latency_us")
		m.GaugeFunc("stage.watermark.lag", s.watermarkLag)
	}
	return s
}

func (s *Store) shardLocked(file string, rank int, create bool) *shard {
	k := shardKey{file: file, rank: rank}
	sh, ok := s.shards[k]
	if !ok && create {
		sh = &shard{file: file, rank: rank, spans: make(map[int64]*span)}
		for i := 0; i <= s.opt.Replicas; i++ {
			sh.replicas = append(sh.replicas, &replica{id: i})
		}
		s.shards[k] = sh
		s.order[file] = append(s.order[file], rank)
		sort.Ints(s.order[file])
	}
	return sh
}

// appendLocked sequences r on the shard's leader and appends the same record
// to every live follower, advancing each replica's ack. All live replicas
// move in lockstep, so acks are monotonic and hole-free.
func (s *Store) appendLocked(sh *shard, r *Record) (uint64, error) {
	if sh.replicas[sh.leader].down {
		if !s.failoverLocked(sh) {
			return 0, fmt.Errorf("%w: %s rank %d", ErrShardDown, sh.file, sh.rank)
		}
	}
	r.Seq = sh.replicas[sh.leader].log.nextSeq
	for _, rep := range sh.replicas {
		if rep.down {
			continue
		}
		rep.log.append(r)
		rep.acked = rep.log.nextSeq
	}
	n := r.size()
	s.stats.Appends++
	s.stats.AppendedBytes += n
	if s.mRecords != nil {
		s.mRecords.Inc()
		s.mBytes.Add(n)
	}
	return r.Seq, nil
}

// failoverLocked promotes the live replica with the highest ack. Returns
// false when none is left.
func (s *Store) failoverLocked(sh *shard) bool {
	best := -1
	for i, rep := range sh.replicas {
		if rep.down {
			continue
		}
		if best < 0 || rep.acked > sh.replicas[best].acked {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	sh.leader = best
	s.stats.Failovers++
	if s.mFailovers != nil {
		s.mFailovers.Inc()
	}
	return true
}

// Begin opens the next epoch of a shard, recording a copy of the metadata
// snapshot. Re-beginning after a crash-during-commit supersedes the torn
// span: its records stay in the log but the epoch index points at the new
// span.
func (s *Store) Begin(file string, rank int, meta []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shardLocked(file, rank, true)
	epoch := sh.lastCommitted + 1
	if sh.pending != 0 {
		s.stats.SupersededEpochs++
	}
	seq, err := s.appendLocked(sh, &Record{Type: RecEpochBegin, Epoch: epoch, Rank: rank, Meta: bytes.Clone(meta)})
	if err != nil {
		return 0, err
	}
	sh.spans[epoch] = &span{begin: seq}
	sh.pending = epoch
	return epoch, nil
}

// Append adds one chunk record to the open epoch. The record keeps a copy
// of data, so the caller may reuse its buffer once Append returns; box is
// kept as given.
func (s *Store) Append(file string, rank int, epoch int64, dataset string, box grid.Box, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shardLocked(file, rank, false)
	if sh == nil || sh.pending != epoch {
		return fmt.Errorf("%w: append to epoch %d of %s rank %d", ErrNoEpoch, epoch, file, rank)
	}
	_, err := s.appendLocked(sh, &Record{Type: RecChunk, Epoch: epoch, Rank: rank, Dataset: dataset, Box: box, Data: bytes.Clone(data)})
	return err
}

// Commit seals the open epoch. The commit record is appended and replicated
// first; only then does the epoch become visible to waiting consumers, so a
// crash inside commit (or injected by the OnCommit hook) leaves a torn span
// that the restarted producer supersedes.
func (s *Store) Commit(file string, rank int, epoch int64) error {
	s.mu.Lock()
	sh := s.shardLocked(file, rank, false)
	if sh == nil || sh.pending != epoch {
		s.mu.Unlock()
		return fmt.Errorf("%w: commit of epoch %d of %s rank %d", ErrNoEpoch, epoch, file, rank)
	}
	sp := sh.spans[epoch]
	chunks := int64(0)
	lead := sh.replicas[sh.leader]
	for q := sp.begin + 1; q < lead.log.nextSeq; q++ {
		if r := lead.log.get(q); r != nil && r.Type == RecChunk && r.Epoch == epoch {
			chunks++
		}
	}
	seq, err := s.appendLocked(sh, &Record{Type: RecEpochCommit, Epoch: epoch, Rank: rank, Chunks: chunks})
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()

	if s.opt.OnCommit != nil {
		s.opt.OnCommit(file, rank, epoch)
	}

	s.mu.Lock()
	sp.commit = seq
	sp.chunks = chunks
	sp.committed = true
	sh.lastCommitted = epoch
	sh.pending = 0
	s.stats.CommittedEpochs++
	s.mu.Unlock()
	s.cond.Broadcast()
	return nil
}

// committedLocked returns the highest epoch committed by every shard of the
// file and the shard count.
func (s *Store) committedLocked(file string) (int64, int) {
	ranks := s.order[file]
	if len(ranks) == 0 {
		return 0, 0
	}
	min := int64(-1)
	for _, r := range ranks {
		sh := s.shards[shardKey{file: file, rank: r}]
		if min < 0 || sh.lastCommitted < min {
			min = sh.lastCommitted
		}
	}
	return min, len(ranks)
}

// CommittedEpoch returns the highest epoch committed by all current shards
// of the file, and how many shards it has.
func (s *Store) CommittedEpoch(file string) (int64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committedLocked(file)
}

// WaitCommitted blocks until at least ranks shards of the file each have a
// committed epoch, returning the highest epoch committed by all of them.
// timeout <= 0 waits forever (fail-stop mode); otherwise the wait is capped
// — the staging analogue of the consumer's restart-poll budget.
func (s *Store) WaitCommitted(file string, ranks int, timeout time.Duration) (int64, error) {
	if ranks < 1 {
		ranks = 1
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		t := time.AfterFunc(timeout, s.cond.Broadcast)
		defer t.Stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if e, n := s.committedLocked(file); n >= ranks && e >= 1 {
			return e, nil
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return 0, fmt.Errorf("%w: %s after %s", ErrWaitCommit, file, timeout)
		}
		s.cond.Wait()
	}
}

// spanLocked resolves the epoch index entry of one shard, classifying
// missing versus truncated.
func (s *Store) spanLocked(sh *shard, epoch int64) (*span, error) {
	sp, ok := sh.spans[epoch]
	if !ok || !sp.committed {
		return nil, fmt.Errorf("%w: epoch %d of %s rank %d", ErrNoEpoch, epoch, sh.file, sh.rank)
	}
	if sp.truncated {
		return nil, fmt.Errorf("%w: epoch %d of %s rank %d", ErrEpochTruncated, epoch, sh.file, sh.rank)
	}
	return sp, nil
}

// Meta returns the encoded metadata tree of one committed epoch, read from
// the lowest-rank shard (the tree structure is replicated across ranks).
func (s *Store) Meta(file string, epoch int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ranks := s.order[file]
	if len(ranks) == 0 {
		return nil, fmt.Errorf("%w: no shards for %s", ErrNoEpoch, file)
	}
	sh := s.shards[shardKey{file: file, rank: ranks[0]}]
	sp, err := s.spanLocked(sh, epoch)
	if err != nil {
		return nil, err
	}
	r := sh.replicas[sh.leader].log.get(sp.begin)
	if r == nil || r.Type != RecEpochBegin {
		return nil, fmt.Errorf("%w: epoch %d of %s", ErrEpochTruncated, epoch, file)
	}
	return r.Meta, nil
}

// Chunks resolves epoch -> log offsets and returns every chunk of dataset
// intersecting bb (an empty bb selects all), across all shards of the file,
// in (rank, seq) order. This is the consumer query path, and the time-travel
// path for any retained epoch.
func (s *Store) Chunks(file string, epoch int64, dataset string, bb grid.Box) ([]Chunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Chunk
	ranks := s.order[file]
	if len(ranks) == 0 {
		return nil, fmt.Errorf("%w: no shards for %s", ErrNoEpoch, file)
	}
	for _, rank := range ranks {
		sh := s.shards[shardKey{file: file, rank: rank}]
		sp, err := s.spanLocked(sh, epoch)
		if err != nil {
			return nil, err
		}
		log := &sh.replicas[sh.leader].log
		for q := sp.begin + 1; q < sp.commit; q++ {
			r := log.get(q)
			if r == nil {
				return nil, fmt.Errorf("%w: seq %d of %s rank %d", ErrEpochTruncated, q, file, rank)
			}
			if r.Type != RecChunk || r.Epoch != epoch || r.Dataset != dataset {
				continue
			}
			if bb.Dim() != 0 && !bb.Intersects(r.Box) {
				continue
			}
			out = append(out, Chunk{Dataset: r.Dataset, Box: r.Box, Data: r.Data})
		}
	}
	return out, nil
}

// Replay reads one shard's latest committed span — metadata snapshot plus
// chunk tail — for a restarted producer rank. Cost is proportional to the
// span, not the log: the epoch index seeks straight to the begin offset.
func (s *Store) Replay(file string, rank int) (*ReplayData, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shardLocked(file, rank, false)
	if sh == nil || sh.lastCommitted == 0 {
		return nil, fmt.Errorf("%w: no committed epoch of %s rank %d", ErrNoEpoch, file, rank)
	}
	epoch := sh.lastCommitted
	sp, err := s.spanLocked(sh, epoch)
	if err != nil {
		return nil, err
	}
	log := &sh.replicas[sh.leader].log
	rd := &ReplayData{Epoch: epoch}
	for q := sp.begin; q <= sp.commit; q++ {
		r := log.get(q)
		if r == nil {
			return nil, fmt.Errorf("%w: seq %d of %s rank %d", ErrEpochTruncated, q, file, rank)
		}
		rd.Records++
		rd.Bytes += r.size()
		switch {
		case r.Type == RecEpochBegin && r.Epoch == epoch:
			rd.Meta = r.Meta
		case r.Type == RecChunk && r.Epoch == epoch:
			rd.Chunks = append(rd.Chunks, Chunk{Dataset: r.Dataset, Box: r.Box, Data: r.Data})
		}
	}
	if rd.Meta == nil || int64(len(rd.Chunks)) != sp.chunks {
		return nil, fmt.Errorf("%w: torn span for epoch %d of %s rank %d", ErrEpochTruncated, epoch, file, rank)
	}
	s.stats.Replays++
	s.stats.ReplayRecords += int64(rd.Records)
	if s.mReplay != nil {
		s.mReplay.ObserveSince(start)
	}
	return rd, nil
}

// Subscribe registers a consumer for watermark accounting. A subscriber
// that never acks pins every epoch of the file.
func (s *Store) Subscribe(file, sub string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs[file] == nil {
		s.subs[file] = make(map[string]int64)
	}
	if _, ok := s.subs[file][sub]; !ok {
		s.subs[file][sub] = 0
	}
}

// Ack records that a subscriber has fully consumed every epoch <= epoch.
// Acks are monotonic; a regression is rejected with ErrAckRegression.
func (s *Store) Ack(file, sub string, epoch int64) error {
	s.mu.Lock()
	if s.subs[file] == nil {
		s.subs[file] = make(map[string]int64)
	}
	if cur := s.subs[file][sub]; epoch < cur {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s acked %d after %d for %s", ErrAckRegression, sub, epoch, cur, file)
	}
	s.subs[file][sub] = epoch
	auto := s.opt.AutoGC
	s.mu.Unlock()
	if auto {
		s.GC(file)
	}
	return nil
}

func (s *Store) watermarkLocked(file string) int64 {
	subs := s.subs[file]
	if len(subs) == 0 {
		return 0
	}
	min := int64(-1)
	for _, e := range subs {
		if min < 0 || e < min {
			min = e
		}
	}
	return min
}

// Watermark returns the minimum acked epoch across the file's subscribers
// (0 when there are none, or any has yet to ack).
func (s *Store) Watermark(file string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermarkLocked(file)
}

// watermarkLag is the gauge body: the widest gap between any file's latest
// committed epoch and its subscriber watermark.
func (s *Store) watermarkLag() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lag int64
	for file := range s.order {
		e, _ := s.committedLocked(file)
		if e <= 0 {
			continue
		}
		if d := e - s.watermarkLocked(file); d > lag {
			lag = d
		}
	}
	return lag
}

// GC truncates every epoch at or below the file's watermark from all shard
// replicas, returning the number of records dropped. The PFS container file
// remains the low-watermark fallback, so truncation never destroys the only
// copy.
func (s *Store) GC(file string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	wm := s.watermarkLocked(file)
	if wm <= 0 {
		return 0
	}
	dropped := 0
	for _, rank := range s.order[file] {
		sh := s.shards[shardKey{file: file, rank: rank}]
		// Find the cut point: the first seq of the lowest retained epoch.
		cut := uint64(0)
		found := false
		for e := wm + 1; e <= sh.lastCommitted; e++ {
			if sp, ok := sh.spans[e]; ok && sp.committed && !sp.truncated {
				cut = sp.begin
				found = true
				break
			}
		}
		if !found {
			// Everything acked: drop the whole retained log.
			cut = sh.replicas[sh.leader].log.nextSeq
			if sh.pending != 0 {
				if sp, ok := sh.spans[sh.pending]; ok {
					cut = sp.begin
				}
			}
		}
		for e, sp := range sh.spans {
			if e <= wm && sp.committed && !sp.truncated {
				sp.truncated = true
				s.stats.TruncatedEpochs++
			}
		}
		for _, rep := range sh.replicas {
			if rep.down {
				continue
			}
			n := rep.log.truncateBefore(cut)
			if rep.id == sh.replicas[sh.leader].id {
				dropped += n
				s.stats.TruncatedRecords += int64(n)
				if s.mTruncated != nil {
					s.mTruncated.Add(int64(n))
				}
			}
		}
	}
	return dropped
}

// FailLeader marks the current leader replica of a shard dead, forcing the
// next append to fail over. Fault injection for the harness.
func (s *Store) FailLeader(file string, rank int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shardLocked(file, rank, false)
	if sh == nil || sh.replicas[sh.leader].down {
		return false
	}
	sh.replicas[sh.leader].down = true
	s.failoverLocked(sh)
	return true
}

// FailFollower marks one live non-leader replica of a shard dead. Fault
// injection for the harness.
func (s *Store) FailFollower(file string, rank int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shardLocked(file, rank, false)
	if sh == nil {
		return false
	}
	for i, rep := range sh.replicas {
		if i != sh.leader && !rep.down {
			rep.down = true
			return true
		}
	}
	return false
}

// Acked returns each replica's ack offset for a shard, leader first — the
// monotonically-sequenced append invariant tests assert on it.
func (s *Store) Acked(file string, rank int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shardLocked(file, rank, false)
	if sh == nil {
		return nil
	}
	out := []uint64{sh.replicas[sh.leader].acked}
	for i, rep := range sh.replicas {
		if i != sh.leader {
			out = append(out, rep.acked)
		}
	}
	return out
}

// Files returns every file with at least one shard.
func (s *Store) Files() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.order))
	for f := range s.order {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of store-wide counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Shards = len(s.shards)
	for _, sh := range s.shards {
		for _, rep := range sh.replicas {
			if rep.down {
				st.DeadReplicas++
			}
		}
	}
	return st
}
