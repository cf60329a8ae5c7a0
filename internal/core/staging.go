package core

import (
	"errors"
	"fmt"
	"time"

	"lowfive/h5"
	"lowfive/internal/stage"
	"lowfive/metrics"
	"lowfive/mpi"
)

// Staging mode: when DistMetadataVOL.Stage is set, producers publish each
// file close as one epoch of an append-only replicated chunk log instead of
// holding a serve session open, and consumers resolve opens and reads
// against the log — epoch → offsets via the store's span index. Recovery
// becomes replay: a restarted rank rebuilds its tree from its shard's
// latest committed span (snapshot + tail) instead of re-reading the PFS
// container and re-serving, and the container file remains the
// low-watermark fallback once the GC has truncated an epoch.

// ReplayStats reports what one rank rebuilt by log replay.
type ReplayStats struct {
	// Epoch is the store epoch the shard was replayed to.
	Epoch int64
	// Records is the number of log records scanned — proportional to the
	// last committed span, not to every epoch ever served.
	Records int
	// Bytes is the payload scanned: the span's metadata snapshot and chunk
	// bytes, or on PFS fallback the data re-read from the container file.
	Bytes int64
	// PFSFallback reports that the log span was truncated (or never
	// existed) and recovery degraded to the container-file Rejoin path.
	PFSFallback bool
}

// stagePublish is the producer file-close path in staging mode: one epoch
// begin (carrying the encoded metadata tree), one chunk record per written
// region box, and a commit. Ownership attributes still go to the passthru
// container so the PFS fallback can rejoin exactly.
func (v *DistMetadataVOL) stagePublish(name string) error {
	fn, ok := v.File(name)
	if !ok {
		return fmt.Errorf("lowfive: stagePublish(%q): file not in memory", name)
	}
	if err := v.persistOwnership(fn); err != nil {
		return err
	}
	if v.OnServe != nil {
		v.OnServe(name)
	}
	rank := v.local.Rank()
	var e h5.Encoder
	EncodeTree(&e, fn.Node, nil)
	epoch, err := v.Stage.Begin(name, rank, e.Buf)
	if err != nil {
		return err
	}
	var bytes, chunks int64
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.Kind == h5.KindDataset {
			es := int64(n.Type.Size)
			for _, tr := range n.Triples {
				packed := tr.PackedData(n.Type.Size)
				base := int64(0)
				// Packed bytes lie in FileSpace selection order, box-major,
				// so each box's slice starts at the running point offset.
				for _, b := range tr.FileSpace.SelectionBoxes() {
					np := b.NumPoints()
					data := packed[base*es : (base+np)*es]
					if err := v.Stage.Append(name, rank, epoch, n.Path(), b, data); err != nil {
						return err
					}
					base += np
					bytes += np * es
					chunks++
				}
			}
		}
		for _, c := range n.Children() {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(fn.Node); err != nil {
		return err
	}
	if err := v.Stage.Commit(name, rank, epoch); err != nil {
		return err
	}
	v.instruments()
	if v.mEpochBytes != nil {
		v.mEpochBytes.Record(bytes)
		v.mEpochChunk.Record(chunks)
	}
	return nil
}

// stageWaitBudget bounds how long a consumer open waits for a committed
// epoch: the same retry budget the RPC path would have spent. Zero (no
// CallTimeout) keeps fail-stop semantics — wait forever.
func (v *DistMetadataVOL) stageWaitBudget() time.Duration {
	if v.CallTimeout <= 0 {
		return 0
	}
	budget := v.CallTimeout * time.Duration(v.CallRetries+1)
	if v.CallBudget > 0 && v.CallBudget < budget {
		budget = v.CallBudget
	}
	return budget
}

// openStaged resolves a consumer open against the staging store: wait for
// an epoch committed by every producer rank, subscribe for watermark
// accounting, and decode the epoch's metadata snapshot. A wait that runs
// out its budget, or an epoch the GC already truncated, degrades to the
// container file.
func (v *DistMetadataVOL) openStaged(name string, ic *mpi.Intercomm) (h5.FileHandle, error) {
	nProd := 1
	if ic != nil {
		nProd = ic.RemoteSize()
	}
	start := time.Now()
	epoch, err := v.Stage.WaitCommitted(name, nProd, v.stageWaitBudget())
	if err != nil {
		v.recordQueryFault(name, "", time.Since(start), "stage-wait-exhausted")
		if fh, ferr := v.fileFallbackOpen(name); ferr == nil {
			return fh, nil
		}
		return nil, fmt.Errorf("lowfive: opening %q staged: %w", name, err)
	}
	fh, err := v.openStagedEpoch(name, epoch)
	if err != nil && errors.Is(err, stage.ErrEpochTruncated) {
		v.recordQueryFault(name, "", time.Since(start), "stage-truncated")
		if fb, ferr := v.fileFallbackOpen(name); ferr == nil {
			return fb, nil
		}
	}
	return fh, err
}

// OpenStagedEpoch opens one retained epoch of a staged file — the
// time-travel query path. The epoch must still be above the GC watermark.
func (v *DistMetadataVOL) OpenStagedEpoch(name string, epoch int64) (h5.FileHandle, error) {
	if v.Stage == nil {
		return nil, fmt.Errorf("lowfive: OpenStagedEpoch(%q): staging off", name)
	}
	return v.openStagedEpoch(name, epoch)
}

func (v *DistMetadataVOL) openStagedEpoch(name string, epoch int64) (h5.FileHandle, error) {
	meta, err := v.Stage.Meta(name, epoch)
	if err != nil {
		return nil, fmt.Errorf("lowfive: opening %q staged: %w", name, err)
	}
	root, err := DecodeTree(&h5.Decoder{Buf: meta}, nil)
	if err != nil {
		return nil, fmt.Errorf("lowfive: opening %q staged: %w", name, err)
	}
	if v.StageSubscriber != "" {
		v.Stage.Subscribe(name, v.StageSubscriber)
	}
	return v.newRemoteFile(name, root, &stagedSource{epoch: epoch}), nil
}

// StageReplay rebuilds this rank's in-memory tree for a file from its
// shard's latest committed span. When the span has been truncated below the
// watermark, recovery falls back to the PFS container (Rejoin without the
// index exchange — staging mode has no distributed index to rebuild).
func (v *DistMetadataVOL) StageReplay(name string) (ReplayStats, error) {
	var out ReplayStats
	if v.Stage == nil {
		return out, fmt.Errorf("lowfive: StageReplay(%q): staging off", name)
	}
	rank := v.local.Rank()
	rd, err := v.Stage.Replay(name, rank)
	if err != nil {
		if errors.Is(err, stage.ErrEpochTruncated) || errors.Is(err, stage.ErrNoEpoch) {
			rs, rerr := v.rejoinLocal(name)
			out.PFSFallback = true
			out.Bytes = rs.Bytes
			if rerr != nil {
				return out, fmt.Errorf("lowfive: StageReplay(%q): %v; PFS fallback: %w", name, err, rerr)
			}
			return out, nil
		}
		return out, err
	}
	root, err := DecodeTree(&h5.Decoder{Buf: rd.Meta}, nil)
	if err != nil {
		return out, fmt.Errorf("lowfive: StageReplay(%q): %w", name, err)
	}
	fn := &FileNode{Node: root, FileName: name}
	for _, c := range rd.Chunks {
		node, err := root.Resolve(c.Dataset)
		if err != nil {
			return out, fmt.Errorf("lowfive: StageReplay(%q): %w", name, err)
		}
		sel := h5.NewSimple(node.Space.Dims()...)
		if err := sel.SelectBox(h5.SelectSet, c.Box); err != nil {
			return out, err
		}
		if err := node.RecordWrite(nil, sel, c.Data); err != nil {
			return out, err
		}
	}
	v.putFile(name, fn)
	out.Epoch = rd.Epoch
	out.Records = rd.Records
	out.Bytes = rd.Bytes
	return out, nil
}

// recordQueryFault records a failed or degraded query into the flight
// recorder regardless of how fast it was — a sweep failure must show the
// failing query even when the failure itself was quick.
func (v *DistMetadataVOL) recordQueryFault(file, dset string, d time.Duration, reason string) {
	if v.Flight == nil {
		return
	}
	v.Flight.Record(metrics.SlowQuery{
		Time: time.Now(), File: file, Dataset: dset, Duration: d, Reason: reason,
	})
}
