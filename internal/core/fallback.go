package core

import (
	"errors"
	"fmt"
	"time"

	"lowfive/h5"
	"lowfive/internal/rpc"
	"lowfive/internal/stage"
	"lowfive/trace"
)

// File-transport fallback: when the in-memory index–serve–query path fails
// (a crashed producer rank, retries run dry), a consumer can still read the
// dataset from the parallel file system, provided the producer also wrote
// the file through to storage (passthru). This is the paper's dual-transport
// design degrading gracefully — the file path doubles as the recovery path.

// fileFallback decides what a failed fill becomes, and records the fault
// in the flight recorder however fast it was. Overload is transient by
// design — the producer is alive and said when to come back — so shed and
// breaker-open surface the typed error for the caller to back off on;
// degrading to the file system would both mask the shed and pile more load
// onto shared storage. Any other failure (a crashed producer, retries run
// dry, a truncated staging epoch) reads the selection from the container
// file instead, if the producer also wrote one: the paper's file transport
// doubles as the recovery path, and its bytes overwrite any partial fill.
func (v *DistMetadataVOL) fileFallback(file, dset string, fileSpace *h5.Dataspace, t *streamTarget, cause error, took time.Duration) error {
	reason := "file-fallback"
	var tmo *rpc.TimeoutError
	var ovl *rpc.OverloadedError
	var brk *rpc.BreakerOpenError
	switch {
	case errors.As(cause, &ovl):
		reason = "shed"
	case errors.As(cause, &brk):
		reason = "breaker-open"
	case errors.As(cause, &tmo):
		reason = "retries-exhausted"
	case errors.Is(cause, stage.ErrEpochTruncated), errors.Is(cause, stage.ErrNoEpoch):
		reason = "stage-truncated"
	}
	v.recordQueryFault(file, dset, took, reason)
	if ovl != nil || brk != nil {
		return fmt.Errorf("lowfive: reading %q: %w", dset, cause)
	}
	if err := v.readFromFile(file, dset, fileSpace, t); err != nil {
		return fmt.Errorf("lowfive: reading %q: %w (file fallback: %v)", dset, cause, err)
	}
	v.qmu.Lock()
	v.qstats.FileFallbacks++
	v.qmu.Unlock()
	if tr := v.track(); tr != nil {
		tr.Instant("core", "query.file-fallback", trace.Str("dataset", dset))
	}
	return nil
}

// objectContainer is the slice of the file/group handle API the fallback
// needs to navigate to a dataset.
type objectContainer interface {
	GroupOpen(name string) (h5.ObjectHandle, error)
	DatasetOpen(name string) (h5.DatasetHandle, error)
}

// readFromFile reads the selected region of a dataset from the base
// connector's copy of the file, each selection box straight into its slice
// of the read's destination.
func (v *DistMetadataVOL) readFromFile(file, dsetPath string, fileSpace *h5.Dataspace, t *streamTarget) error {
	if v.base == nil {
		return fmt.Errorf("lowfive: no base connector for file fallback")
	}
	fh, err := v.base.FileOpen(file, nil)
	if err != nil {
		return fmt.Errorf("lowfive: file fallback open %q: %w", file, err)
	}
	defer fh.Close()

	segs := splitSegs(dsetPath)
	if len(segs) == 0 {
		return fmt.Errorf("lowfive: file fallback: empty dataset path")
	}
	var cur objectContainer = fh
	var groups []h5.ObjectHandle
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	for _, seg := range segs[:len(segs)-1] {
		g, err := cur.GroupOpen(seg)
		if err != nil {
			return fmt.Errorf("lowfive: file fallback: %w", err)
		}
		groups = append(groups, g)
		cur = g
	}
	dh, err := cur.DatasetOpen(segs[len(segs)-1])
	if err != nil {
		return fmt.Errorf("lowfive: file fallback: %w", err)
	}
	defer dh.Close()

	es := int64(t.es)
	for i, rb := range t.boxes {
		sel := fileSpace.Clone()
		if err := sel.SelectBox(h5.SelectSet, rb); err != nil {
			return fmt.Errorf("lowfive: file fallback: %w", err)
		}
		lo := t.bases[i] * es
		if err := dh.Read(nil, sel, t.dst[lo:lo+rb.NumPoints()*es]); err != nil {
			return fmt.Errorf("lowfive: file fallback read %q: %w", dsetPath, err)
		}
	}
	return nil
}
