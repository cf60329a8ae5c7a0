package core

import (
	"fmt"
	"sort"
	"strings"

	"lowfive/h5"
	"lowfive/internal/grid"
	"lowfive/trace"
)

// Epoch-based recovery: a restarted producer rank rebuilds its in-memory
// metadata tree from the container file the previous incarnation wrote
// through passthru (the base connector doubles as the durable checkpoint
// store), reclaims the regions it owned, and re-runs the index exchange so
// the distributed index points at the fresh incarnation. Ownership comes
// from the __lf_own_<rank> root attributes persistOwnership recorded at
// serve time; a file without them (persistence off, or written before it
// was enabled) falls back to the canonical block decomposition, which
// over-claims at worst — serving file bytes for any region is value-correct
// because the container file holds the merged global state.

// ownPrefix is the root-attribute namespace persistOwnership writes into.
const ownPrefix = "__lf_own_"

// RejoinStats reports what one rank rebuilt during a Rejoin.
type RejoinStats struct {
	// Datasets is the number of datasets whose ownership this rank
	// reclaimed (datasets it re-published at least one region of).
	Datasets int
	// Entries is the number of region boxes re-published into the index.
	Entries int
	// Bytes is the data volume re-read from the container file.
	Bytes int64
	// Persisted reports whether exact persisted ownership was found;
	// false means the block-decomposition fallback was used.
	Persisted bool
}

// Reindex re-runs the collective index exchange (Alg. 1) for a file already
// in memory, rebuilding every rank's index shard and re-replicating entries
// whose replica set lost a member. It always runs the full exchange, never
// reusing the last build. Collective over the local task.
func (v *DistMetadataVOL) Reindex(name string) error {
	fn, ok := v.File(name)
	if !ok {
		return fmt.Errorf("lowfive: Reindex(%q): file not in memory", name)
	}
	if tr := v.track(); tr != nil {
		t0 := tr.Begin()
		defer func() { tr.End(t0, "core", "vol.reindex", trace.Str("file", name)) }()
	}
	return v.buildIndex(fn, true)
}

// Rejoin rebuilds this rank's metadata tree for a passthru file from the
// container on storage, reclaims the regions this rank owns, registers the
// file in memory, and Reindexes it. Collective over the local task (every
// rank of a restarted task must call it for the same file). Returns what
// was rebuilt.
func (v *DistMetadataVOL) Rejoin(name string) (RejoinStats, error) {
	st, err := v.rejoinLocal(name)
	if err != nil {
		return st, err
	}
	if err := v.Reindex(name); err != nil {
		return st, err
	}
	return st, nil
}

// rejoinLocal is Rejoin without the collective index exchange: the
// container-file rebuild alone. Staging-mode recovery uses it as the
// low-watermark fallback — there is no distributed index to rebuild, so it
// must not block on a collective other ranks may never enter.
func (v *DistMetadataVOL) rejoinLocal(name string) (RejoinStats, error) {
	var st RejoinStats
	if v.base == nil {
		return st, fmt.Errorf("lowfive: Rejoin(%q): no base connector", name)
	}
	if !v.passthruOn(name) {
		return st, fmt.Errorf("lowfive: Rejoin(%q): file is not passed through to storage", name)
	}
	bh, err := v.base.FileOpen(name, nil)
	if err != nil {
		return st, fmt.Errorf("lowfive: Rejoin(%q): %w", name, err)
	}
	defer bh.Close()

	rank := v.local.Rank()
	own, persisted, err := readOwnership(bh, rank)
	if err != nil {
		return st, err
	}
	st.Persisted = persisted

	fn := NewFileNode(name)
	if err := copyAttrs(bh, fn.Node); err != nil {
		return st, err
	}
	if err := v.rejoinChildren(bh, fn.Node, own, persisted, &st); err != nil {
		return st, err
	}
	v.putFile(name, fn)
	return st, nil
}

// readOwnership decodes this rank's persisted region list from the file
// root. persisted reports whether ANY rank's ownership attribute exists —
// if so, a missing attribute for this rank means it owned nothing, while a
// file with none at all signals the fallback decomposition.
func readOwnership(bh h5.FileHandle, rank int) (own map[string][]grid.Box, persisted bool, err error) {
	names, err := bh.AttributeNames()
	if err != nil {
		return nil, false, err
	}
	var blob []byte
	mine := fmt.Sprintf("%s%d", ownPrefix, rank)
	for _, n := range names {
		if !strings.HasPrefix(n, ownPrefix) {
			continue
		}
		persisted = true
		if n == mine {
			if _, _, data, aerr := bh.AttributeRead(n); aerr == nil {
				blob = data
			}
		}
	}
	if len(blob) == 0 {
		return nil, persisted, nil
	}
	own = map[string][]grid.Box{}
	d := &h5.Decoder{Buf: blob}
	for d.Err == nil && d.Pos < len(d.Buf) {
		path := d.String()
		n := d.I64()
		if d.Err != nil || n < 0 {
			break
		}
		for k := int64(0); k < n && d.Err == nil; k++ {
			b := decodeBox(d)
			if !b.IsEmpty() {
				own[path] = append(own[path], b)
			}
		}
	}
	if d.Err != nil {
		return nil, persisted, fmt.Errorf("lowfive: corrupt ownership attribute %q: %w", mine, d.Err)
	}
	return own, persisted, nil
}

// rejoinChildren walks the container hierarchy under src, mirroring it into
// dst and reclaiming this rank's regions of every dataset.
func (v *DistMetadataVOL) rejoinChildren(src h5.ObjectHandle, dst *Node, own map[string][]grid.Box, persisted bool, st *RejoinStats) error {
	kids, err := src.Children()
	if err != nil {
		return err
	}
	for _, ci := range kids {
		switch ci.Kind {
		case h5.KindGroup:
			gh, err := src.GroupOpen(ci.Name)
			if err != nil {
				return err
			}
			gn := NewGroupNode(ci.Name)
			if err := copyAttrs(gh, gn); err == nil {
				err = dst.AddChild(gn)
			}
			if err == nil {
				err = v.rejoinChildren(gh, gn, own, persisted, st)
			}
			gh.Close()
			if err != nil {
				return err
			}
		case h5.KindDataset:
			if err := v.rejoinDataset(src, dst, ci.Name, own, persisted, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// rejoinDataset mirrors one dataset node and re-reads the regions this rank
// owns, re-recording them as write triples so the rebuilt index and serve
// sessions see them exactly as first-incarnation writes.
func (v *DistMetadataVOL) rejoinDataset(parent h5.ObjectHandle, dst *Node, name string, own map[string][]grid.Box, persisted bool, st *RejoinStats) error {
	dh, err := parent.DatasetOpen(name)
	if err != nil {
		return err
	}
	defer dh.Close()
	dims := dh.Dataspace().Dims()
	node := NewDatasetNode(name, dh.Datatype(), h5.NewSimple(dims...))
	if err := copyAttrs(dh, node); err != nil {
		return err
	}
	if err := dst.AddChild(node); err != nil {
		return err
	}
	var boxes []grid.Box
	if persisted {
		boxes = own[node.Path()]
	} else {
		// No persisted ownership: reclaim this rank's block of the
		// canonical decomposition — the same tiling the index uses — which
		// covers the full extent across the task and is idempotent across
		// restarts.
		dc := grid.CommonDecomposition(dims, v.local.Size())
		if r := v.local.Rank(); r < dc.NumBlocks() {
			if b := dc.Block(r); !b.IsEmpty() {
				boxes = []grid.Box{b}
			}
		}
	}
	es := int64(node.Type.Size)
	for _, b := range boxes {
		sel := h5.NewSimple(dims...)
		if err := sel.SelectBox(h5.SelectSet, b); err != nil {
			return err
		}
		data := make([]byte, b.NumPoints()*es)
		if err := dh.Read(nil, sel, data); err != nil {
			return err
		}
		if err := node.RecordWrite(nil, sel, data); err != nil {
			return err
		}
		st.Entries++
		st.Bytes += int64(len(data))
	}
	if len(boxes) > 0 {
		st.Datasets++
	}
	return nil
}

// copyAttrs mirrors an object's attributes into a tree node, skipping the
// ownership bookkeeping namespace.
func copyAttrs(src h5.AttrOps, dst *Node) error {
	names, err := src.AttributeNames()
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, an := range names {
		if strings.HasPrefix(an, ownPrefix) {
			continue
		}
		dt, sp, data, err := src.AttributeRead(an)
		if err != nil {
			return err
		}
		dst.SetAttribute(&Attribute{Name: an, Type: dt, Space: sp, Data: append([]byte(nil), data...)})
	}
	return nil
}
