package core

import (
	"fmt"
	"slices"

	"lowfive/h5"
	"lowfive/internal/grid"
	"lowfive/mpi"
	"lowfive/trace"
)

// One index per layout. Algorithm 1 builds a file's distributed index from
// what each producer rank sends: for every dataset its path, dims and
// written boxes, cut by the common decomposition over the producer count
// and copied to ReplicationFactor ranks. A time loop writes a new file
// every step, usually with the same decomposition, so the messages, and the
// index they build, repeat from step to step. Each rank therefore keeps its
// last build, and before an exchange all ranks run one flag round, a
// dissemination OR of ceil(log2 n) rounds of one byte: each says whether
// its index inputs differ from those of its last build. When no rank's do
// and every rank holds a last build, every rank files the new file under
// the index it already has, fingerprints included, with nothing built,
// exchanged, decoded or folded. Otherwise every rank runs the full
// exchange, which replaces every rank's last build. A rank with no last
// build (a fresh or restarted one, or one whose last exchange failed) says
// changed, so it forces the full exchange on all of them.

// indexInput is what one dataset contributes to this rank's index
// messages: its path, its dims and its written boxes in write order.
type indexInput struct {
	path  string
	dims  []int64
	boxes []grid.Box
}

// builtIndex is this rank's last index build: every input its messages were
// built from, and the index the exchange gave it. It holds the datasets of
// one file, the last one indexed.
type builtIndex struct {
	producers, repl int
	inputs          []indexInput // tree order
	idx             map[string]datasetIndex
}

// holds reports whether b was built from exactly these inputs; a nil b
// holds nothing.
func (b *builtIndex) holds(producers, repl int, inputs []indexInput) bool {
	if b == nil || b.producers != producers || b.repl != repl || len(b.inputs) != len(inputs) {
		return false
	}
	for i, in := range inputs {
		was := b.inputs[i]
		if in.path != was.path || !slices.Equal(in.dims, was.dims) || !slices.EqualFunc(in.boxes, was.boxes, grid.Box.Equal) {
			return false
		}
	}
	return true
}

// indexInputs returns the index input of each dataset of the file, in tree
// order.
func indexInputs(fn *FileNode) []indexInput {
	var out []indexInput
	var walk func(node *Node, path string)
	walk = func(node *Node, path string) {
		if node.Kind == h5.KindDataset {
			out = append(out, indexInput{path: path, dims: node.Space.Dims(), boxes: node.WrittenBoxes()})
		}
		for _, c := range node.Children() {
			if path == "/" {
				walk(c, "/"+c.Name)
			} else {
				walk(c, path+"/"+c.Name)
			}
		}
	}
	walk(fn.Node, "/")
	return out
}

// buildIndex implements Algorithm 1 for a file, reusing the last build when
// no producer's index inputs changed. full skips the flag round and always
// runs the exchange; all ranks must pass the same full. Collective over the
// local task.
func (v *DistMetadataVOL) buildIndex(fn *FileNode, full bool) error {
	if tr := v.track(); tr != nil {
		t0 := tr.Begin()
		defer func() { tr.End(t0, "core", "index", trace.Str("file", fn.FileName)) }()
	}
	n := v.local.Size()
	repl := min(max(v.ReplicationFactor, 1), n)
	inputs := indexInputs(fn)
	last := v.lastIndex
	v.lastIndex = nil // a failed build leaves nothing to reuse
	if !full {
		flag := encodeIndexFlag(!last.holds(n, repl, inputs))
		changed, err := decodeIndexFlag(v.local.AllreduceIdempotent(flag, orIndexFlags))
		if err != nil {
			return err
		}
		if !changed {
			v.lastIndex = last
			v.setIndex(fn.FileName, last.idx)
			return nil
		}
	}
	idx, err := exchangeIndex(v.local, repl, inputs)
	if err != nil {
		return err
	}
	v.lastIndex = &builtIndex{producers: n, repl: repl, inputs: inputs, idx: idx}
	v.setIndex(fn.FileName, idx)
	return nil
}

// setIndex files idx as the named file's index, which makes the file
// answerable.
func (v *DistMetadataVOL) setIndex(name string, idx map[string]datasetIndex) {
	v.serveMu.Lock()
	v.indexes[name] = idx
	v.serveMu.Unlock()
}

// exchangeIndex is Algorithm 1's exchange: every producer rank sends the
// bounding box of each written data space to the ranks owning intersecting
// blocks of the common decomposition; owners record (box, source). Each
// message also carries the sender's own layout digest of every dataset, and
// every rank folds the n digests in rank order into the dataset's
// fingerprint.
func exchangeIndex(local *mpi.Comm, repl int, inputs []indexInput) (map[string]datasetIndex, error) {
	n := local.Size()
	paths := make([]string, len(inputs))
	own := make([]layoutPrint, len(inputs))
	for i, in := range inputs {
		paths[i], own[i] = in.path, ownLayout(in.dims, in.boxes)
	}
	head := &h5.Encoder{}
	encodeIndexDigests(head, paths, own)
	out := make([]*h5.Encoder, n)
	for i := range out {
		out[i] = &h5.Encoder{Buf: append([]byte(nil), head.Buf...)}
	}
	for _, in := range inputs {
		dc := grid.CommonDecomposition(in.dims, n)
		for _, bb := range in.boxes {
			for _, blk := range dc.Intersecting(bb) {
				// With replication, each entry also goes to the next
				// repl-1 ranks, the failover targets consumers try
				// when the block's primary owner is unreachable.
				for k := 0; k < repl; k++ {
					e := out[(blk+k)%n]
					e.PutString(in.path)
					encodeBox(e, bb)
				}
			}
		}
	}
	msgs := make([][]byte, n)
	for i, e := range out {
		msgs[i] = e.Buf
	}
	// The index exchange is the collective synchronization the paper
	// blames for part of LowFive's overhead vs DataSpaces (§IV-B-d).
	in, err := local.Alltoall(msgs)
	if err != nil {
		return nil, err
	}
	return indexFrom(in)
}

// indexFrom files the n messages of an index exchange, one per source rank,
// into this rank's index of the file, and folds each dataset's n digests
// in rank order into its fingerprint. An entry whose sender gave no digest
// for its dataset is as corrupt as an undecodable message.
func indexFrom(in [][]byte) (map[string]datasetIndex, error) {
	idx := map[string]datasetIndex{}
	digests := map[string][]layoutPrint{} // dataset path -> each rank's own digest
	for src, buf := range in {
		var orphan *string
		err := decodeIndexMsg(buf, func(path string, p layoutPrint) {
			if digests[path] == nil {
				digests[path] = make([]layoutPrint, len(in))
			}
			digests[path][src] = p
		}, func(path string, box grid.Box) {
			if digests[path] == nil || digests[path][src] == (layoutPrint{}) {
				orphan = &path
			}
			di := idx[path]
			di.entries = append(di.entries, indexEntry{box: box, src: src})
			idx[path] = di
		})
		if err == nil && orphan != nil {
			err = fmt.Errorf("entry for %q without its layout digest", *orphan)
		}
		if err != nil {
			return nil, fmt.Errorf("lowfive: corrupt index message from rank %d: %v", src, err)
		}
	}
	for path, own := range digests {
		di := idx[path]
		di.layout = foldLayout(own)
		idx[path] = di
	}
	return idx, nil
}
