package core

import (
	"fmt"
	"math/rand/v2"
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
// the build it already has, layout id included, with nothing built,
// exchanged or decoded. Otherwise every rank runs the full exchange, which
// replaces every rank's last build. A rank with no last build (a fresh or
// restarted one, or one whose last exchange failed) says changed, so it
// forces the full exchange on all of them.
//
// The layout id names one build. Every exchange message opens with its
// sender's fresh random non-zero proposal, the same to every rank, so every
// rank sees the same n proposals and takes their maximum: all producers
// agree the id without another round. A reused build keeps its id, and
// every exchange (a changed layout, Reindex, Rejoin, a restarted producer
// set) draws a new one, so consumers key their redirect records on it (see
// redirect.go): equal ids mean one build, hence equal owner answers.

// indexInput is what one dataset contributes to this rank's index
// messages: its path, its dims and its written boxes in write order.
type indexInput struct {
	path  string
	dims  []int64
	boxes []grid.Box
}

// builtIndex is one index build on this rank: every input its messages were
// built from, the layout id its exchange agreed, and the entries of each
// dataset this rank owns or replicates. Files of one layout share it.
type builtIndex struct {
	producers, repl int
	inputs          []indexInput // tree order
	id              uint64
	idx             map[string][]indexEntry // dataset path -> entries
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
			v.setIndex(fn.FileName, last)
			return nil
		}
	}
	b, err := exchangeIndex(v.local, repl, inputs)
	if err != nil {
		return err
	}
	v.lastIndex = b
	v.setIndex(fn.FileName, b)
	return nil
}

// setIndex files b as the named file's index, which makes the file
// answerable.
func (v *DistMetadataVOL) setIndex(name string, b *builtIndex) {
	v.serveMu.Lock()
	v.indexes[name] = b
	v.serveMu.Unlock()
}

// exchangeIndex is Algorithm 1's exchange: every producer rank sends the
// bounding box of each written data space to the ranks owning intersecting
// blocks of the common decomposition; owners record (box, source). Each
// message opens with the sender's layout id proposal.
func exchangeIndex(local *mpi.Comm, repl int, inputs []indexInput) (*builtIndex, error) {
	n := local.Size()
	var proposal uint64
	for proposal == 0 {
		proposal = rand.Uint64()
	}
	out := make([]*h5.Encoder, n)
	for i := range out {
		out[i] = &h5.Encoder{}
		out[i].PutI64(int64(proposal))
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
	b, err := indexFrom(in)
	if err != nil {
		return nil, err
	}
	b.producers, b.repl, b.inputs = n, repl, inputs
	return b, nil
}

// indexFrom files the n messages of an index exchange, one per source rank,
// into this rank's entries of the file, and takes the largest of the n
// proposals as the build's layout id.
func indexFrom(in [][]byte) (*builtIndex, error) {
	b := &builtIndex{idx: map[string][]indexEntry{}}
	for src, buf := range in {
		id, err := decodeIndexMsg(buf, func(path string, box grid.Box) {
			b.idx[path] = append(b.idx[path], indexEntry{box: box, src: src})
		})
		if err != nil {
			return nil, fmt.Errorf("lowfive: corrupt index message from rank %d: %v", src, err)
		}
		b.id = max(b.id, id)
	}
	return b, nil
}
