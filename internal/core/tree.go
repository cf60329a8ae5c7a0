// Package core implements the paper's contribution: the LowFive transport
// layer, structured exactly as the three VOL classes of §III-A:
//
//   - BaseVOL passes every operation through to native container-file I/O.
//   - MetadataVOL (deriving from base) replicates the user's HDF5 hierarchy
//     in an in-memory metadata tree (Figure 1), holding deep copies or
//     shallow references of written data, per-dataset configurable, and can
//     combine in-memory operation with file passthrough per file pattern.
//   - DistMetadataVOL (deriving from metadata) adds the distributed
//     producer/consumer protocol: index–serve–query data redistribution
//     over MPI intercommunicators (Algorithms 1–3).
package core

import (
	"fmt"
	"strings"
	"sync"

	"lowfive/h5"
	"lowfive/internal/grid"
)

// Ownership says whether the metadata tree owns a dataset's bytes (deep
// copy) or only references the user's buffer (shallow / zero-copy).
type Ownership uint8

const (
	// OwnDeep snapshots written data into the tree at write time; the user
	// may immediately reuse their buffer.
	OwnDeep Ownership = iota
	// OwnShallow stores a reference to the user's buffer; the user must not
	// modify it until the data has been consumed (file closed and served).
	OwnShallow
)

// Triple is one write operation recorded in the tree: the data space it
// covers in the file, the memory space describing the (possibly strided)
// layout of Data, and the bytes themselves. The paper's producers record
// one triple per H5Dwrite.
type Triple struct {
	// FileSpace is the region of the dataset this write covers.
	FileSpace *h5.Dataspace
	// MemSpace is the layout of Data; nil means packed in FileSpace
	// selection order.
	MemSpace *h5.Dataspace
	// Data holds the bytes (owned copy or user reference, per Owned).
	Data []byte
	// Owned reports whether Data is the tree's own copy.
	Owned bool

	packOnce sync.Once
	packed   []byte // lazily packed selection-order bytes for shallow triples
}

// PackedData returns the triple's bytes packed in FileSpace selection
// order, gathering (and caching) from a shallow user buffer on first use —
// this is the moment a zero-copy write finally pays its serialization cost,
// and only if the data is actually consumed. The cache fill is a sync.Once:
// with admission control, several data streams can pack the same triple
// concurrently.
func (t *Triple) PackedData(elemSize int) []byte {
	if t.MemSpace == nil {
		return t.Data
	}
	t.packOnce.Do(func() {
		t.packed = h5.GatherSelected(nil, t.Data, t.MemSpace, elemSize)
	})
	return t.packed
}

// Node is one object of the in-memory metadata hierarchy (Figure 1): a
// group or a dataset, with attributes, children and parent links.
type Node struct {
	Name   string
	Kind   h5.ObjectKind
	Parent *Node

	children []*Node
	childIdx map[string]*Node

	attrNames []string
	attrs     map[string]*Attribute

	// Dataset fields.
	Type      *h5.Datatype
	Space     *h5.Dataspace
	Triples   []*Triple
	Ownership Ownership
}

// Attribute is a small named, typed value attached to any object.
type Attribute struct {
	Name  string
	Type  *h5.Datatype
	Space *h5.Dataspace
	Data  []byte
}

// NewGroupNode creates a group node.
func NewGroupNode(name string) *Node {
	return &Node{Name: name, Kind: h5.KindGroup, childIdx: map[string]*Node{}, attrs: map[string]*Attribute{}}
}

// NewDatasetNode creates a dataset node.
func NewDatasetNode(name string, dt *h5.Datatype, space *h5.Dataspace) *Node {
	return &Node{
		Name: name, Kind: h5.KindDataset, Type: dt, Space: space,
		childIdx: map[string]*Node{}, attrs: map[string]*Attribute{},
	}
}

// AddChild links a child node, rejecting duplicates.
func (n *Node) AddChild(c *Node) error {
	if n.Kind != h5.KindGroup {
		return fmt.Errorf("lowfive: %q is not a group", n.Name)
	}
	if _, dup := n.childIdx[c.Name]; dup {
		return fmt.Errorf("lowfive: %q already exists in %q", c.Name, n.Name)
	}
	c.Parent = n
	n.children = append(n.children, c)
	n.childIdx[c.Name] = c
	return nil
}

// Child returns the named direct child.
func (n *Node) Child(name string) (*Node, bool) {
	c, ok := n.childIdx[name]
	return c, ok
}

// RemoveChild unlinks the named direct child (group or dataset), releasing
// its subtree.
func (n *Node) RemoveChild(name string) error {
	c, ok := n.childIdx[name]
	if !ok {
		return fmt.Errorf("lowfive: %q not found under %q", name, n.Path())
	}
	delete(n.childIdx, name)
	for i, k := range n.children {
		if k == c {
			n.children = append(n.children[:i], n.children[i+1:]...)
			break
		}
	}
	c.Parent = nil
	return nil
}

// Children lists direct children in creation order.
func (n *Node) Children() []*Node { return n.children }

// Path returns the slash-separated path from the root (the file node).
func (n *Node) Path() string {
	if n.Parent == nil {
		return "/"
	}
	p := n.Parent.Path()
	if p == "/" {
		return "/" + n.Name
	}
	return p + "/" + n.Name
}

// SetAttribute creates or replaces an attribute.
func (n *Node) SetAttribute(a *Attribute) {
	if _, exists := n.attrs[a.Name]; !exists {
		n.attrNames = append(n.attrNames, a.Name)
	}
	n.attrs[a.Name] = a
}

// Attribute returns the named attribute.
func (n *Node) Attribute(name string) (*Attribute, bool) {
	a, ok := n.attrs[name]
	return a, ok
}

// AttributeNames lists attributes in creation order.
func (n *Node) AttributeNames() []string { return append([]string(nil), n.attrNames...) }

// RecordWrite appends a write triple to a dataset node, honoring the node's
// ownership mode: deep copies gather into a packed owned buffer
// immediately; shallow keeps the user's buffer and spaces.
func (n *Node) RecordWrite(memSpace, fileSpace *h5.Dataspace, data []byte) error {
	if n.Kind != h5.KindDataset {
		return fmt.Errorf("lowfive: write to non-dataset %q", n.Name)
	}
	// The triple keeps its own copy of the file selection, made once: the
	// caller may change its dataspace after the write, and the node's
	// extent changes in place on SetExtent.
	if fileSpace == nil {
		fileSpace = n.Space
	}
	fileSpace = fileSpace.Clone()
	es := n.Type.Size
	switch n.Ownership {
	case OwnDeep:
		var packed []byte
		if memSpace == nil {
			packed = append([]byte(nil), data[:fileSpace.NumSelected()*int64(es)]...)
		} else {
			packed = h5.GatherSelected(make([]byte, 0, fileSpace.NumSelected()*int64(es)), data, memSpace, es)
		}
		n.Triples = append(n.Triples, &Triple{FileSpace: fileSpace, Data: packed, Owned: true})
	case OwnShallow:
		n.Triples = append(n.Triples, &Triple{
			FileSpace: fileSpace,
			MemSpace:  cloneOrNil(memSpace),
			Data:      data,
		})
	default:
		return fmt.Errorf("lowfive: unknown ownership %d", n.Ownership)
	}
	return nil
}

func cloneOrNil(s *h5.Dataspace) *h5.Dataspace {
	if s == nil {
		return nil
	}
	return s.Clone()
}

// ReadPacked assembles the fileSel-selected region of the dataset from its
// triples, packed in fileSel selection order. Later triples overwrite
// earlier ones where they overlap; unwritten elements read as zero (the
// HDF5 default fill value).
func (n *Node) ReadPacked(fileSel *h5.Dataspace) ([]byte, error) {
	if n.Kind != h5.KindDataset {
		return nil, fmt.Errorf("lowfive: read from non-dataset %q", n.Name)
	}
	es := int64(n.Type.Size)
	if fileSel == nil {
		fileSel = n.Space
	}
	dst := make([]byte, fileSel.NumSelected()*es)
	// Selections are read in place; intersections land in one scratch box.
	var region grid.Box
	reqBase := int64(0)
	for _, rb := range fileSel.Boxes() {
		if region.Min == nil {
			region = rb.Clone()
		}
		for _, tr := range n.Triples {
			packed := tr.PackedData(int(es))
			triBase := int64(0)
			for _, tb := range tr.FileSpace.Boxes() {
				if tb.Intersects(rb) {
					tb.IntersectInto(rb, region)
					grid.CopyRegion(dst[reqBase*es:], rb, packed[triBase*es:], tb, region, int(es))
				}
				triBase += tb.NumPoints()
			}
		}
		reqBase += rb.NumPoints()
	}
	return dst, nil
}

// WrittenBoxes returns the bounding boxes of every triple's file space —
// the "local data spaces written by the individual HDF5 write operations"
// that the index step advertises (Alg. 1 line 5–6).
func (n *Node) WrittenBoxes() []grid.Box {
	var out []grid.Box
	for _, tr := range n.Triples {
		b := tr.FileSpace.Bounds()
		if !b.IsEmpty() {
			out = append(out, b)
		}
	}
	return out
}

// FileNode is the root of one file's metadata hierarchy.
type FileNode struct {
	*Node
	FileName string
}

// NewFileNode creates a file root.
func NewFileNode(name string) *FileNode {
	return &FileNode{Node: NewGroupNode("/"), FileName: name}
}

// Resolve walks a slash-separated path from this node. Empty segments —
// leading, trailing or doubled slashes — are skipped; the walk allocates
// nothing.
func (n *Node) Resolve(path string) (*Node, error) {
	cur := n
	for rest := path; rest != ""; {
		var seg string
		seg, rest, _ = strings.Cut(rest, "/")
		if seg == "" {
			continue
		}
		c, ok := cur.Child(seg)
		if !ok {
			return nil, fmt.Errorf("lowfive: %q not found under %q", seg, cur.Path())
		}
		cur = c
	}
	return cur, nil
}

// splitSegs returns the non-empty segments of a slash-separated path, the
// ones Resolve walks.
func splitSegs(path string) []string {
	return strings.FieldsFunc(path, func(r rune) bool { return r == '/' })
}
