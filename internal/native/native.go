// Package native implements the container file format behind the Base VOL:
// an HDF5-stand-in binary layout with a superblock, contiguous dataset
// extents, and a trailing metadata block encoding the full object hierarchy.
//
// The format supports the collective parallel-write pattern the paper's
// file-mode experiments use: every rank opens the same file, dataset
// extents are allocated deterministically from the (collective) creation
// order, each rank writes its own selections with WriteAt, and each rank
// writes the identical metadata block at close — so concurrent closers are
// idempotent, like MPI-IO collective close.
package native

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lowfive/h5"
	"lowfive/internal/core"
	"lowfive/internal/pfs"
)

// Storage is one open file of a backend.
type Storage interface {
	io.ReaderAt
	io.WriterAt
	Size() (int64, error)
	Close() error
}

// Backend resolves file names to storage, e.g. the simulated parallel file
// system or the local OS file system.
type Backend interface {
	Create(name string) (Storage, error)
	Open(name string) (Storage, error)
}

// PFSBackend adapts the simulated parallel file system.
func PFSBackend(fs *pfs.FS) Backend { return pfsBackend{fs} }

type pfsBackend struct{ fs *pfs.FS }

func (b pfsBackend) Create(name string) (Storage, error) { return b.fs.Create(name) }
func (b pfsBackend) Open(name string) (Storage, error)   { return b.fs.Open(name) }

// OSBackend stores container files as real files under a directory.
func OSBackend(dir string) Backend { return osBackend{dir} }

type osBackend struct{ dir string }

func (b osBackend) path(name string) string { return filepath.Join(b.dir, filepath.Base(name)) }

func (b osBackend) Create(name string) (Storage, error) {
	f, err := os.OpenFile(b.path(name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (b osBackend) Open(name string) (Storage, error) {
	f, err := os.OpenFile(b.path(name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

const (
	magic      = "LF5C"
	version    = 1
	headerSize = 24
	dataStart  = 4096
)

// Connector is the Base VOL: native container-file I/O.
type Connector struct {
	be Backend
}

// New builds a native connector over a backend.
func New(be Backend) *Connector { return &Connector{be: be} }

// ConnectorName implements h5.Connector.
func (c *Connector) ConnectorName() string { return "lowfive-native" }

type file struct {
	st      Storage
	tree    *core.FileNode
	extents map[*core.Node]int64
	alloc   int64
	dirty   bool
}

// FileCreate implements h5.Connector.
func (c *Connector) FileCreate(name string, _ *h5.FileAccessProps) (h5.FileHandle, error) {
	st, err := c.be.Create(name)
	if err != nil {
		return nil, fmt.Errorf("native: create %q: %w", name, err)
	}
	f := &file{st: st, tree: core.NewFileNode(name), extents: map[*core.Node]int64{}, alloc: dataStart, dirty: true}
	return &object{f: f, node: f.tree.Node}, nil
}

// FileOpen implements h5.Connector.
func (c *Connector) FileOpen(name string, _ *h5.FileAccessProps) (_ h5.FileHandle, err error) {
	st, err := c.be.Open(name)
	if err != nil {
		return nil, fmt.Errorf("native: open %q: %w", name, err)
	}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	var hdr [headerSize]byte
	if _, err := st.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("native: %q: reading superblock: %w", name, err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("native: %q is not a container file (bad magic %q)", name, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != version {
		return nil, fmt.Errorf("native: %q has unsupported version %d", name, v)
	}
	metaOff := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	metaLen := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	size, err := st.Size()
	if err != nil {
		return nil, fmt.Errorf("native: %q: reading size: %w", name, err)
	}
	if metaOff < headerSize || metaLen < 0 || metaOff > size-metaLen {
		return nil, fmt.Errorf("native: %q: corrupt superblock", name)
	}
	meta := make([]byte, metaLen)
	if _, err := st.ReadAt(meta, metaOff); err != nil {
		return nil, fmt.Errorf("native: %q: reading metadata block: %w", name, err)
	}
	f := &file{st: st, extents: map[*core.Node]int64{}, alloc: metaOff}
	dec := &h5.Decoder{Buf: meta}
	root, err := core.DecodeTree(dec, f.extentExtra())
	if err != nil {
		return nil, fmt.Errorf("native: %q: corrupt metadata: %w", name, err)
	}
	f.tree = &core.FileNode{Node: root, FileName: name}
	return &object{f: f, node: root}, nil
}

// extentExtra encodes/decodes the per-dataset extent offset.
func (f *file) extentExtra() *core.NodeExtra {
	return &core.NodeExtra{
		Encode: func(e *h5.Encoder, n *core.Node) {
			if n.Kind == h5.KindDataset {
				e.PutI64(f.extents[n])
			}
		},
		Decode: func(d *h5.Decoder, n *core.Node) {
			if n.Kind == h5.KindDataset {
				f.extents[n] = d.I64()
			}
		},
	}
}

func (f *file) writeMetadata() error {
	var e h5.Encoder
	core.EncodeTree(&e, f.tree.Node, f.extentExtra())
	if _, err := f.st.WriteAt(e.Buf, f.alloc); err != nil {
		return fmt.Errorf("native: writing metadata block: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(f.alloc))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(e.Buf)))
	if _, err := f.st.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("native: writing superblock: %w", err)
	}
	return nil
}

// object is a handle to the file root or a group.
type object struct {
	f    *file
	node *core.Node
}

func (o *object) GroupCreate(name string) (h5.ObjectHandle, error) {
	g := core.NewGroupNode(name)
	if err := o.node.AddChild(g); err != nil {
		return nil, err
	}
	o.f.dirty = true
	return &object{f: o.f, node: g}, nil
}

func (o *object) GroupOpen(name string) (h5.ObjectHandle, error) {
	g, ok := o.node.Child(name)
	if !ok || g.Kind != h5.KindGroup {
		return nil, fmt.Errorf("native: group %q not found under %q", name, o.node.Path())
	}
	return &object{f: o.f, node: g}, nil
}

func (o *object) DatasetCreate(name string, dt *h5.Datatype, space *h5.Dataspace) (h5.DatasetHandle, error) {
	// The contiguous layout reserves the maximum extent up front, so the
	// dataset can later be extended in place; unbounded dims cannot be
	// stored contiguously (real HDF5 requires chunked layout there too).
	size := int64(dt.Size)
	for _, m := range space.MaxDims() {
		if m == h5.Unlimited {
			return nil, fmt.Errorf("native: dataset %q has an unlimited dimension; the contiguous container layout requires bounded max dims", name)
		}
		size *= m
	}
	n := core.NewDatasetNode(name, dt, space.Clone().SelectAll())
	if err := o.node.AddChild(n); err != nil {
		return nil, err
	}
	o.f.extents[n] = o.f.alloc
	o.f.alloc += (size + 7) &^ 7 // 8-byte alignment
	o.f.dirty = true
	return &dataset{f: o.f, node: n}, nil
}

func (o *object) DatasetOpen(name string) (h5.DatasetHandle, error) {
	n, ok := o.node.Child(name)
	if !ok || n.Kind != h5.KindDataset {
		return nil, fmt.Errorf("native: dataset %q not found under %q", name, o.node.Path())
	}
	return &dataset{f: o.f, node: n}, nil
}

func (o *object) Children() ([]h5.ObjectInfo, error) {
	var out []h5.ObjectInfo
	for _, c := range o.node.Children() {
		out = append(out, h5.ObjectInfo{Name: c.Name, Kind: c.Kind})
	}
	return out, nil
}

// Delete unlinks a child from the metadata tree. Like HDF5, the space the
// deleted dataset occupied in the container file is not reclaimed (no
// h5repack here); it simply becomes unreachable.
func (o *object) Delete(name string) error {
	if err := o.node.RemoveChild(name); err != nil {
		return err
	}
	o.f.dirty = true
	return nil
}

func (o *object) AttributeWrite(name string, dt *h5.Datatype, space *h5.Dataspace, data []byte) error {
	// The tree retains the attribute until the metadata flush; the caller
	// keeps ownership of data (VOL contract), so copy here.
	o.node.SetAttribute(&core.Attribute{Name: name, Type: dt, Space: space, Data: append([]byte(nil), data...)})
	o.f.dirty = true
	return nil
}

func (o *object) AttributeRead(name string) (*h5.Datatype, *h5.Dataspace, []byte, error) {
	a, ok := o.node.Attribute(name)
	if !ok {
		return nil, nil, nil, fmt.Errorf("native: attribute %q not found on %q", name, o.node.Path())
	}
	return a.Type, a.Space, a.Data, nil
}

func (o *object) AttributeNames() ([]string, error) { return o.node.AttributeNames(), nil }

// Close flushes metadata if this handle is the file root and the tree
// changed; group handles close without I/O.
func (o *object) Close() error {
	if o.node.Parent != nil {
		return nil // plain group
	}
	if o.f.dirty {
		if err := o.f.writeMetadata(); err != nil {
			return err
		}
		o.f.dirty = false
	}
	return o.f.st.Close()
}

// dataset is a handle to one dataset's extent.
type dataset struct {
	f    *file
	node *core.Node
}

func (d *dataset) Datatype() *h5.Datatype   { return d.node.Type }
func (d *dataset) Dataspace() *h5.Dataspace { return d.node.Space }

// runLayout converts a file-space selection into byte offsets/lengths
// within the dataset's extent. The on-disk layout is row-major over the
// MAXIMUM dims, so extending the dataset never relocates existing data.
func (d *dataset) runLayout(fileSpace *h5.Dataspace) (offs, lens []int64) {
	es := int64(d.node.Type.Size)
	base := d.f.extents[d.node]
	layout := d.node.Space.MaxDims()
	for _, b := range fileSpace.Boxes() {
		b.Runs(layout, func(off, n int64) {
			offs = append(offs, base+off*es)
			lens = append(lens, n*es)
		})
	}
	return offs, lens
}

// RunStorage is implemented by backends supporting vectored transfers with
// aggregate cost accounting (MPI-IO collective style); the simulated
// parallel file system does.
type RunStorage interface {
	WriteRuns(packed []byte, offs, lens []int64) error
	ReadRuns(dst []byte, offs, lens []int64) error
}

// Write packs the memSpace-selected elements and writes the file-space
// runs at their extent offsets — as one vectored request when the backend
// supports it.
func (d *dataset) Write(memSpace, fileSpace *h5.Dataspace, data []byte) error {
	es := int64(d.node.Type.Size)
	if fileSpace == nil {
		fileSpace = d.node.Space
	}
	var packed []byte
	if memSpace == nil {
		packed = data
	} else {
		packed = h5.GatherSelected(make([]byte, 0, fileSpace.NumSelected()*es), data, memSpace, int(es))
	}
	offs, lens := d.runLayout(fileSpace)
	if rs, ok := d.f.st.(RunStorage); ok {
		return rs.WriteRuns(packed, offs, lens)
	}
	pos := int64(0)
	for i := range offs {
		if _, err := d.f.st.WriteAt(packed[pos:pos+lens[i]], offs[i]); err != nil {
			return err
		}
		pos += lens[i]
	}
	return nil
}

// Read fetches the file-space runs — as one vectored request when the
// backend supports it — straight into data when memSpace is nil, and
// otherwise into a packed buffer scattered into the memSpace-selected
// elements of data.
func (d *dataset) Read(memSpace, fileSpace *h5.Dataspace, data []byte) error {
	es := int64(d.node.Type.Size)
	if fileSpace == nil {
		fileSpace = d.node.Space
	}
	var packed []byte
	if n := fileSpace.NumSelected() * es; memSpace == nil {
		packed = data[:n]
	} else {
		packed = make([]byte, n)
	}
	offs, lens := d.runLayout(fileSpace)
	if rs, ok := d.f.st.(RunStorage); ok {
		if err := rs.ReadRuns(packed, offs, lens); err != nil {
			return err
		}
	} else {
		pos := int64(0)
		for i := range offs {
			if _, err := d.f.st.ReadAt(packed[pos:pos+lens[i]], offs[i]); err != nil {
				return err
			}
			pos += lens[i]
		}
	}
	if memSpace != nil {
		h5.ScatterSelected(data, memSpace, packed, int(es))
	}
	return nil
}

// SetExtent changes the current extent within the reserved maximum. The
// on-disk layout is fixed over the maximum dims, so extending never moves
// data already written.
func (d *dataset) SetExtent(dims []int64) error {
	if err := d.node.Space.SetExtent(dims); err != nil {
		return err
	}
	d.f.dirty = true
	return nil
}

func (d *dataset) AttributeWrite(name string, dt *h5.Datatype, space *h5.Dataspace, data []byte) error {
	// Copy at the retention point: the caller keeps ownership of data.
	d.node.SetAttribute(&core.Attribute{Name: name, Type: dt, Space: space, Data: append([]byte(nil), data...)})
	d.f.dirty = true
	return nil
}

func (d *dataset) AttributeRead(name string) (*h5.Datatype, *h5.Dataspace, []byte, error) {
	a, ok := d.node.Attribute(name)
	if !ok {
		return nil, nil, nil, fmt.Errorf("native: attribute %q not found on %q", name, d.node.Path())
	}
	return a.Type, a.Space, a.Data, nil
}

func (d *dataset) AttributeNames() ([]string, error) { return d.node.AttributeNames(), nil }

func (d *dataset) Close() error { return nil }
