package core

import (
	"fmt"
	"path"
	"strings"
	"sync"

	"lowfive/h5"
)

// MetadataVOL is the middle VOL class (§III-A-b): it replicates the user's
// HDF5 hierarchy in memory, holding data triples per dataset, and can
// additionally pass operations through to a base connector (native file
// I/O) per file-name pattern.
//
// A fresh MetadataVOL keeps every file in memory only. Use SetPassthru /
// SetMemory with glob patterns to choose per file, and SetZeroCopy to make
// matching datasets store shallow references instead of deep copies.
//
// Instances are per-process (per-rank) and not safe for concurrent use,
// matching the single-threaded MPI rank model.
type MetadataVOL struct {
	base h5.Connector

	// filesMu guards the files map: with asynchronous serving, a background
	// serve goroutine looks files up while the application creates the next
	// timestep's file.
	filesMu sync.Mutex
	files   map[string]*FileNode

	memory   []patternFlag
	passthru []patternFlag
	zeroCopy []dsetPattern
}

type patternFlag struct {
	pat string
	on  bool
}

type dsetPattern struct {
	filePat string
	dsetPat string
}

// NewMetadataVOL builds a metadata VOL. base may be nil if no file is ever
// passed through to storage.
func NewMetadataVOL(base h5.Connector) *MetadataVOL {
	return &MetadataVOL{base: base, files: map[string]*FileNode{}, memory: []patternFlag{{"*", true}}}
}

// ConnectorName implements h5.Connector.
func (v *MetadataVOL) ConnectorName() string { return "lowfive-metadata" }

// SetMemory turns the in-memory metadata hierarchy on or off for files
// matching the glob pattern. Later settings take precedence.
func (v *MetadataVOL) SetMemory(filePat string, on bool) {
	v.memory = append(v.memory, patternFlag{filePat, on})
}

// SetPassthru turns base-connector (file) passthrough on or off for files
// matching the glob pattern. Later settings take precedence.
func (v *MetadataVOL) SetPassthru(filePat string, on bool) {
	v.passthru = append(v.passthru, patternFlag{filePat, on})
}

// SetZeroCopy makes datasets matching (file pattern, dataset-path pattern)
// store shallow references to user buffers rather than deep copies.
func (v *MetadataVOL) SetZeroCopy(filePat, dsetPat string) {
	v.zeroCopy = append(v.zeroCopy, dsetPattern{filePat, dsetPat})
}

func matchPattern(pat, name string) bool {
	ok, err := path.Match(pat, name)
	return err == nil && ok
}

func lastMatch(list []patternFlag, name string, def bool) bool {
	out := def
	for _, pf := range list {
		if matchPattern(pf.pat, name) {
			out = pf.on
		}
	}
	return out
}

// memoryOn reports whether the file is kept in memory.
func (v *MetadataVOL) memoryOn(name string) bool { return lastMatch(v.memory, name, false) }

// passthruOn reports whether the file is written through to the base.
func (v *MetadataVOL) passthruOn(name string) bool { return lastMatch(v.passthru, name, false) }

// matchDataset matches a pattern against dataset n, whose path is like
// "/group1/grid". path.Match's `*` never crosses a separator, so a pattern
// without one ("*", "grid*") is matched against the path's base name, which
// is n.Name — making SetZeroCopy("*", "*") cover datasets inside groups, as
// intended — while only a pattern containing a separator builds the full
// path to match against.
func matchDataset(pat string, n *Node) bool {
	if !strings.Contains(pat, "/") {
		return matchPattern(pat, n.Name)
	}
	return matchPattern(pat, n.Path())
}

func (v *MetadataVOL) zeroCopyOn(fileName string, n *Node) bool {
	for _, zp := range v.zeroCopy {
		if matchPattern(zp.filePat, fileName) && matchDataset(zp.dsetPat, n) {
			return true
		}
	}
	return false
}

// File returns the in-memory file node (for tools and tests).
func (v *MetadataVOL) File(name string) (*FileNode, bool) {
	v.filesMu.Lock()
	defer v.filesMu.Unlock()
	f, ok := v.files[name]
	return f, ok
}

// RemoveFile drops an in-memory file, releasing its data.
func (v *MetadataVOL) RemoveFile(name string) {
	v.filesMu.Lock()
	delete(v.files, name)
	v.filesMu.Unlock()
}

// FileNames lists the in-memory files.
func (v *MetadataVOL) FileNames() []string {
	v.filesMu.Lock()
	defer v.filesMu.Unlock()
	out := make([]string, 0, len(v.files))
	for n := range v.files {
		out = append(out, n)
	}
	return out
}

// putFile registers an in-memory file root.
func (v *MetadataVOL) putFile(name string, fn *FileNode) {
	v.filesMu.Lock()
	v.files[name] = fn
	v.filesMu.Unlock()
}

// FileCreate implements h5.Connector.
func (v *MetadataVOL) FileCreate(name string, fapl *h5.FileAccessProps) (h5.FileHandle, error) {
	mem := v.memoryOn(name)
	pass := v.passthruOn(name)
	if !mem && !pass {
		return nil, fmt.Errorf("lowfive: file %q matches neither memory nor passthru patterns", name)
	}
	mf := &metaFile{vol: v, name: name}
	if mem {
		fn := NewFileNode(name)
		v.putFile(name, fn)
		mf.node = fn.Node
	}
	if pass {
		if v.base == nil {
			return nil, fmt.Errorf("lowfive: passthru requested for %q but no base connector", name)
		}
		bh, err := v.base.FileCreate(name, fapl)
		if err != nil {
			return nil, err
		}
		mf.base = bh
	}
	return mf, nil
}

// FileOpen implements h5.Connector. An in-memory file (left behind by a
// previous create in this process) is preferred; otherwise the open passes
// through to the base connector.
func (v *MetadataVOL) FileOpen(name string, fapl *h5.FileAccessProps) (h5.FileHandle, error) {
	if fn, ok := v.File(name); ok && v.memoryOn(name) {
		return &metaFile{vol: v, name: name, node: fn.Node}, nil
	}
	if v.base != nil {
		bh, err := v.base.FileOpen(name, fapl)
		if err != nil {
			return nil, err
		}
		return &metaFile{vol: v, name: name, base: bh}, nil
	}
	return nil, fmt.Errorf("lowfive: file %q not in memory and no base connector", name)
}

// onFileClose is overridden by the distributed VOL (via the hook field on
// metaFile) — the base metadata VOL does nothing special at close.

// metaFile is the root handle; metaObject/metaDataset mirror child handles.
// Each holds the in-memory node (if the file is in memory) and the base
// handle (if the file passes through), applying every operation to both.
type metaFile struct {
	vol  *MetadataVOL
	name string
	node *Node         // nil when passthru-only
	base h5.FileHandle // nil when memory-only

	closeHook func(*metaFile) error // set by DistMetadataVOL
}

type metaObject struct {
	vol  *MetadataVOL
	file *metaFile
	node *Node
	base h5.ObjectHandle
}

type metaDataset struct {
	vol  *MetadataVOL
	file *metaFile
	node *Node
	base h5.DatasetHandle
}

func (f *metaFile) asObject() *metaObject {
	return &metaObject{vol: f.vol, file: f, node: f.node, base: f.base}
}

// --- group-level operations (shared by file root and groups) ---

func (o *metaObject) GroupCreate(name string) (h5.ObjectHandle, error) {
	child := &metaObject{vol: o.vol, file: o.file}
	if o.node != nil {
		g := NewGroupNode(name)
		if err := o.node.AddChild(g); err != nil {
			return nil, err
		}
		child.node = g
	}
	if o.base != nil {
		bg, err := o.base.GroupCreate(name)
		if err != nil {
			return nil, err
		}
		child.base = bg
	}
	return child, nil
}

func (o *metaObject) GroupOpen(name string) (h5.ObjectHandle, error) {
	child := &metaObject{vol: o.vol, file: o.file}
	if o.node != nil {
		g, ok := o.node.Child(name)
		if !ok || g.Kind != h5.KindGroup {
			return nil, fmt.Errorf("lowfive: group %q not found under %q", name, o.node.Path())
		}
		child.node = g
	}
	if o.base != nil {
		bg, err := o.base.GroupOpen(name)
		if err != nil {
			if o.node != nil {
				// Memory copy exists even though the base lacks it; serve from memory.
				child.base = nil
				return child, nil
			}
			return nil, err
		}
		child.base = bg
	}
	if child.node == nil && child.base == nil {
		return nil, fmt.Errorf("lowfive: group %q not found", name)
	}
	return child, nil
}

func (o *metaObject) DatasetCreate(name string, dt *h5.Datatype, space *h5.Dataspace) (h5.DatasetHandle, error) {
	ds := &metaDataset{vol: o.vol, file: o.file}
	if o.node != nil {
		// space is already this dataset's own copy (h5.CreateDataset
		// cloned it), so the node keeps it, everything selected: handles
		// lend it as the extent.
		n := NewDatasetNode(name, dt, space.SelectAll())
		if err := o.node.AddChild(n); err != nil {
			return nil, err
		}
		if o.vol.zeroCopyOn(o.file.name, n) {
			n.Ownership = OwnShallow
		}
		ds.node = n
	}
	if o.base != nil {
		bd, err := o.base.DatasetCreate(name, dt, space)
		if err != nil {
			return nil, err
		}
		ds.base = bd
	}
	return ds, nil
}

func (o *metaObject) DatasetOpen(name string) (h5.DatasetHandle, error) {
	ds := &metaDataset{vol: o.vol, file: o.file}
	if o.node != nil {
		n, ok := o.node.Child(name)
		if !ok || n.Kind != h5.KindDataset {
			return nil, fmt.Errorf("lowfive: dataset %q not found under %q", name, o.node.Path())
		}
		ds.node = n
	}
	if o.base != nil {
		bd, err := o.base.DatasetOpen(name)
		if err != nil {
			if o.node != nil {
				return ds, nil
			}
			return nil, err
		}
		ds.base = bd
	}
	if ds.node == nil && ds.base == nil {
		return nil, fmt.Errorf("lowfive: dataset %q not found", name)
	}
	return ds, nil
}

func (o *metaObject) Children() ([]h5.ObjectInfo, error) {
	if o.node != nil {
		var out []h5.ObjectInfo
		for _, c := range o.node.Children() {
			out = append(out, h5.ObjectInfo{Name: c.Name, Kind: c.Kind})
		}
		return out, nil
	}
	return o.base.Children()
}

func (o *metaObject) Delete(name string) error {
	if o.node != nil {
		if err := o.node.RemoveChild(name); err != nil {
			return err
		}
	}
	if o.base != nil {
		return o.base.Delete(name)
	}
	return nil
}

func (o *metaObject) AttributeWrite(name string, dt *h5.Datatype, space *h5.Dataspace, data []byte) error {
	if o.node != nil {
		// The VOL boundary contract says the caller keeps ownership of data;
		// this connector retains attributes in the tree, so it copies here.
		o.node.SetAttribute(&Attribute{Name: name, Type: dt, Space: space, Data: append([]byte(nil), data...)})
	}
	if o.base != nil {
		return o.base.AttributeWrite(name, dt, space, data)
	}
	return nil
}

func (o *metaObject) AttributeRead(name string) (*h5.Datatype, *h5.Dataspace, []byte, error) {
	if o.node != nil {
		a, ok := o.node.Attribute(name)
		if !ok {
			return nil, nil, nil, fmt.Errorf("lowfive: attribute %q not found on %q", name, o.node.Path())
		}
		return a.Type, a.Space, a.Data, nil
	}
	return o.base.AttributeRead(name)
}

func (o *metaObject) AttributeNames() ([]string, error) {
	if o.node != nil {
		return o.node.AttributeNames(), nil
	}
	return o.base.AttributeNames()
}

func (o *metaObject) Close() error {
	if o.base != nil {
		return o.base.Close()
	}
	return nil
}

// --- file handle ---

func (f *metaFile) GroupCreate(name string) (h5.ObjectHandle, error) {
	return f.asObject().GroupCreate(name)
}
func (f *metaFile) GroupOpen(name string) (h5.ObjectHandle, error) {
	return f.asObject().GroupOpen(name)
}
func (f *metaFile) DatasetCreate(name string, dt *h5.Datatype, space *h5.Dataspace) (h5.DatasetHandle, error) {
	return f.asObject().DatasetCreate(name, dt, space)
}
func (f *metaFile) DatasetOpen(name string) (h5.DatasetHandle, error) {
	return f.asObject().DatasetOpen(name)
}
func (f *metaFile) Children() ([]h5.ObjectInfo, error) { return f.asObject().Children() }
func (f *metaFile) Delete(name string) error           { return f.asObject().Delete(name) }
func (f *metaFile) AttributeWrite(name string, dt *h5.Datatype, space *h5.Dataspace, data []byte) error {
	return f.asObject().AttributeWrite(name, dt, space, data)
}
func (f *metaFile) AttributeRead(name string) (*h5.Datatype, *h5.Dataspace, []byte, error) {
	return f.asObject().AttributeRead(name)
}
func (f *metaFile) AttributeNames() ([]string, error) { return f.asObject().AttributeNames() }

// Close closes the base file (flushing it to storage) and fires the
// distributed close hook — the producer-side serve / consumer-side done
// signaling happens there.
func (f *metaFile) Close() error {
	var err error
	if f.base != nil {
		err = f.base.Close()
	}
	if f.closeHook != nil {
		if herr := f.closeHook(f); err == nil {
			err = herr
		}
	}
	return err
}

// --- dataset handle ---

func (d *metaDataset) Datatype() *h5.Datatype {
	if d.node != nil {
		return d.node.Type
	}
	return d.base.Datatype()
}

func (d *metaDataset) Dataspace() *h5.Dataspace {
	if d.node != nil {
		return d.node.Space
	}
	return d.base.Dataspace()
}

func (d *metaDataset) Write(memSpace, fileSpace *h5.Dataspace, data []byte) error {
	if d.node != nil {
		if err := d.node.RecordWrite(memSpace, fileSpace, data); err != nil {
			return err
		}
	}
	if d.base != nil {
		return d.base.Write(memSpace, fileSpace, data)
	}
	return nil
}

func (d *metaDataset) Read(memSpace, fileSpace *h5.Dataspace, data []byte) error {
	if d.node != nil {
		packed, err := d.node.ReadPacked(fileSpace)
		if err != nil {
			return err
		}
		if memSpace == nil {
			copy(data, packed)
			return nil
		}
		h5.ScatterSelected(data, memSpace, packed, d.node.Type.Size)
		return nil
	}
	return d.base.Read(memSpace, fileSpace, data)
}

func (d *metaDataset) SetExtent(dims []int64) error {
	if d.node != nil {
		if err := d.node.Space.SetExtent(dims); err != nil {
			return err
		}
	}
	if d.base != nil {
		return d.base.SetExtent(dims)
	}
	return nil
}

func (d *metaDataset) AttributeWrite(name string, dt *h5.Datatype, space *h5.Dataspace, data []byte) error {
	if d.node != nil {
		// Caller keeps ownership of data (VOL boundary contract); the tree
		// retains the attribute, so copy at the retention point.
		d.node.SetAttribute(&Attribute{Name: name, Type: dt, Space: space, Data: append([]byte(nil), data...)})
	}
	if d.base != nil {
		return d.base.AttributeWrite(name, dt, space, data)
	}
	return nil
}

func (d *metaDataset) AttributeRead(name string) (*h5.Datatype, *h5.Dataspace, []byte, error) {
	if d.node != nil {
		a, ok := d.node.Attribute(name)
		if !ok {
			return nil, nil, nil, fmt.Errorf("lowfive: attribute %q not found on %q", name, d.node.Path())
		}
		return a.Type, a.Space, a.Data, nil
	}
	return d.base.AttributeRead(name)
}

func (d *metaDataset) AttributeNames() ([]string, error) {
	if d.node != nil {
		return d.node.AttributeNames(), nil
	}
	return d.base.AttributeNames()
}

func (d *metaDataset) Close() error {
	if d.base != nil {
		return d.base.Close()
	}
	return nil
}
