package h5

import (
	"fmt"
	"slices"
	"strings"
)

// Object is the user-facing wrapper shared by files and groups: it resolves
// slash-separated paths and delegates single-segment operations to the VOL
// handle underneath.
type Object struct {
	h    ObjectHandle
	path string
}

// File is an open file. It doubles as the root group.
type File struct {
	Object
	name string
}

// Group is an open group.
type Group struct {
	Object
}

// Dataset is an open dataset.
type Dataset struct {
	h    DatasetHandle
	path string
}

// CreateFile creates (truncating) a file through the connector in fapl.
func CreateFile(name string, fapl *FileAccessProps) (*File, error) {
	if fapl == nil || fapl.VOL == nil {
		return nil, fmt.Errorf("h5: CreateFile %q: no VOL connector in file access properties", name)
	}
	h, err := fapl.VOL.FileCreate(name, fapl)
	if err != nil {
		return nil, err
	}
	return &File{Object: Object{h: h, path: name}, name: name}, nil
}

// OpenFile opens an existing file through the connector in fapl.
func OpenFile(name string, fapl *FileAccessProps) (*File, error) {
	if fapl == nil || fapl.VOL == nil {
		return nil, fmt.Errorf("h5: OpenFile %q: no VOL connector in file access properties", name)
	}
	h, err := fapl.VOL.FileOpen(name, fapl)
	if err != nil {
		return nil, err
	}
	return &File{Object: Object{h: h, path: name}, name: name}, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Close closes the file. In LowFive's distributed mode this is the
// synchronization point between producer and consumer.
func (f *File) Close() error { return f.h.Close() }

// Close closes the group handle.
func (g *Group) Close() error { return g.h.Close() }

// Path returns the full path of this object within its file.
func (o *Object) Path() string { return o.path }

// Handle exposes the underlying VOL handle (for transport-layer callers).
func (o *Object) Handle() ObjectHandle { return o.h }

// checkPath validates a slash-separated object path, ignoring leading and
// trailing slashes, and returns it trimmed.
func checkPath(path string) (string, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return "", fmt.Errorf("h5: empty object path")
	}
	for rest, more := path, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		if seg == "" || seg == "." || seg == ".." {
			return "", fmt.Errorf("h5: invalid path %q", path)
		}
	}
	return path, nil
}

// walk opens the intermediate groups of path and returns the parent of its
// last segment. Each intermediate group is closed once its child is open,
// so the caller closes only a returned parent that is not o.h (release).
func (o *Object) walk(path string) (parent ObjectHandle, last string, err error) {
	path, err = checkPath(path)
	if err != nil {
		return nil, "", err
	}
	cur := o.h
	for {
		seg, rest, more := strings.Cut(path, "/")
		if !more {
			return cur, seg, nil
		}
		next, err := cur.GroupOpen(seg)
		o.release(cur)
		if err != nil {
			return nil, "", fmt.Errorf("h5: opening group %q under %q: %w", seg, o.path, err)
		}
		cur, path = next, rest
	}
}

// release closes a handle walk returned, unless it is o's own.
func (o *Object) release(h ObjectHandle) {
	if h != o.h {
		h.Close()
	}
}

// CreateGroup creates a group at the (possibly nested) path; intermediate
// groups must already exist.
func (o *Object) CreateGroup(path string) (*Group, error) {
	parent, last, err := o.walk(path)
	if err != nil {
		return nil, err
	}
	defer o.release(parent)
	h, err := parent.GroupCreate(last)
	if err != nil {
		return nil, err
	}
	return &Group{Object{h: h, path: o.path + "/" + strings.Trim(path, "/")}}, nil
}

// OpenGroup opens a group at the (possibly nested) path.
func (o *Object) OpenGroup(path string) (*Group, error) {
	parent, last, err := o.walk(path)
	if err != nil {
		return nil, err
	}
	defer o.release(parent)
	h, err := parent.GroupOpen(last)
	if err != nil {
		return nil, err
	}
	return &Group{Object{h: h, path: o.path + "/" + strings.Trim(path, "/")}}, nil
}

// CreateDataset creates a dataset of the given type and shape at the path.
func (o *Object) CreateDataset(path string, dt *Datatype, space *Dataspace) (*Dataset, error) {
	if dt == nil || space == nil {
		return nil, fmt.Errorf("h5: CreateDataset %q: nil datatype or dataspace", path)
	}
	parent, last, err := o.walk(path)
	if err != nil {
		return nil, err
	}
	defer o.release(parent)
	h, err := parent.DatasetCreate(last, dt, space.Clone().SelectAll())
	if err != nil {
		return nil, err
	}
	return &Dataset{h: h, path: o.path + "/" + strings.Trim(path, "/")}, nil
}

// OpenDataset opens the dataset at the path.
func (o *Object) OpenDataset(path string) (*Dataset, error) {
	parent, last, err := o.walk(path)
	if err != nil {
		return nil, err
	}
	defer o.release(parent)
	h, err := parent.DatasetOpen(last)
	if err != nil {
		return nil, err
	}
	return &Dataset{h: h, path: o.path + "/" + strings.Trim(path, "/")}, nil
}

// Children lists this object's direct children.
func (o *Object) Children() ([]ObjectInfo, error) { return o.h.Children() }

// Delete unlinks the object at the (possibly nested) path and everything
// under it.
func (o *Object) Delete(path string) error {
	parent, last, err := o.walk(path)
	if err != nil {
		return err
	}
	defer o.release(parent)
	return parent.Delete(last)
}

// WriteAttribute attaches (or replaces) an attribute with n = len(data)/dt.Size
// elements in a 1-d dataspace.
func (o *Object) WriteAttribute(name string, dt *Datatype, data []byte) error {
	if len(data)%dt.Size != 0 {
		return fmt.Errorf("h5: attribute %q data length %d not a multiple of element size %d",
			name, len(data), dt.Size)
	}
	n := int64(len(data)) / int64(dt.Size)
	if n == 0 {
		return fmt.Errorf("h5: attribute %q has no data", name)
	}
	// Caller keeps ownership of data (see Connector); a connector that
	// retains the bytes copies them, so no defensive copy is needed here.
	return o.h.AttributeWrite(name, dt, NewSimple(n), data)
}

// ReadAttribute returns an attribute's type and raw data.
func (o *Object) ReadAttribute(name string) (*Datatype, []byte, error) {
	dt, _, data, err := o.h.AttributeRead(name)
	return dt, data, err
}

// AttributeNames lists the attributes on this object.
func (o *Object) AttributeNames() ([]string, error) { return o.h.AttributeNames() }

// Path returns the dataset's full path within its file.
func (d *Dataset) Path() string { return d.path }

// Handle exposes the underlying VOL handle.
func (d *Dataset) Handle() DatasetHandle { return d.h }

// Datatype returns the element type.
func (d *Dataset) Datatype() *Datatype { return d.h.Datatype() }

// Dataspace returns a copy of the dataset extent with everything selected;
// the caller owns it. This is the one place a dataset's dataspace is
// cloned: the handle only lends its own (DatasetHandle.Dataspace).
func (d *Dataset) Dataspace() *Dataspace { return d.h.Dataspace().Clone().SelectAll() }

// Close releases the dataset.
func (d *Dataset) Close() error { return d.h.Close() }

// Extend changes the dataset's current extent (growing or shrinking) within
// the maximum dims of the dataspace it was created with.
func (d *Dataset) Extend(dims ...int64) error { return d.h.SetExtent(dims) }

// validateTransfer checks the mem/file space pairing shared by Read/Write.
// It reads the handle's lent extent in place and allocates nothing unless
// it fails.
func (d *Dataset) validateTransfer(memSpace, fileSpace *Dataspace, data []byte) error {
	es := int64(d.h.Datatype().Size)
	ext := d.h.Dataspace()
	n := ext.NumPoints()
	if fileSpace != nil {
		if len(fileSpace.dims) != len(ext.dims) {
			return fmt.Errorf("h5: file space rank %d != dataset rank %d", len(fileSpace.dims), len(ext.dims))
		}
		if !slices.Equal(fileSpace.dims, ext.dims) {
			return fmt.Errorf("h5: file space dims %v != dataset dims %v", fileSpace.Dims(), ext.Dims())
		}
		n = fileSpace.NumSelected()
	}
	if memSpace != nil {
		if memSpace.NumSelected() != n {
			return fmt.Errorf("h5: memory selection has %d elements, file selection %d",
				memSpace.NumSelected(), n)
		}
		if need := memSpace.NumPoints() * es; int64(len(data)) < need {
			return fmt.Errorf("h5: buffer %d bytes, memory extent needs %d", len(data), need)
		}
	} else if need := n * es; int64(len(data)) < need {
		return fmt.Errorf("h5: buffer %d bytes, selection needs %d", len(data), need)
	}
	return nil
}

// Write transfers the memSpace-selected elements of data into the
// fileSpace-selected elements of the dataset. A nil fileSpace means the
// whole dataset; a nil memSpace means data is packed in selection order.
func (d *Dataset) Write(memSpace, fileSpace *Dataspace, data []byte) error {
	if err := d.validateTransfer(memSpace, fileSpace, data); err != nil {
		return err
	}
	return d.h.Write(memSpace, fileSpace, data)
}

// Read transfers the fileSpace-selected elements of the dataset into the
// memSpace-selected elements of data. Nil spaces as in Write.
func (d *Dataset) Read(memSpace, fileSpace *Dataspace, data []byte) error {
	if err := d.validateTransfer(memSpace, fileSpace, data); err != nil {
		return err
	}
	return d.h.Read(memSpace, fileSpace, data)
}

// WriteAttribute attaches an attribute to the dataset.
func (d *Dataset) WriteAttribute(name string, dt *Datatype, data []byte) error {
	if len(data)%dt.Size != 0 || len(data) == 0 {
		return fmt.Errorf("h5: attribute %q data length %d invalid for element size %d",
			name, len(data), dt.Size)
	}
	n := int64(len(data)) / int64(dt.Size)
	// Caller keeps ownership of data (see Connector); retaining connectors
	// copy, so no defensive copy here.
	return d.h.AttributeWrite(name, dt, NewSimple(n), data)
}

// ReadAttribute returns an attribute's type and raw data.
func (d *Dataset) ReadAttribute(name string) (*Datatype, []byte, error) {
	dt, _, data, err := d.h.AttributeRead(name)
	return dt, data, err
}

// AttributeNames lists the attributes on this dataset.
func (d *Dataset) AttributeNames() ([]string, error) { return d.h.AttributeNames() }
