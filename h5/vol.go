package h5

// The Virtual Object Layer. Every h5 API call on files, groups, datasets
// and attributes is routed through a Connector chosen per file in the
// FileAccessProps, mirroring HDF5 1.12's VOL plugin architecture that
// LowFive is built on. Connectors receive single-segment names; path
// splitting on '/' happens in the API layer.
//
// Buffer ownership at the VOL boundary: the CALLER keeps ownership of every
// []byte it passes down (Write, AttributeWrite). The API layer never makes
// defensive copies; a connector that retains the bytes beyond the call —
// storing an attribute in a tree, keeping a deep-copy triple — must copy at
// its own retention point, and a connector that merely forwards or consumes
// them (passthrough, serialization) must not. The one deliberate exception
// is zero-copy dataset writes (MetadataVOL.SetZeroCopy), where the caller
// explicitly extends its buffer's lifetime until the file's close serves
// consumers. This is what lets the streaming data plane move dataset bytes
// end to end with a single gather per hop instead of one copy per layer.

// ObjectKind distinguishes the node types of the hierarchy.
type ObjectKind uint8

const (
	// KindGroup is an interior node.
	KindGroup ObjectKind = iota
	// KindDataset is a typed, shaped leaf holding data.
	KindDataset
)

// String names the kind.
func (k ObjectKind) String() string {
	if k == KindDataset {
		return "dataset"
	}
	return "group"
}

// ObjectInfo describes one child of a group for listing.
type ObjectInfo struct {
	Name string
	Kind ObjectKind
}

// Connector is a VOL plugin: it resolves file create/open operations to
// handle implementations that carry out all subsequent operations.
type Connector interface {
	// ConnectorName identifies the plugin (for diagnostics).
	ConnectorName() string
	// FileCreate creates (truncating if present) a file.
	FileCreate(name string, fapl *FileAccessProps) (FileHandle, error)
	// FileOpen opens an existing file.
	FileOpen(name string, fapl *FileAccessProps) (FileHandle, error)
}

// AttrOps are the attribute operations shared by all object handles.
type AttrOps interface {
	// AttributeWrite creates or replaces an attribute.
	AttributeWrite(name string, dt *Datatype, space *Dataspace, data []byte) error
	// AttributeRead returns an attribute's type, shape and raw data.
	AttributeRead(name string) (*Datatype, *Dataspace, []byte, error)
	// AttributeNames lists attributes in creation order.
	AttributeNames() ([]string, error)
}

// ObjectHandle is a VOL handle to a group (or the file root group).
type ObjectHandle interface {
	AttrOps
	// GroupCreate creates a direct child group.
	GroupCreate(name string) (ObjectHandle, error)
	// GroupOpen opens a direct child group.
	GroupOpen(name string) (ObjectHandle, error)
	// DatasetCreate creates a direct child dataset. space becomes the
	// connector's: CreateDataset passes a fresh copy with everything
	// selected, which the connector may keep as the dataset's extent.
	DatasetCreate(name string, dt *Datatype, space *Dataspace) (DatasetHandle, error)
	// DatasetOpen opens a direct child dataset.
	DatasetOpen(name string) (DatasetHandle, error)
	// Children lists direct children in creation order.
	Children() ([]ObjectInfo, error)
	// Delete unlinks a direct child (group or dataset) and everything under
	// it (H5Ldelete).
	Delete(name string) error
	// Close releases the handle.
	Close() error
}

// FileHandle is a VOL handle to a file; it doubles as the root group.
// Closing the file handle is the transport synchronization point: in
// LowFive's distributed VOL, a producer's close publishes the data and
// serves consumers, and a consumer's close signals it is done.
type FileHandle interface {
	ObjectHandle
}

// DatasetHandle is a VOL handle to a dataset.
type DatasetHandle interface {
	AttrOps
	// Datatype returns the element type.
	Datatype() *Datatype
	// Dataspace lends the handle's own extent, with everything selected.
	// The caller only reads it, and only until its own call returns: it
	// must not modify or keep it, and a later SetExtent changes it in
	// place. Dataset.Dataspace makes the one copy a user gets.
	Dataspace() *Dataspace
	// Write transfers the elements selected in memSpace out of data into
	// the elements selected in fileSpace. A nil fileSpace means the whole
	// dataset; a nil memSpace means data is packed in selection order.
	Write(memSpace, fileSpace *Dataspace, data []byte) error
	// Read transfers the elements selected in fileSpace into the elements
	// selected in memSpace of data. Nil spaces as in Write.
	Read(memSpace, fileSpace *Dataspace, data []byte) error
	// SetExtent changes the dataset's current extent within the maximum
	// dims it was created with (H5Dset_extent).
	SetExtent(dims []int64) error
	// Close releases the handle.
	Close() error
}

// FileAccessProps selects how a file is accessed — most importantly, which
// VOL connector handles it (H5Pset_vol's analogue).
type FileAccessProps struct {
	// VOL is the connector that will handle this file. Required.
	VOL Connector
}

// NewFileAccessProps builds file-access properties for the given connector.
func NewFileAccessProps(vol Connector) *FileAccessProps { return &FileAccessProps{VOL: vol} }
