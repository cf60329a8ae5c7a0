package core

import (
	"errors"
	"fmt"
	"time"

	"lowfive/h5"
	"lowfive/internal/rpc"
	"lowfive/internal/stage"
	"lowfive/mpi"
	"lowfive/trace"
)

// The consumer's read-only handle tree. A file opened from another task —
// live over RPC (Algorithm 3) or from a committed staging epoch — is a
// fetched metadata tree plus a pieceSource that fills dataset reads and
// releases the file at close. Everything else (navigation, attributes,
// refusing writes, the file fallback) is one implementation for both.

// pieceSource is where a remote file's dataset bytes come from.
type pieceSource interface {
	// fill places the fileSpace-selected bytes of dataset d into t.
	fill(d *remoteDataset, fileSpace *h5.Dataspace, t *streamTarget) error
	// close tells the source this consumer is done with the file.
	close(f *remoteFile) error
}

// remoteFile is a consumer's handle on a file held by another task; it is
// also the handle of its root group.
type remoteFile struct {
	remoteObject
	vol  *DistMetadataVOL
	name string
	src  pieceSource
}

func (v *DistMetadataVOL) newRemoteFile(name string, root *Node, src pieceSource) *remoteFile {
	f := &remoteFile{vol: v, name: name, src: src}
	f.remoteObject = remoteObject{file: f, node: root}
	return f
}

// Close releases the file at its source.
func (f *remoteFile) Close() error { return f.src.close(f) }

// remoteObject is a group handle over the fetched metadata.
type remoteObject struct {
	file *remoteFile
	node *Node
}

func (o *remoteObject) readOnly() error {
	return fmt.Errorf("lowfive: remote file %q is read-only", o.file.name)
}

func (o *remoteObject) GroupCreate(string) (h5.ObjectHandle, error) { return nil, o.readOnly() }

func (o *remoteObject) GroupOpen(name string) (h5.ObjectHandle, error) {
	c, ok := o.node.Child(name)
	if !ok || c.Kind != h5.KindGroup {
		return nil, fmt.Errorf("lowfive: group %q not found under %q", name, o.node.Path())
	}
	return &remoteObject{file: o.file, node: c}, nil
}

func (o *remoteObject) DatasetCreate(string, *h5.Datatype, *h5.Dataspace) (h5.DatasetHandle, error) {
	return nil, o.readOnly()
}

func (o *remoteObject) DatasetOpen(name string) (h5.DatasetHandle, error) {
	c, ok := o.node.Child(name)
	if !ok || c.Kind != h5.KindDataset {
		return nil, fmt.Errorf("lowfive: dataset %q not found under %q", name, o.node.Path())
	}
	return &remoteDataset{file: o.file, node: c, path: c.Path()}, nil
}

func (o *remoteObject) Children() ([]h5.ObjectInfo, error) {
	var out []h5.ObjectInfo
	for _, c := range o.node.Children() {
		out = append(out, h5.ObjectInfo{Name: c.Name, Kind: c.Kind})
	}
	return out, nil
}

func (o *remoteObject) Delete(string) error { return o.readOnly() }

func (o *remoteObject) AttributeWrite(string, *h5.Datatype, *h5.Dataspace, []byte) error {
	return o.readOnly()
}

func (o *remoteObject) AttributeRead(name string) (*h5.Datatype, *h5.Dataspace, []byte, error) {
	return readAttribute(o.node, name)
}

func (o *remoteObject) AttributeNames() ([]string, error) { return o.node.AttributeNames(), nil }

func (o *remoteObject) Close() error { return nil }

func readAttribute(n *Node, name string) (*h5.Datatype, *h5.Dataspace, []byte, error) {
	a, ok := n.Attribute(name)
	if !ok {
		return nil, nil, nil, fmt.Errorf("lowfive: attribute %q not found on %q", name, n.Path())
	}
	return a.Type, a.Space, a.Data, nil
}

// remoteDataset reads through its file's pieceSource.
type remoteDataset struct {
	file *remoteFile
	node *Node
	path string // node.Path(), built once at open rather than on every read
}

func (d *remoteDataset) readOnly() error {
	return fmt.Errorf("lowfive: remote dataset %q is read-only", d.path)
}

func (d *remoteDataset) Datatype() *h5.Datatype   { return d.node.Type }
func (d *remoteDataset) Dataspace() *h5.Dataspace { return d.node.Space }

func (d *remoteDataset) Write(_, _ *h5.Dataspace, _ []byte) error { return d.readOnly() }
func (d *remoteDataset) SetExtent([]int64) error                  { return d.readOnly() }

func (d *remoteDataset) AttributeWrite(string, *h5.Datatype, *h5.Dataspace, []byte) error {
	return d.readOnly()
}

func (d *remoteDataset) AttributeRead(name string) (*h5.Datatype, *h5.Dataspace, []byte, error) {
	return readAttribute(d.node, name)
}

func (d *remoteDataset) AttributeNames() ([]string, error) { return d.node.AttributeNames(), nil }

func (d *remoteDataset) Close() error { return nil }

// Read fills the selection from the file's source, scattering every piece
// straight into the destination; a source failure either surfaces or
// degrades to the container file (see fileFallback).
func (d *remoteDataset) Read(memSpace, fileSpace *h5.Dataspace, data []byte) error {
	es := d.node.Type.Size
	if fileSpace == nil {
		fileSpace = d.node.Space
	}
	f := d.file
	tr := f.vol.track()
	start := time.Now()
	// With no memory-space mapping, pieces scatter straight into the
	// caller's buffer; otherwise they land in one packed buffer that is
	// scattered once at the end.
	n := fileSpace.NumSelected() * int64(es)
	var dst []byte
	if memSpace != nil {
		dst = make([]byte, n)
	} else {
		dst = data[:n]
	}
	t := newStreamTarget(dst, fileSpace, es)
	err := f.src.fill(d, fileSpace, t)
	if tr != nil {
		tr.Span("core", "query", start, time.Now(),
			trace.Str("dataset", d.path), trace.I64("bytes", n))
	}
	if err != nil {
		if err := f.vol.fileFallback(f.name, d.path, fileSpace, t, err, time.Since(start)); err != nil {
			return err
		}
	}
	if memSpace != nil {
		h5.ScatterSelected(data, memSpace, dst, es)
	}
	return nil
}

// liveSource reads from the producer task over RPC.
type liveSource struct {
	ic     *mpi.Intercomm
	client *rpc.Client
	id     uint64 // the layout id of the metadata answer
}

func (s *liveSource) fill(d *remoteDataset, fileSpace *h5.Dataspace, t *streamTarget) error {
	v := d.file.vol
	rd := v.redirectFor(s.ic, d.node, d.path, s.id)
	return v.queryStream(s.client, s.ic, d.file.name, rd, fileSpace, t)
}

// close sends done to every producer rank, releasing its serve loop. With
// fault tolerance on, each done is acknowledged (and retried if lost) — a
// lost done would strand the producer's serve session. Two per-rank
// failures are tolerated, and neither stops the remaining ranks from being
// notified: a crashed producer (its sessions already unwound), and an
// exhausted retry budget on the acknowledgment. The latter is the last-ack
// race: a producer counts its final done and exits the serve loop, so a
// corrupted or lost ack can never be replayed from the dedup cache. While
// the serve loop is alive, any one of the retries would have been answered
// (fresh or replayed); a terminal timeout therefore means the done was
// counted and only its ack died, not that the done was lost.
func (s *liveSource) close(f *remoteFile) error {
	v := f.vol
	var first error
	for p := 0; p < s.ic.RemoteSize(); p++ {
		if v.CallTimeout > 0 {
			if _, err := s.client.Call(p, encodeDone(f.name)); err != nil {
				var rf *mpi.RankFailedError
				var tmo *rpc.TimeoutError
				if errors.As(err, &rf) || errors.As(err, &tmo) {
					continue
				}
				if first == nil {
					first = fmt.Errorf("lowfive: closing %q: %w", f.name, err)
				}
				continue
			}
		} else {
			s.client.Notify(p, encodeDone(f.name))
		}
		if v.OnDoneAcked != nil {
			// Per-producer-rank granularity: a partially-acknowledged close
			// (some producer ranks answered, then the task crashed) must
			// credit exactly the acknowledged ranks on restart.
			v.OnDoneAcked(s.ic, f.name, p)
		}
	}
	return first
}

// stagedSource reads one committed epoch of the staging log.
type stagedSource struct {
	epoch int64
}

// fill resolves epoch → log offsets through the store's span index and
// places every intersecting chunk.
func (s *stagedSource) fill(d *remoteDataset, fileSpace *h5.Dataspace, t *streamTarget) error {
	v := d.file.vol
	start := time.Now()
	chunks, err := v.Stage.Chunks(d.file.name, s.epoch, d.path, fileSpace.Bounds())
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if err := t.place(c.Box, c.Data); err != nil {
			return err
		}
	}
	v.instruments()
	v.mQueryLat.ObserveSince(start)
	return nil
}

// close acknowledges consumption of the epoch, advancing the subscriber
// watermark. A regression (a time-travel read below the current ack) is not
// an error at close — older acks simply do not move the watermark back.
func (s *stagedSource) close(f *remoteFile) error {
	v := f.vol
	if v.StageSubscriber == "" {
		return nil
	}
	if err := v.Stage.Ack(f.name, v.StageSubscriber, s.epoch); err != nil && !errors.Is(err, stage.ErrAckRegression) {
		return err
	}
	return nil
}
