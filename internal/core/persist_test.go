package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lowfive/h5"
	"lowfive/internal/core"
	"lowfive/internal/native"
	"lowfive/internal/pfs"
	"lowfive/internal/stage"
	"lowfive/mpi"
)

// openGate bounds each wait of the interleaving probe below: long enough
// for the other rank to get there when nothing fences it, short enough
// that a fenced run only pays it once.
const openGate = 300 * time.Millisecond

// probeBackend wraps every storage a rank re-opens (the ownership
// rewrite's open; creates pass through unwrapped).
type probeBackend struct {
	native.Backend
	wrap func(native.Storage) native.Storage
}

func (b probeBackend) Open(name string) (native.Storage, error) {
	st, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return b.wrap(st), nil
}

// interleave forces the one schedule that tears an unfenced ownership
// rewrite: the reader reads the superblock, then the writer rewrites the
// metadata block and closes, then the reader reads the block with the old
// superblock's length. Each side waits at most openGate for the other, so
// a schedule that a fence forbids degrades to a delay, not a deadlock.
type interleave struct {
	headerRead, rewritten chan struct{}
	readOnce, closeOnce   sync.Once
}

type readerStorage struct {
	native.Storage
	il *interleave
}

func (s readerStorage) ReadAt(p []byte, off int64) (int, error) {
	n, err := s.Storage.ReadAt(p, off)
	if off == 0 {
		s.il.readOnce.Do(func() {
			close(s.il.headerRead)
			select {
			case <-s.il.rewritten:
			case <-time.After(openGate):
			}
		})
	}
	return n, err
}

type writerStorage struct {
	native.Storage
	il   *interleave
	wait sync.Once
}

func (s *writerStorage) WriteAt(p []byte, off int64) (int, error) {
	s.wait.Do(func() {
		select {
		case <-s.il.headerRead:
		case <-time.After(openGate):
		}
	})
	return s.Storage.WriteAt(p, off)
}

func (s *writerStorage) Close() error {
	err := s.Storage.Close()
	s.il.closeOnce.Do(func() { close(s.il.rewritten) })
	return err
}

// TestPersistOwnershipFencesReadsFromRewrites pins the staging-publish
// failure behind the staged-log sweep's -race hang: two producer ranks
// rewrite the container's metadata block with the ownership attributes,
// and a rank that opened the container after a peer's rewrite had begun
// read the old block length over the new, longer block ("corrupt
// metadata"), quit its epoch loop, and stranded its sibling in the next
// collective. Opening before the allgather fences every read from every
// rewrite, so under the forced schedule both ranks still publish and the
// container carries both ranks' ownership.
func TestPersistOwnershipFencesReadsFromRewrites(t *testing.T) {
	fs := pfs.NewZeroCost()
	st := stage.NewStore(stage.Options{Replicas: 1})
	il := &interleave{headerRead: make(chan struct{}), rewritten: make(chan struct{})}
	dims := []int64{4, 4}
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "producer", Procs: 2, Main: func(p *mpi.Proc) {
			r := int64(p.Task.Rank())
			be := probeBackend{Backend: native.PFSBackend(fs), wrap: func(s native.Storage) native.Storage {
				if r == 0 {
					return &writerStorage{Storage: s, il: il}
				}
				return readerStorage{Storage: s, il: il}
			}}
			vol := core.NewDistMetadataVOL(p.Task, native.New(be))
			vol.SetIntercomm("*", p.Intercomm("consumer"))
			vol.SetPassthru("*", true)
			vol.PersistOwnership = true
			vol.Stage = st
			fapl := h5.NewFileAccessProps(vol)
			f, err := h5.CreateFile("own.h5", fapl)
			if err != nil {
				t.Error(err)
				return
			}
			ds, err := f.CreateDataset("d", h5.U64, h5.NewSimple(dims...))
			if err != nil {
				t.Error(err)
				return
			}
			sel := h5.NewSimple(dims...)
			sel.SelectHyperslab(h5.SelectSet, []int64{r * 2, 0}, []int64{2, dims[1]})
			if err := ds.Write(nil, sel, h5.Bytes(make([]uint64, 2*dims[1]))); err != nil {
				t.Error(err)
			}
			ds.Close()
			if err := f.Close(); err != nil { // persists ownership, publishes to the log
				t.Errorf("rank %d: close: %v", r, err)
			}
		}},
		{Name: "consumer", Procs: 1, Main: func(p *mpi.Proc) {}},
	}, mpi.WithWatchdog(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := native.New(native.PFSBackend(fs)).FileOpen("own.h5", nil)
	if err != nil {
		t.Fatalf("reopening the container: %v", err)
	}
	defer fh.Close()
	names, err := fh.AttributeNames()
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for k := 0; k < 2; k++ {
		if a := fmt.Sprintf("__lf_own_%d", k); !have[a] {
			t.Errorf("container lacks %s (attributes %v)", a, names)
		}
	}
}
