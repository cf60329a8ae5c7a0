package core

import (
	"bytes"
	"testing"
	"time"

	"lowfive/h5"
	"lowfive/internal/buf"
	"lowfive/mpi"
)

// TestServePathAnswersDuringStream: while one consumer rank's data stream
// is in flight, stalled on a chunk pool its own undrained frames have
// filled, a second consumer rank's open is answered. The stream holds the
// serve slot, not serveMu, and runs off the receive loop, so the stall
// delays no other request.
func TestServePathAnswersDuringStream(t *testing.T) {
	dims := []int64{64, 64} // ~35 frames of 1 KiB
	vals := make([]uint64, dims[0]*dims[1])
	for i := range vals {
		vals[i] = uint64(i)
	}
	want := h5.Bytes(vals)
	pool := buf.NewPool(1024, 2)
	prod := make(chan *DistMetadataVOL, 1)
	stalled, opened := make(chan struct{}), make(chan struct{})
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 1, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			vol.ChunkPool = pool
			prod <- vol
			f := get(h5.CreateFile("s.h5", h5.NewFileAccessProps(vol)))
			ds := get(f.CreateDataset("d", h5.U64, h5.NewSimple(dims...)))
			must(ds.Write(nil, nil, want))
			must(f.Close()) // indexes and serves
		}},
		{Name: "cons", Procs: 2, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("prod")
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", ic)
			fapl := h5.NewFileAccessProps(vol)
			if p.Task.Rank() == 1 {
				<-stalled
				f := get(h5.OpenFile("s.h5", fapl))
				// A stream stalled on a full pool finishes only after one
				// grace period per remaining frame, seconds from now.
				if st := (<-prod).Stats(); st.DataQueries != 0 || st.MetadataRequests != 2 {
					t.Errorf("open answered with producer stats %+v, want the stream still in flight", st)
				}
				close(opened)
				must(f.Close())
				return
			}
			f := get(h5.OpenFile("s.h5", fapl))
			sc := vol.clientFor(ic).StartStream(0, encodeDataStreamReq("s.h5", "/d", h5.NewSimple(dims...).SelectAll()))
			// The stream's first frames wait undrained in this rank's
			// mailbox until they hold the whole pool.
			for pool.Outstanding() < pool.Limit() {
				time.Sleep(100 * time.Microsecond)
			}
			close(stalled)
			<-opened
			got := make([]byte, len(want))
			must(sc.Drain(newStreamTarget(got, h5.NewSimple(dims...).SelectAll(), 8).consume))
			if !bytes.Equal(got, want) {
				t.Error("streamed data differs from what was written")
			}
			must(f.Close())
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Errorf("%d chunks still outstanding after the serve", n)
	}
}
