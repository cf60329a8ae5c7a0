package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lowfive/h5"
	"lowfive/internal/grid"
	"lowfive/mpi"
)

// Two deterministic tests of request parking. Each sequences the producer
// and consumer ranks with Go channels, and relies on one ordering the
// protocol guarantees: a producer's receive loop dispatches one consumer
// rank's requests in the order they were sent, so once the producer's
// session for file k has counted the consumer's done, every request the
// consumer posted before that done has been dispatched.

var parkDims = []int64{4, 4}

// must and get fail a rank by panicking: the world aborts and RunWorkflow
// returns the error, where t.Fatal would strand the other ranks.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func get[T any](v T, err error) T {
	must(err)
	return v
}

// parkValues is the u64 content of step file s: s*100 plus the linear index.
func parkValues(s int) []byte {
	vals := make([]uint64, parkDims[0]*parkDims[1])
	for i := range vals {
		vals[i] = uint64(s*100 + i)
	}
	return h5.Bytes(vals)
}

// writeStep creates dataset /d of a step file and writes it whole; the
// returned file is still open.
func writeStep(fapl *h5.FileAccessProps, name string, s int) *h5.File {
	f := get(h5.CreateFile(name, fapl))
	ds := get(f.CreateDataset("d", h5.U64, h5.NewSimple(parkDims...)))
	must(ds.Write(nil, nil, parkValues(s)))
	return f
}

// readStep opens a step file through the consumer's VOL, checks it holds
// step s, and returns it still open.
func readStep(t *testing.T, fapl *h5.FileAccessProps, name string, s int) *h5.File {
	t.Helper()
	f := get(h5.OpenFile(name, fapl))
	ds := get(f.OpenDataset("d"))
	got := make([]byte, len(parkValues(s)))
	must(ds.Read(nil, nil, got))
	if !bytes.Equal(got, parkValues(s)) {
		t.Errorf("%s read %v, want step %d", name, h5.View[uint64](got), s)
	}
	return f
}

// drainStep drains a data stream for the whole of /d and checks it carries
// step s.
func drainStep(t *testing.T, drain func(func([]byte) error) error, s int) {
	t.Helper()
	got := make([]byte, len(parkValues(s)))
	all := h5.NewSimple(parkDims...).SelectAll()
	must(drain(newStreamTarget(got, all, 8).consume))
	if !bytes.Equal(got, parkValues(s)) {
		t.Errorf("streamed %v, want step %d", h5.View[uint64](got), s)
	}
}

// TestRequestsParkUntilIndexed: file k is served asynchronously and file
// k+1 is created but not indexed. The consumer's metadata, redirect and
// data requests for k+1 must park — answering them would hand out a
// half-built tree, an empty redirect list and an empty stream, and the read
// would succeed with zeros — and be answered once k+1 is indexed.
func TestRequestsParkUntilIndexed(t *testing.T) {
	created := make(chan struct{})
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 1, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			vol.ServeOnClose = false
			fapl := h5.NewFileAccessProps(vol)
			must(writeStep(fapl, "k.h5", 0).Close())
			hk := get(vol.ServeAsync("k.h5"))
			// File k+1 exists, with its dataset, but holds no data yet.
			f := get(h5.CreateFile("k1.h5", fapl))
			ds := get(f.CreateDataset("d", h5.U64, h5.NewSimple(parkDims...)))
			close(created)
			must(hk.Wait())
			if st := vol.Stats(); st.ParkedRequests != 3 || st.MetadataRequests != 1 || st.BoxQueries != 1 || st.DataQueries != 1 {
				t.Errorf("before k+1 is indexed: %+v, want its 3 requests parked and only k's answered", st)
			}
			must(ds.Write(nil, nil, parkValues(1)))
			must(f.Close())
			hk1 := get(vol.ServeAsync("k1.h5"))
			must(hk1.Wait())
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("prod")
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", ic)
			fapl := h5.NewFileAccessProps(vol)
			fk := readStep(t, fapl, "k.h5", 0)
			<-created
			c := vol.clientFor(ic)
			c.Notify(0, encodeMetadataReq("k1.h5"))
			c.Notify(0, encodeBoxesReq("k1.h5", "/d", grid.WholeExtent(parkDims)))
			sc := c.StartStream(0, encodeDataStreamReq("k1.h5", "/d", h5.NewSimple(parkDims...).SelectAll()))
			must(fk.Close())
			drainStep(t, sc.Drain, 1)
			must(readStep(t, fapl, "k1.h5", 1).Close())
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParkedRequestAnsweredWhileServing: a request parked while the receive
// loop is running for another session must be answered as soon as its file
// is indexed. The loop never restarts here — session j keeps it running from
// before the request arrives until after it is answered — so a replay that
// waits for the next loop start would leave the consumer waiting forever.
func TestParkedRequestAnsweredWhileServing(t *testing.T) {
	served := make(chan struct{})
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 1, Main: func(p *mpi.Proc) {
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			vol.ServeOnClose = false
			fapl := h5.NewFileAccessProps(vol)
			var handles []*ServeHandle
			serve := func(name string, s int) {
				must(writeStep(fapl, name, s).Close())
				h := get(vol.ServeAsync(name))
				handles = append(handles, h)
			}
			serve("j.h5", 7)
			serve("k.h5", 0)
			close(served)
			// The consumer's request for k+1 was dispatched before its done
			// for k; session j is still open.
			must(handles[1].Wait())
			serve("k1.h5", 1)
			for _, h := range []*ServeHandle{handles[0], handles[2]} {
				must(h.Wait())
			}
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("prod")
			vol := NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", ic)
			fapl := h5.NewFileAccessProps(vol)
			<-served
			fj := readStep(t, fapl, "j.h5", 7)
			fk := readStep(t, fapl, "k.h5", 0)
			sc := vol.clientFor(ic).StartStream(0, encodeDataStreamReq("k1.h5", "/d", h5.NewSimple(parkDims...).SelectAll()))
			must(fk.Close())
			drainStep(t, sc.Drain, 1)
			must(readStep(t, fapl, "k1.h5", 1).Close())
			must(fj.Close())
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParkedOpenOutlivesCallRetries: a consumer with a CallTimeout opens
// file k while the producers' receive loop runs for file j and k is not
// yet written. The producers index k three times the call's retry budget
// (CallTimeout×(CallRetries+1)) later. Each retry of the parked metadata
// request gets a pending reply, so the open waits for the index instead of
// spending its retries, failing over to the other producer, and finding no
// file to fall back to; it opens live and reads step k. The same holds
// when the first attempt is hedged across both producers.
func TestParkedOpenOutlivesCallRetries(t *testing.T) {
	const timeout, retries = 10 * time.Millisecond, 1
	late := 3 * timeout * (retries + 1)
	for _, hedge := range []time.Duration{0, timeout / 2} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) {
			opening := make(chan struct{})
			err := mpi.RunWorkflow([]mpi.TaskSpec{
				{Name: "prod", Procs: 2, Main: func(p *mpi.Proc) {
					vol := NewDistMetadataVOL(p.Task, nil)
					vol.SetIntercomm("*", p.Intercomm("cons"))
					vol.ServeOnClose = false
					fapl := h5.NewFileAccessProps(vol)
					must(writeStep(fapl, "j.h5", 7).Close())
					hj := get(vol.ServeAsync("j.h5"))
					<-opening
					time.Sleep(late)
					must(writeStep(fapl, "k.h5", 1).Close())
					hk := get(vol.ServeAsync("k.h5"))
					must(hk.Wait())
					must(hj.Wait())
					if st := vol.Stats(); p.Task.Rank() == 0 && st.ParkedRequests == 0 {
						t.Errorf("producer 0: %+v, want the open of k parked", st)
					}
				}},
				{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
					vol := NewDistMetadataVOL(p.Task, nil)
					vol.SetIntercomm("*", p.Intercomm("prod"))
					vol.CallTimeout, vol.CallRetries, vol.HedgeDelay = timeout, retries, hedge
					fapl := h5.NewFileAccessProps(vol)
					fj := readStep(t, fapl, "j.h5", 7)
					close(opening)
					t0 := time.Now()
					fk := readStep(t, fapl, "k.h5", 1)
					if el := time.Since(t0); el < late {
						t.Errorf("k opened after %v, before the producers wrote it at %v", el, late)
					}
					must(fk.Close())
					must(fj.Close())
					qs := vol.QueryStats()
					if qs.FileFallbacks != 0 || qs.Failovers != 0 || qs.Retries == 0 {
						t.Errorf("%+v: want the open to wait through its retries, with no failover or fallback", qs)
					}
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
