package core_test

import (
	"bytes"
	"testing"

	"lowfive/h5"
	"lowfive/internal/core"
	"lowfive/internal/stage"
	"lowfive/mpi"
)

// TestStagedBytesAreCommittedBytes pins what a staged epoch holds: the bytes
// a zero-copy producer had written when it committed, not its buffer. The
// producer overwrites that buffer after the commit; a staged open and
// OpenStagedEpoch must still read the committed bytes, on the leader
// replica and, after FailLeader, on the follower it fails over to.
func TestStagedBytesAreCommittedBytes(t *testing.T) {
	const file, tagOverwritten = "own.h5", 7
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	store := stage.NewStore(stage.Options{Replicas: 1})
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "prod", Procs: 1, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("cons"))
			vol.SetZeroCopy("*", "*")
			vol.Stage = store
			f, err := h5.CreateFile(file, h5.NewFileAccessProps(vol))
			if err != nil {
				t.Error(err)
				return
			}
			ds, err := f.CreateDataset("d", h5.U8, h5.NewSimple(int64(len(want))))
			if err != nil {
				t.Error(err)
				return
			}
			buf := bytes.Clone(want)
			if err := ds.Write(nil, nil, buf); err != nil {
				t.Error(err)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
			for i := range buf {
				buf[i] = 0xff
			}
			p.Intercomm("cons").Send(0, tagOverwritten, nil)
		}},
		{Name: "cons", Procs: 1, Main: func(p *mpi.Proc) {
			ic := p.Intercomm("prod")
			ic.Recv(0, tagOverwritten)
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", ic)
			vol.Stage = store
			check := func(replica string) {
				f, err := h5.OpenFile(file, h5.NewFileAccessProps(vol))
				if err != nil {
					t.Errorf("%s: staged open: %v", replica, err)
					return
				}
				defer f.Close()
				ds, err := f.OpenDataset("d")
				if err != nil {
					t.Errorf("%s: %v", replica, err)
					return
				}
				got := make([]byte, len(want))
				if err := ds.Read(nil, nil, got); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: staged read %v (%v), want the committed %v", replica, got, err, want)
				}
				fh, err := vol.OpenStagedEpoch(file, 1)
				if err != nil {
					t.Errorf("%s: OpenStagedEpoch: %v", replica, err)
					return
				}
				defer fh.Close()
				dh, err := fh.DatasetOpen("d")
				if err != nil {
					t.Errorf("%s: %v", replica, err)
					return
				}
				got = make([]byte, len(want))
				if err := dh.Read(nil, nil, got); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: OpenStagedEpoch read %v (%v), want the committed %v", replica, got, err, want)
				}
			}
			check("leader")
			if !store.FailLeader(file, 0) {
				t.Error("FailLeader found no live leader")
			}
			check("follower")
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Failovers != 1 || st.DeadReplicas != 1 {
		t.Errorf("store stats %+v, want one failover and one dead replica", st)
	}
}
