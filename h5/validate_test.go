package h5

import "testing"

// lentHandle is a dataset handle holding only a type and an extent, which
// it lends the way the connectors do.
type lentHandle struct {
	dt    *Datatype
	space *Dataspace
}

func (h *lentHandle) Datatype() *Datatype                                        { return h.dt }
func (h *lentHandle) Dataspace() *Dataspace                                      { return h.space }
func (h *lentHandle) Write(_, _ *Dataspace, _ []byte) error                      { return nil }
func (h *lentHandle) Read(_, _ *Dataspace, _ []byte) error                       { return nil }
func (h *lentHandle) SetExtent(dims []int64) error                               { return h.space.SetExtent(dims) }
func (h *lentHandle) Close() error                                               { return nil }
func (h *lentHandle) AttributeWrite(string, *Datatype, *Dataspace, []byte) error { return nil }
func (h *lentHandle) AttributeRead(string) (*Datatype, *Dataspace, []byte, error) {
	return nil, nil, nil, nil
}
func (h *lentHandle) AttributeNames() ([]string, error) { return nil, nil }

// TestValidateTransferAllocs: checking a transfer reads the handle's lent
// extent and both selections in place and allocates nothing, for a whole
// dataset, a file selection alone, and a file and memory selection.
func TestValidateTransferAllocs(t *testing.T) {
	d := &Dataset{h: &lentHandle{dt: U32, space: NewSimple(8, 6)}}
	file := NewSimple(8, 6)
	if err := file.SelectHyperslab(SelectSet, []int64{2, 1}, []int64{3, 4}); err != nil {
		t.Fatal(err)
	}
	mem := NewSimple(20)
	if err := mem.SelectHyperslab(SelectSet, []int64{4}, []int64{12}); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8*6*4)
	for _, tc := range []struct {
		name      string
		mem, file *Dataspace
	}{
		{"whole", nil, nil},
		{"file", nil, file},
		{"file+mem", mem, file},
	} {
		if err := d.validateTransfer(tc.mem, tc.file, data); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if a := testing.AllocsPerRun(100, func() { d.validateTransfer(tc.mem, tc.file, data) }); a != 0 {
			t.Errorf("%s: validateTransfer allocates %v times, want 0", tc.name, a)
		}
	}
	// The in-place comparison still refuses a file space of another extent.
	if err := d.validateTransfer(nil, NewSimple(8, 5), data); err == nil {
		t.Error("a file space of another extent was accepted")
	}
	if err := d.validateTransfer(nil, NewSimple(48), data); err == nil {
		t.Error("a file space of another rank was accepted")
	}
}
