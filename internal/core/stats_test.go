package core_test

import (
	"reflect"
	"sync"
	"testing"

	"lowfive/h5"
	"lowfive/internal/core"
	"lowfive/mpi"
)

// TestServeAndQueryStatsMirror runs one redistribution and checks the
// producers' serve-side counters agree with the consumers' query-side
// counters: every request issued was answered, every byte fetched was
// served.
func TestServeAndQueryStatsMirror(t *testing.T) {
	dims := []int64{6, 8}
	var mu sync.Mutex
	var serve core.ServeStats
	var query core.QueryStats
	err := mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "producer", Procs: 3, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("consumer"))
			produceGrid(t, p, h5.NewFileAccessProps(vol), "stats.h5", dims)
			mu.Lock()
			serve.Add(vol.Stats())
			mu.Unlock()
		}},
		{Name: "consumer", Procs: 2, Main: func(p *mpi.Proc) {
			vol := core.NewDistMetadataVOL(p.Task, nil)
			vol.SetIntercomm("*", p.Intercomm("producer"))
			consumeGridColumns(t, p, h5.NewFileAccessProps(vol), "stats.h5", dims)
			mu.Lock()
			query.Add(vol.QueryStats())
			mu.Unlock()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if query.MetadataFetches == 0 || query.BoxQueries == 0 || query.DataQueries == 0 {
		t.Errorf("consumer query stats empty: %+v", query)
	}
	if query.BytesFetched == 0 {
		t.Error("no bytes fetched")
	}
	if query.WaitTime <= 0 {
		t.Errorf("WaitTime=%v, want > 0", query.WaitTime)
	}
	if serve.MetadataRequests != query.MetadataFetches {
		t.Errorf("metadata: served %d fetched %d", serve.MetadataRequests, query.MetadataFetches)
	}
	if serve.BoxQueries != query.BoxQueries {
		t.Errorf("box queries: served %d issued %d", serve.BoxQueries, query.BoxQueries)
	}
	if serve.DataQueries != query.DataQueries {
		t.Errorf("data queries: served %d issued %d", serve.DataQueries, query.DataQueries)
	}
	if serve.BytesServed != query.BytesFetched {
		t.Errorf("bytes: served %d fetched %d", serve.BytesServed, query.BytesFetched)
	}
	if serve.DoneMessages != 6 {
		t.Errorf("DoneMessages=%d, want 6 (each of 2 consumers notifies all 3 producers)", serve.DoneMessages)
	}
}

// TestStatsAddCarriesEveryField fills two stats values with distinct
// per-field numbers and checks Add folds every field: a field added to
// ServeStats or QueryStats that Add does not carry keeps its old value and
// fails here. QueueP99 is a tail, so it takes the max instead of the sum.
func TestStatsAddCarriesEveryField(t *testing.T) {
	for _, tc := range []struct {
		name string
		add  func(a, b any) any
		zero any
		max  map[string]bool
	}{
		{"ServeStats", func(a, b any) any {
			s := a.(core.ServeStats)
			s.Add(b.(core.ServeStats))
			return s
		}, core.ServeStats{}, map[string]bool{"QueueP99": true}},
		{"QueryStats", func(a, b any) any {
			q := a.(core.QueryStats)
			q.Add(b.(core.QueryStats))
			return q
		}, core.QueryStats{}, nil},
	} {
		typ := reflect.TypeOf(tc.zero)
		a := reflect.New(typ).Elem()
		b := reflect.New(typ).Elem()
		for i := 0; i < typ.NumField(); i++ {
			if k := typ.Field(i).Type.Kind(); k != reflect.Int64 && k != reflect.Int {
				t.Fatalf("%s.%s has kind %v: teach Add and this test how to fold it", tc.name, typ.Field(i).Name, k)
			}
			a.Field(i).SetInt(int64(i + 1))
			b.Field(i).SetInt(100)
		}
		got := reflect.ValueOf(tc.add(a.Interface(), b.Interface()))
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			want := int64(i + 1 + 100)
			if tc.max[name] {
				want = 100
			}
			if g := got.Field(i).Int(); g != want {
				t.Errorf("%s.Add: %s = %d, want %d", tc.name, name, g, want)
			}
		}
	}
}
