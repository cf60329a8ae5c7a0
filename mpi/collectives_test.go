package mpi

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"lowfive/metrics"
)

var collectiveSizes = []int{1, 2, 3, 4, 5, 7, 8, 16, 33}

func TestBarrier(t *testing.T) {
	for _, n := range collectiveSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var entered atomic.Int64
			err := Run(n, func(c *Comm) {
				if c.Rank() == 0 {
					time.Sleep(10 * time.Millisecond) // straggler
				}
				entered.Add(1)
				c.Barrier()
				if got := entered.Load(); got != int64(n) {
					t.Errorf("rank %d passed barrier with only %d/%d entered", c.Rank(), got, n)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBackToBackBarriers(t *testing.T) {
	err := Run(8, func(c *Comm) {
		for i := 0; i < 50; i++ {
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	for _, n := range collectiveSizes {
		for root := 0; root < n; root += max(1, n-1) {
			t.Run(fmt.Sprintf("n=%d/root=%d", n, root), func(t *testing.T) {
				err := Run(n, func(c *Comm) {
					var data []byte
					if c.Rank() == root {
						data = []byte("payload")
					}
					out := c.Bcast(root, data)
					if string(out) != "payload" {
						t.Errorf("rank %d got %q", c.Rank(), out)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestGather(t *testing.T) {
	for _, n := range collectiveSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			root := n / 2
			err := Run(n, func(c *Comm) {
				// Variable-length payloads (gatherv semantics).
				mine := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1)
				out := c.Gather(root, mine)
				if c.Rank() != root {
					if out != nil {
						t.Errorf("non-root got non-nil")
					}
					return
				}
				for r, b := range out {
					want := bytes.Repeat([]byte{byte(r)}, r+1)
					if !bytes.Equal(b, want) {
						t.Errorf("slot %d: got %v want %v", r, b, want)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range collectiveSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			err := Run(n, func(c *Comm) {
				out := c.Allgather([]byte{byte(c.Rank()), byte(c.Rank() * 2)})
				if len(out) != n {
					t.Fatalf("got %d entries", len(out))
				}
				for r, b := range out {
					if len(b) != 2 || b[0] != byte(r) || b[1] != byte(r*2) {
						t.Errorf("slot %d: got %v", r, b)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range collectiveSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			root := n - 1
			err := Run(n, func(c *Comm) {
				out := c.Reduce(root, EncodeInt64(int64(c.Rank()+1)), SumInt64)
				if c.Rank() == root {
					want := int64(n * (n + 1) / 2)
					if got := DecodeInt64(out); got != want {
						t.Errorf("sum=%d want %d", got, want)
					}
				} else if out != nil {
					t.Error("non-root got non-nil")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllreduceMax(t *testing.T) {
	for _, n := range collectiveSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			err := Run(n, func(c *Comm) {
				v := float64((c.Rank() * 7) % n)
				out := c.Allreduce(EncodeFloat64(v), MaxFloat64)
				// Max over all ranks of (r*7)%n.
				want := 0.0
				for r := 0; r < n; r++ {
					if f := float64((r * 7) % n); f > want {
						want = f
					}
				}
				if got := DecodeFloat64(out); got != want {
					t.Errorf("rank %d: max=%v want %v", c.Rank(), got, want)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllreduceIdempotent checks the dissemination allreduce against every
// rank's payload at each size, and that it takes ceil(log2 n) rounds: one
// send per rank per round.
func TestAllreduceIdempotent(t *testing.T) {
	for _, n := range collectiveSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			reg := metrics.NewRegistry()
			err := Run(n, func(c *Comm) {
				out := c.AllreduceIdempotent(EncodeInt64(int64((c.Rank()*7)%n)), MaxInt64)
				want := int64(0)
				for r := 0; r < n; r++ {
					want = max(want, int64((r*7)%n))
				}
				if got := DecodeInt64(out); got != want {
					t.Errorf("rank %d: max=%d want %d", c.Rank(), got, want)
				}
			}, WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			rounds := 0
			for k := 1; k < n; k <<= 1 {
				rounds++
			}
			if got := reg.Counter("mpi.sends").Value(); got != int64(n*rounds) {
				t.Errorf("%d sends, want %d ranks x %d rounds", got, n, rounds)
			}
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range collectiveSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			err := Run(n, func(c *Comm) {
				data := make([][]byte, n)
				for dest := range data {
					data[dest] = []byte{byte(c.Rank()), byte(dest)}
				}
				out, aerr := c.Alltoall(data)
				if aerr != nil {
					t.Errorf("rank %d: %v", c.Rank(), aerr)
					return
				}
				for src, b := range out {
					if b[0] != byte(src) || b[1] != byte(c.Rank()) {
						t.Errorf("from %d: got %v", src, b)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestScan(t *testing.T) {
	err := Run(8, func(c *Comm) {
		out := c.Scan(EncodeInt64(int64(c.Rank()+1)), SumInt64)
		want := int64((c.Rank() + 1) * (c.Rank() + 2) / 2)
		if got := DecodeInt64(out); got != want {
			t.Errorf("rank %d: scan=%d want %d", c.Rank(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesOnSplitComm(t *testing.T) {
	err := Run(9, func(c *Comm) {
		sub := c.Split(c.Rank()%3, 0)
		sum := sub.Allreduce(EncodeInt64(int64(c.Rank())), SumInt64)
		// Members of color k are world ranks k, k+3, k+6.
		want := int64(3*(c.Rank()%3) + 9)
		if got := DecodeInt64(sum); got != want {
			t.Errorf("rank %d: got %d want %d", c.Rank(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMixedCollectiveSequence(t *testing.T) {
	// Interleave several collective kinds; the sequence-derived tags must
	// keep them from cross-matching.
	err := Run(5, func(c *Comm) {
		for i := 0; i < 10; i++ {
			c.Barrier()
			b := c.Bcast(i%5, EncodeInt64(int64(i)))
			if DecodeInt64(b) != int64(i) {
				t.Errorf("iter %d: bcast %d", i, DecodeInt64(b))
			}
			s := c.Allreduce(EncodeInt64(1), SumInt64)
			if DecodeInt64(s) != 5 {
				t.Errorf("iter %d: sum %d", i, DecodeInt64(s))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvRing(t *testing.T) {
	err := Run(5, func(c *Comm) {
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() - 1 + c.Size()) % c.Size()
		data, st := c.Sendrecv(right, 3, []byte{byte(c.Rank())}, left, 3)
		if st.Source != left || data[0] != byte(left) {
			t.Errorf("rank %d: got %v from %d", c.Rank(), data, st.Source)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		err := Run(n, func(c *Comm) {
			root := n / 2
			var data [][]byte
			if c.Rank() == root {
				for r := 0; r < n; r++ {
					data = append(data, bytes.Repeat([]byte{byte(r)}, r+1))
				}
			}
			piece := c.Scatter(root, data)
			want := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1)
			if !bytes.Equal(piece, want) {
				t.Errorf("rank %d: got %v want %v", c.Rank(), piece, want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestExclusiveScan(t *testing.T) {
	err := Run(6, func(c *Comm) {
		out := c.ExclusiveScan(EncodeInt64(int64(c.Rank()+1)), SumInt64)
		if c.Rank() == 0 {
			if out != nil {
				t.Errorf("rank 0 should get nil, got %v", out)
			}
			return
		}
		want := int64(c.Rank() * (c.Rank() + 1) / 2)
		if got := DecodeInt64(out); got != want {
			t.Errorf("rank %d: %d want %d", c.Rank(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterThenGatherInverse(t *testing.T) {
	err := Run(4, func(c *Comm) {
		var data [][]byte
		if c.Rank() == 0 {
			data = [][]byte{{10}, {11}, {12}, {13}}
		}
		piece := c.Scatter(0, data)
		back := c.Gather(0, piece)
		if c.Rank() == 0 {
			for r, b := range back {
				if len(b) != 1 || b[0] != byte(10+r) {
					t.Errorf("slot %d: %v", r, b)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
