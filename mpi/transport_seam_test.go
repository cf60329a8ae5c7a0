package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lowfive/internal/transport"
)

// The transport-seam suite runs the same rank program against every
// transport backend through a table of constructors, proving the
// collectives (and the point-to-point core beneath them) do not care
// which engine carries their frames. The chan backend is one in-proc
// world; the sock backend brings up a coordinator plus one sock world
// per rank over Unix sockets — each world an isolated endpoint exactly
// as a separate rank process would hold, exercising the full wire path
// (framing, CRC, connection reuse, coordinator rendezvous).

// transportBackend builds a world of the given size and runs main once
// per rank, returning the first error.
type transportBackend struct {
	name string
	run  func(t *testing.T, size int, main func(c *Comm)) error
}

func transportBackends() []transportBackend {
	return []transportBackend{
		{name: "chan", run: runChanBackend},
		{name: "sock", run: runSockBackend},
	}
}

func runChanBackend(t *testing.T, size int, main func(c *Comm)) error {
	t.Helper()
	return NewWorld(size).Run(main)
}

// runSockBackend forms a real sock world: one coordinator, size
// endpoints, every frame over a Unix socket. DialSock blocks on the
// world barrier, so all endpoints must dial concurrently.
func runSockBackend(t *testing.T, size int, main func(c *Comm)) error {
	t.Helper()
	coordPath := t.TempDir() + "/coord.sock"
	coord, err := transport.NewCoordinator("unix", coordPath, size)
	if err != nil {
		return err
	}
	defer coord.Close()

	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w, err := NewSockWorld(SockWorldConfig{
				Network: "unix", Coord: coord.Addr(), Rank: r, Size: size,
			})
			if err != nil {
				errs[r] = fmt.Errorf("rank %d: dial: %w", r, err)
				return
			}
			defer w.Close()
			if err := w.RunLocal(main); err != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func TestSeamCollectives(t *testing.T) {
	const size = 4
	for _, be := range transportBackends() {
		t.Run(be.name, func(t *testing.T) {
			err := be.run(t, size, func(c *Comm) {
				// Bcast: root's payload lands everywhere.
				got := c.Bcast(0, []byte("from-root"))
				if string(got) != "from-root" {
					panic(fmt.Sprintf("rank %d: bcast got %q", c.Rank(), got))
				}
				c.Barrier()
				// Allreduce over ranks: sum of 0..size-1.
				sum := DecodeInt64(c.Allreduce(EncodeInt64(int64(c.Rank())), SumInt64))
				if sum != size*(size-1)/2 {
					panic(fmt.Sprintf("rank %d: allreduce sum %d", c.Rank(), sum))
				}
				// Gather at the last rank.
				all := c.Gather(size-1, []byte{byte(c.Rank())})
				if c.Rank() == size-1 {
					for r, b := range all {
						if len(b) != 1 || b[0] != byte(r) {
							panic(fmt.Sprintf("gather slot %d holds %v", r, b))
						}
					}
				}
				// Alltoall: rank r sends byte r*16+d to destination d.
				mine := make([][]byte, size)
				for d := range mine {
					mine[d] = []byte{byte(c.Rank()*16 + d)}
				}
				recv, err := c.Alltoall(mine)
				if err != nil {
					panic(fmt.Sprintf("rank %d: alltoall: %v", c.Rank(), err))
				}
				for s, b := range recv {
					if len(b) != 1 || b[0] != byte(s*16+c.Rank()) {
						panic(fmt.Sprintf("rank %d: alltoall slot %d holds %v", c.Rank(), s, b))
					}
				}
				// Scatter the reverse of Gather.
				var parts [][]byte
				if c.Rank() == 0 {
					parts = make([][]byte, size)
					for r := range parts {
						parts[r] = []byte{byte(100 + r)}
					}
				}
				part := c.Scatter(0, parts)
				if len(part) != 1 || part[0] != byte(100+c.Rank()) {
					panic(fmt.Sprintf("rank %d: scatter got %v", c.Rank(), part))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSeamPointToPoint(t *testing.T) {
	const size = 3
	for _, be := range transportBackends() {
		t.Run(be.name, func(t *testing.T) {
			err := be.run(t, size, func(c *Comm) {
				// Ring: send to the right, receive from the left, with a
				// payload naming the link; then an AnySource sweep at rank 0.
				right := (c.Rank() + 1) % size
				left := (c.Rank() + size - 1) % size
				c.Send(right, 7, []byte(fmt.Sprintf("link %d->%d", c.Rank(), right)))
				data, st := c.Recv(left, 7)
				want := fmt.Sprintf("link %d->%d", left, c.Rank())
				if string(data) != want || st.Source != left {
					panic(fmt.Sprintf("rank %d: got %q from %d", c.Rank(), data, st.Source))
				}
				c.Barrier()
				if c.Rank() == 0 {
					seen := map[int]bool{}
					for i := 1; i < size; i++ {
						data, st := c.Recv(AnySource, 9)
						if !bytes.Equal(data, []byte{byte(st.Source)}) {
							panic(fmt.Sprintf("anysource payload %v from %d", data, st.Source))
						}
						seen[st.Source] = true
					}
					if len(seen) != size-1 {
						panic(fmt.Sprintf("anysource saw %v", seen))
					}
				} else {
					c.Send(0, 9, []byte{byte(c.Rank())})
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSeamSplitAndDup(t *testing.T) {
	const size = 4
	for _, be := range transportBackends() {
		t.Run(be.name, func(t *testing.T) {
			err := be.run(t, size, func(c *Comm) {
				// Split into even/odd halves; each half runs its own
				// collective without cross-talk.
				half := c.Split(c.Rank()%2, c.Rank())
				sum := DecodeInt64(half.Allreduce(EncodeInt64(int64(c.Rank())), SumInt64))
				want := int64(0 + 2)
				if c.Rank()%2 == 1 {
					want = 1 + 3
				}
				if sum != want {
					panic(fmt.Sprintf("rank %d: split sum %d want %d", c.Rank(), sum, want))
				}
				// Dup: traffic on the duplicate never matches the parent.
				dup := c.Dup()
				if c.Rank() == 0 {
					dup.Send(1, 5, []byte("on-dup"))
					c.Send(1, 5, []byte("on-parent"))
				}
				if c.Rank() == 1 {
					fromParent, _ := c.Recv(0, 5)
					fromDup, _ := dup.Recv(0, 5)
					if string(fromParent) != "on-parent" || string(fromDup) != "on-dup" {
						panic(fmt.Sprintf("context crossover: parent=%q dup=%q", fromParent, fromDup))
					}
				}
				c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSeamSockPeerDeath kills one endpoint of a live sock world and
// asserts the peer blocked on it gets the typed RankFailedError — the
// same failure surface an injected in-proc crash produces.
func TestSeamSockPeerDeath(t *testing.T) {
	const size = 2
	coordPath := t.TempDir() + "/coord.sock"
	coord, err := transport.NewCoordinator("unix", coordPath, size)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	worlds := make([]*World, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = NewSockWorld(SockWorldConfig{
				Network: "unix", Coord: coord.Addr(), Rank: r, Size: size,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer worlds[0].Close()

	// Rank 1 vanishes (process death = endpoint close). Rank 0, blocked in
	// Recv on it, must fail typed instead of hanging.
	done := make(chan error, 1)
	go func() {
		done <- worlds[0].RunLocal(func(c *Comm) {
			c.Recv(1, 3)
		})
	}()
	worlds[1].Close()
	err = <-done
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 1 {
		t.Fatalf("got %v, want *RankFailedError{Rank:1}", err)
	}
	if !worlds[0].RankFailed(1) {
		t.Fatal("world 0 does not record rank 1 as failed")
	}
}

// The RecvUntil suite joins world rank 0 (the receiver) to ranks 1 and 2
// (its two sources, remote ranks 0 and 1) through an intercomm, on every
// engine. A source that must outlive the receiver's wait parks until the
// receiver's bye, because on the sock engine a rank that returns closes
// its endpoint, which its peers see as a crash.
func runRecvUntil(t *testing.T, main func(c *Comm, ic *Intercomm)) {
	t.Helper()
	for _, be := range transportBackends() {
		t.Run(be.name, func(t *testing.T) {
			err := be.run(t, 3, func(c *Comm) {
				ic := NewIntercomm(c.world, 77, []int{0}, []int{1, 2}, 0, true)
				if c.Rank() > 0 {
					ic = NewIntercomm(c.world, 77, []int{1, 2}, []int{0}, c.Rank()-1, false)
				}
				main(c, ic)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

const (
	tagData = 5
	tagBye  = 6
)

// die ends a rank the way its engine loses one: the chan engine marks it
// failed, the sock engine closes its endpoint (a process death).
func die(c *Comm) {
	if c.world.localRank >= 0 {
		c.world.Close()
		return
	}
	c.world.markFailed(c.Rank())
}

// awaitFailed blocks until this rank's world has seen rank r crash.
func awaitFailed(c *Comm, r int) {
	for start := time.Now(); !c.world.RankFailed(r); time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			panic(fmt.Sprintf("rank %d never saw rank %d fail", c.Rank(), r))
		}
	}
}

func TestSeamRecvUntilQueuedMessage(t *testing.T) {
	runRecvUntil(t, func(c *Comm, ic *Intercomm) {
		switch c.Rank() {
		case 0:
			ic.Recv(0, tagBye) // sent after both data messages, on the same link
			data, st, ok := ic.RecvUntil([]int{0, 1}, tagData, time.Now())
			if !ok || string(data) != "first" || st.Source != 0 {
				panic(fmt.Sprintf("probe with a passed deadline: %q from %d ok=%v", data, st.Source, ok))
			}
			start := time.Now()
			data, _, ok = ic.RecvUntil([]int{0}, tagData, start.Add(time.Hour))
			if !ok || string(data) != "second" || time.Since(start) > time.Second {
				panic(fmt.Sprintf("queued receive: %q ok=%v after %v", data, ok, time.Since(start)))
			}
			ic.Send(0, tagBye, nil)
			ic.Send(1, tagBye, nil)
		case 1:
			ic.Send(0, tagData, []byte("first"))
			ic.Send(0, tagData, []byte("second"))
			ic.Send(0, tagBye, nil)
			ic.Recv(0, tagBye)
		default:
			ic.Recv(0, tagBye)
		}
	})
}

func TestSeamRecvUntilDeadline(t *testing.T) {
	runRecvUntil(t, func(c *Comm, ic *Intercomm) {
		if c.Rank() > 0 {
			ic.Recv(0, tagBye)
			return
		}
		const wait = 50 * time.Millisecond
		start := time.Now()
		_, _, ok := ic.RecvUntil([]int{0, 1}, tagData, start.Add(wait))
		took := time.Since(start)
		if ok || took < wait || took > wait+time.Second {
			panic(fmt.Sprintf("empty mailbox: ok=%v after %v, want not-ok at %v", ok, took, wait))
		}
		ic.Send(0, tagBye, nil)
		ic.Send(1, tagBye, nil)
	})
}

// One deadline timer serves every wait on a mailbox: a short wait that
// starts while a long one is pending ends at its own deadline, the long one
// still ends at its own afterwards, and a wait that follows both is bounded
// too.
func TestSeamRecvUntilSharedTimer(t *testing.T) {
	runRecvUntil(t, func(c *Comm, ic *Intercomm) {
		if c.Rank() > 0 {
			ic.Recv(0, tagBye)
			return
		}
		const slack = 300 * time.Millisecond
		wait := func(d time.Duration) {
			start := time.Now()
			_, _, ok := ic.RecvUntil([]int{0, 1}, tagData, start.Add(d))
			if took := time.Since(start); ok || took < d || took > d+slack {
				panic(fmt.Sprintf("%v wait: ok=%v after %v", d, ok, took))
			}
		}
		long := make(chan any, 1)
		go func() {
			defer func() { long <- recover() }()
			wait(2 * slack)
		}()
		time.Sleep(10 * time.Millisecond) // the long wait arms the timer first
		wait(30 * time.Millisecond)
		select {
		case p := <-long:
			if p != nil {
				panic(p)
			}
		case <-time.After(5 * time.Second):
			panic("the long wait never ended after a shorter one fired the timer")
		}
		wait(40 * time.Millisecond)
		ic.Send(0, tagBye, nil)
		ic.Send(1, tagBye, nil)
	})
}

func TestSeamRecvUntilOutlivesOneSource(t *testing.T) {
	runRecvUntil(t, func(c *Comm, ic *Intercomm) {
		switch c.Rank() {
		case 0:
			awaitFailed(c, 2)
			data, st, ok := ic.RecvUntil([]int{0, 1}, tagData, time.Now().Add(10*time.Second))
			if !ok || string(data) != "alive" || st.Source != 0 {
				panic(fmt.Sprintf("with one source crashed: %q from %d ok=%v", data, st.Source, ok))
			}
			ic.Send(0, tagBye, nil)
		case 1:
			awaitFailed(c, 2)
			time.Sleep(20 * time.Millisecond) // let rank 0 block first
			ic.Send(0, tagData, []byte("alive"))
			ic.Recv(0, tagBye)
		default:
			die(c)
		}
	})
}

func TestSeamRecvUntilAllSourcesGone(t *testing.T) {
	runRecvUntil(t, func(c *Comm, ic *Intercomm) {
		if c.Rank() > 0 {
			die(c)
			return
		}
		start := time.Now()
		var rf *RankFailedError
		func() {
			defer func() { rf, _ = recover().(*RankFailedError) }()
			ic.RecvUntil([]int{0, 1}, tagData, start.Add(10*time.Second))
		}()
		if rf == nil || rf.Rank != 1 || time.Since(start) > 5*time.Second {
			panic(fmt.Sprintf("both sources crashed: got %v after %v, want RankFailedError for rank 1", rf, time.Since(start)))
		}
	})
}

func TestSeamRecvUntilCountsAsBlocked(t *testing.T) {
	runRecvUntil(t, func(c *Comm, ic *Intercomm) {
		if c.Rank() > 0 {
			ic.Recv(0, tagBye)
			return
		}
		var blocked atomic.Bool
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !blocked.Load() {
				select {
				case <-done:
					return
				case <-time.After(time.Millisecond):
					blocked.Store(c.world.RankProgress(0).Blocked)
				}
			}
		}()
		_, _, ok := ic.RecvUntil([]int{0}, tagData, time.Now().Add(300*time.Millisecond))
		close(done)
		wg.Wait()
		if ok || !blocked.Load() {
			panic(fmt.Sprintf("timed wait: ok=%v, seen blocked=%v", ok, blocked.Load()))
		}
		if c.world.RankProgress(0).Blocked {
			panic("still marked blocked after the wait ended")
		}
		ic.Send(0, tagBye, nil)
		ic.Send(1, tagBye, nil)
	})
}
