package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lowfive/h5"
	"lowfive/internal/buf"
	"lowfive/internal/core"
	"lowfive/internal/grid"
	"lowfive/internal/pfs"
	"lowfive/internal/rpc"
	"lowfive/internal/transport"
	"lowfive/internal/workload"
	"lowfive/mpi"
)

// The kernel ladder: isolated calls into one layer's public functions at the
// shapes the bw workloads produce, next to rooflines measured in the same
// process. A kernel measures for about the duration it is given and emits a
// value for each of its metrics; the ladder repeats it and keeps the median.
type kernel struct {
	metrics []metricDef
	run     func(d time.Duration, emit func(name string, v float64)) error
}

func one(name, unit string) []metricDef { return []metricDef{{name: name, unit: unit}} }

var kernels = []kernel{
	{one("roofline.memcpy_MBps", "MB/s"), kMemcpy},
	{one("roofline.crc32c_MBps", "MB/s"), kCRC},
	{[]metricDef{{name: "roofline.unix_MBps", unit: "MB/s"}, {name: "roofline.unix_rtt_us", unit: "us"}}, kRawUnix},
	{one("roofline.tcp_MBps", "MB/s"), kRawTCP},
	{[]metricDef{
		{name: "grid.gather_contig_MBps", unit: "MB/s"}, {name: "grid.gather_strided_MBps", unit: "MB/s"},
		{name: "grid.scatter_strided_MBps", unit: "MB/s"},
		{name: "grid.gather_rows12_MBps", unit: "MB/s"}, {name: "grid.scatter_rows12_MBps", unit: "MB/s"},
		{name: "grid.intersecting_ns", unit: "ns"},
	}, kGrid},
	{[]metricDef{{name: "h5.chunkiter_ns_per_chunk", unit: "ns"}, {name: "h5.select_box_ns", unit: "ns"}}, kH5},
	{[]metricDef{{name: "buf.get_release_ns", unit: "ns"}, {name: "buf.get_release_contended_ns", unit: "ns"}}, kBuf},
	{[]metricDef{
		{name: "rpc.call_rtt_us", unit: "us"}, {name: "rpc.stream_MBps", unit: "MB/s"},
		{name: "rpc.stream_allocs_per_frame", unit: "count"},
	}, kRPC},
	{[]metricDef{
		{name: "transport.frame_encode_MBps", unit: "MB/s"}, {name: "transport.frame_decode_MBps", unit: "MB/s"},
		{name: "transport.frame_small_ns", unit: "ns"},
	}, kFrame},
	{[]metricDef{
		{name: "transport.sock_rtt_us", unit: "us"}, {name: "transport.sock_stream_MBps", unit: "MB/s"},
		{name: "transport.sock_send_allocs_per_frame", unit: "count"},
	}, kSockUnix},
	{one("transport.sock_stream_tcp_MBps", "MB/s"), kSockTCP},
	{[]metricDef{
		{name: "mpi.sendrecv_rtt_us", unit: "us"}, {name: "mpi.barrier_us", unit: "us"},
		{name: "mpi.alltoall_us", unit: "us"},
	}, kMPI},
	{[]metricDef{{name: "core.record_write_ns", unit: "ns"}, {name: "core.tree_codec_us", unit: "us"}}, kCoreTree},
	{[]metricDef{
		{name: "core.stream_regions_MBps", unit: "MB/s"}, {name: "core.stream_regions_allocs_per_chunk", unit: "count"},
	}, kStreamRegions},
	{[]metricDef{{name: "pfs.write_runs_MBps", unit: "MB/s"}, {name: "pfs.read_runs_MBps", unit: "MB/s"}}, kPFS},
}

// runKernels runs the ladder: reps repetitions of every kernel, each
// measuring for about d, and returns every repetition's value per metric.
func runKernels(reps int, d time.Duration) (map[string][]float64, error) {
	out := map[string][]float64{}
	for _, k := range kernels {
		for i := 0; i < reps; i++ {
			err := k.run(d, func(name string, v float64) { out[name] = append(out[name], v) })
			if err != nil {
				return nil, fmt.Errorf("kernel %s: %w", k.metrics[0].name, err)
			}
		}
	}
	return out, nil
}

// timeOps calls op back to back for about d and returns nanoseconds per
// call. Calls are batched so that reading the clock stays off the path of
// nanosecond-scale operations.
func timeOps(d time.Duration, op func()) float64 {
	t0 := time.Now()
	op()
	batch := 1
	if first := time.Since(t0); first < 20*time.Microsecond {
		batch = int(20*time.Microsecond/(first+1)) + 1
	}
	n := 0
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			op()
		}
		n += batch
		if el := time.Since(start); el >= d {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// mbps converts nanoseconds per operation on nbytes into 10^6 B/s.
func mbps(nbytes int, nsPerOp float64) float64 { return float64(nbytes) / 1e6 / (nsPerOp / 1e9) }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

const mib = 1 << 20

var sink uint32

func kMemcpy(d time.Duration, emit func(string, float64)) error {
	src, dst := make([]byte, 32*mib), make([]byte, 32*mib)
	emit("roofline.memcpy_MBps", mbps(len(src), timeOps(d, func() { copy(dst, src) })))
	return nil
}

func kCRC(d time.Duration, emit func(string, float64)) error {
	b := make([]byte, mib)
	emit("roofline.crc32c_MBps", mbps(len(b), timeOps(d, func() { sink += crc32.Checksum(b, castagnoli) })))
	return nil
}

// connPair returns the two ends of one loopback connection.
func connPair(network string) (a, b net.Conn, err error) {
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(os.TempDir(), fmt.Sprintf("lfk%d.sock", os.Getpid()))
		os.Remove(addr)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	a, err = net.Dial(network, ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	b, err = ln.Accept()
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// rawStream is the raw net.Conn roofline: 16 one-MiB writes on one side,
// read in full on the other.
func rawStream(network string, d time.Duration) (float64, error) {
	a, b, err := connPair(network)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	defer b.Close()
	const chunks = 16
	out, in := make([]byte, mib), make([]byte, mib)
	var werr, rerr error
	ns := timeOps(d, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < chunks; i++ {
				if _, err := a.Write(out); err != nil {
					werr = err
					return
				}
			}
		}()
		for i := 0; i < chunks; i++ {
			if _, err := io.ReadFull(b, in); err != nil {
				rerr = err
				break
			}
		}
		wg.Wait()
	})
	if werr != nil {
		rerr = werr
	}
	return mbps(chunks*mib, ns), rerr
}

func kRawUnix(d time.Duration, emit func(string, float64)) error {
	v, err := rawStream("unix", d/2)
	if err != nil {
		return err
	}
	emit("roofline.unix_MBps", v)
	a, b, err := connPair("unix")
	if err != nil {
		return err
	}
	defer a.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		defer b.Close()
		msg := make([]byte, 64)
		for {
			if _, err := io.ReadFull(b, msg); err != nil {
				return
			}
			if _, err := b.Write(msg); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 64)
	var ioErr error
	ns := timeOps(d/2, func() {
		if _, err := a.Write(msg); err != nil {
			ioErr = err
		}
		if _, err := io.ReadFull(a, msg); err != nil {
			ioErr = err
		}
	})
	a.Close()
	<-echoed
	emit("roofline.unix_rtt_us", ns/1e3)
	return ioErr
}

func kRawTCP(d time.Duration, emit func(string, float64)) error {
	v, err := rawStream("tcp", d)
	emit("roofline.tcp_MBps", v)
	return err
}

// bwSpec is the spec of the bw workloads, whose shapes the kernels use.
func bwSpec() workload.Spec { return workloads[0].spec() }

// queryBox is a 16^3 box well inside producer block 0.
func queryBox() grid.Box {
	return grid.Box{Min: []int64{10, 10, 10}, Max: []int64{25, 25, 25}}
}

func kGrid(d time.Duration, emit func(string, float64)) error {
	d /= 6
	spec := bwSpec()
	block, slab := spec.ProducerGridBox(0), spec.ConsumerGridBox(0)
	packed := h5.Bytes(workload.GridValues(spec.GridDims(), block))
	out := make([]byte, 0, len(packed))
	emit("grid.gather_contig_MBps", mbps(len(packed), timeOps(d, func() {
		out = grid.GatherRegion(out[:0], packed, block, block, 8)
	})))
	q := queryBox()
	emit("grid.gather_strided_MBps", mbps(int(q.NumPoints())*8, timeOps(d, func() {
		out = grid.GatherRegion(out[:0], packed, block, q, 8)
	})))
	// The consumer places a frame with CopyRegion: a producer block into the
	// consumer's slab, which is twice as wide in the second dimension.
	dst := make([]byte, slab.NumPoints()*8)
	emit("grid.scatter_strided_MBps", mbps(len(packed), timeOps(d, func() {
		grid.CopyRegion(dst, slab, packed, block, block, 8)
	})))
	// Particles are an [N,3] float32 dataset, so every row is 12 bytes.
	n := spec.ParticlesPerProducer
	prod := grid.Box{Min: []int64{0, 0}, Max: []int64{n - 1, 2}}
	cons := grid.Box{Min: []int64{0, 0}, Max: []int64{2*n - 1, 2}}
	parts := make([]byte, n*12)
	pout := make([]byte, 0, len(parts))
	emit("grid.gather_rows12_MBps", mbps(len(parts), timeOps(d, func() {
		pout = grid.GatherRegion(pout[:0], parts, prod, prod, 4)
	})))
	pdst := make([]byte, 2*n*12)
	emit("grid.scatter_rows12_MBps", mbps(len(parts), timeOps(d, func() {
		grid.CopyRegion(pdst, cons, parts, prod, prod, 4)
	})))
	dc := grid.CommonDecomposition(spec.GridDims(), producers)
	emit("grid.intersecting_ns", timeOps(d, func() { sink += uint32(len(dc.Intersecting(q))) }))
	return nil
}

func kH5(d time.Duration, emit func(string, float64)) error {
	spec := bwSpec()
	block := []grid.Box{spec.ProducerGridBox(0)}
	chunks := 0
	ns := timeOps(d/2, func() {
		it := h5.NewChunkIterBoxes(block, 8, buf.DefaultChunkBytes-rpc.FrameOverhead)
		chunks = 0
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			chunks++
		}
	})
	emit("h5.chunkiter_ns_per_chunk", ns/float64(chunks))
	dims, q := spec.GridDims(), queryBox()
	var err error
	emit("h5.select_box_ns", timeOps(d/2, func() {
		s := h5.NewSimple(dims...)
		if e := s.SelectBox(h5.SelectSet, q); e != nil {
			err = e
		}
		sink += uint32(len(s.SelectionBoxes()))
	}))
	return err
}

func kBuf(d time.Duration, emit func(string, float64)) error {
	p := buf.NewPool(buf.DefaultChunkBytes, buf.DefaultLimit)
	emit("buf.get_release_ns", timeOps(d/2, func() { p.Get().Release() }))
	// Contended: one goroutine per processor, each in the same loop; the
	// value is what one of them sees per Get+Release.
	g := runtime.GOMAXPROCS(0)
	per := make([]float64, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			per[i] = timeOps(d/2, func() { p.Get().Release() })
		}(i)
	}
	wg.Wait()
	emit("buf.get_release_contended_ns", median(per))
	return nil
}

// Requests of the two-rank rpc and core kernels.
const (
	reqEcho   = 'e'
	reqStream = 's'
	reqQuit   = 'q'
)

// rpcPair runs a two-rank chan workflow: one rank answers every request with
// serve until the other, which runs client, is done.
func rpcPair(serve func(srv *rpc.Server, src int, seq uint64, req []byte), client func(c *rpc.Client)) error {
	return mpi.RunWorkflow([]mpi.TaskSpec{
		{Name: "server", Procs: 1, Main: func(p *mpi.Proc) {
			srv := &rpc.Server{IC: p.Intercomm("client")}
			for {
				src, seq, req := srv.Recv()
				if req[0] == reqQuit {
					srv.Respond(src, seq, req)
					return
				}
				serve(srv, src, seq, req)
			}
		}},
		{Name: "client", Procs: 1, Main: func(p *mpi.Proc) {
			c := &rpc.Client{IC: p.Intercomm("server")}
			client(c)
			if _, err := c.Call(0, []byte{reqQuit}); err != nil {
				panic(err)
			}
		}},
	})
}

// drainStream times one streamed call and counts its frames and bytes.
func drainStream(c *rpc.Client, d time.Duration) (nsPerOp float64, frames, bytes int, allocsPerFrame float64, err error) {
	total := 0
	m0 := mallocs()
	nsPerOp = timeOps(d, func() {
		frames, bytes = 0, 0
		sc := c.StartStream(0, []byte{reqStream})
		if e := sc.Drain(func(p []byte) error {
			frames++
			bytes += len(p)
			return nil
		}); e != nil {
			err = e
		}
		total += frames
	})
	return nsPerOp, frames, bytes, float64(mallocs()-m0) / float64(total), err
}

func kRPC(d time.Duration, emit func(string, float64)) error {
	pool := buf.NewPool(buf.DefaultChunkBytes, buf.DefaultLimit)
	var cerr error
	err := rpcPair(func(srv *rpc.Server, src int, seq uint64, req []byte) {
		if req[0] == reqEcho {
			srv.Respond(src, seq, req)
			return
		}
		st := srv.NewStream(src, seq, pool)
		for i := 0; i < 64; i++ {
			st.Grab(st.MaxSegment())
		}
		st.Close()
	}, func(c *rpc.Client) {
		req := make([]byte, 64)
		req[0] = reqEcho
		emit("rpc.call_rtt_us", timeOps(d/2, func() {
			if _, err := c.Call(0, req); err != nil {
				cerr = err
			}
		})/1e3)
		ns, _, bytes, allocs, err := drainStream(c, d/2)
		if err != nil {
			cerr = err
		}
		emit("rpc.stream_MBps", mbps(bytes, ns))
		emit("rpc.stream_allocs_per_frame", allocs)
	})
	if err == nil {
		err = cerr
	}
	return err
}

func kFrame(d time.Duration, emit func(string, float64)) error {
	f := &transport.Frame{CommID: 1, Src: 1, WorldSrc: 1, Tag: 5, Data: make([]byte, mib)}
	wire := transport.AppendFrame(nil, f)
	emit("transport.frame_encode_MBps", mbps(mib, timeOps(d/3, func() { wire = transport.AppendFrame(wire[:0], f) })))
	var err error
	emit("transport.frame_decode_MBps", mbps(mib, timeOps(d/3, func() {
		if _, _, e := transport.DecodeFrame(wire); e != nil {
			err = e
		}
	})))
	small := &transport.Frame{CommID: 1, Src: 1, WorldSrc: 1, Tag: 5, Data: make([]byte, 64)}
	emit("transport.frame_small_ns", timeOps(d/3, func() {
		wire = transport.AppendFrame(wire[:0], small)
		if _, _, e := transport.DecodeFrame(wire); e != nil {
			err = e
		}
	}))
	return err
}

// sockPair forms a two-rank sock world inside this process and runs fn with
// rank 0's endpoint. Rank 1 echoes frames of up to 64 bytes back and counts
// larger ones, signalling on full every streamFrames of them.
const streamFrames = 64

func sockPair(network string, fn func(a *transport.Sock, echo <-chan *transport.Frame, full <-chan struct{}) error) error {
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(os.TempDir(), fmt.Sprintf("lfc%d.sock", os.Getpid()))
		os.Remove(addr)
	}
	coord, err := transport.NewCoordinator(network, addr, 2)
	if err != nil {
		return err
	}
	defer coord.Close()
	// Each inbox holds at most one stream's frames or one echo.
	in := [2]chan *transport.Frame{make(chan *transport.Frame, streamFrames), make(chan *transport.Frame, streamFrames)}
	var socks [2]*transport.Sock
	var errs [2]error
	var wg sync.WaitGroup
	for r := range socks {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			socks[r], errs[r] = transport.DialSock(transport.SockConfig{
				Network: network, Coord: coord.Addr(), Rank: r, Size: 2,
				Deliver: func(_ int, f *transport.Frame) { in[r] <- f },
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			if other := socks[1-r]; other != nil {
				other.Close()
			}
			return err
		}
	}
	full := make(chan struct{})
	stop := make(chan struct{})
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		got := 0
		for {
			select {
			case <-stop:
				return
			case f := <-in[1]:
				if len(f.Data) <= 64 {
					socks[1].Send(0, f)
				} else if got++; got == streamFrames {
					got = 0
					full <- struct{}{}
				}
			}
		}
	}()
	err = fn(socks[0], in[0], full)
	close(stop)
	<-echoDone
	for _, s := range socks {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// sockStream sends streamFrames one-MiB frames and waits for the far end to
// have all of them.
func sockStream(a *transport.Sock, full <-chan struct{}, d time.Duration) (value, allocsPerFrame float64, err error) {
	big := &transport.Frame{CommID: 1, Tag: 5, Data: make([]byte, mib)}
	ops := 0
	m0 := mallocs()
	ns := timeOps(d, func() {
		for i := 0; i < streamFrames; i++ {
			if e := a.Send(1, big); e != nil {
				err = e
				return
			}
		}
		<-full
		ops++
	})
	return mbps(streamFrames*mib, ns), float64(mallocs()-m0) / float64(ops*streamFrames), err
}

func kSockUnix(d time.Duration, emit func(string, float64)) error {
	return sockPair("unix", func(a *transport.Sock, echo <-chan *transport.Frame, full <-chan struct{}) error {
		var err error
		small := &transport.Frame{CommID: 1, Tag: 5, Data: make([]byte, 64)}
		emit("transport.sock_rtt_us", timeOps(d/2, func() {
			if e := a.Send(1, small); e != nil {
				err = e
				return
			}
			<-echo
		})/1e3)
		if err != nil {
			return err
		}
		v, allocs, err := sockStream(a, full, d/2)
		emit("transport.sock_stream_MBps", v)
		emit("transport.sock_send_allocs_per_frame", allocs)
		return err
	})
}

func kSockTCP(d time.Duration, emit func(string, float64)) error {
	return sockPair("tcp", func(a *transport.Sock, _ <-chan *transport.Frame, full <-chan struct{}) error {
		v, _, err := sockStream(a, full, d)
		emit("transport.sock_stream_tcp_MBps", v)
		return err
	})
}

// collective times op on every rank of a size-rank chan world for about d
// and returns rank 0's nanoseconds per call. Ranks run batches of calls and
// rank 0 broadcasts after each whether to go on, so all make the same calls.
func collective(size int, d time.Duration, op func(c *mpi.Comm)) (float64, error) {
	const batch = 100
	var ns float64
	err := mpi.NewWorld(size).Run(func(c *mpi.Comm) {
		n := 0
		start := time.Now()
		for {
			for i := 0; i < batch; i++ {
				op(c)
			}
			n += batch
			var stop byte
			if c.Rank() == 0 && time.Since(start) >= d {
				stop = 1
				ns = float64(time.Since(start).Nanoseconds()) / float64(n)
			}
			if c.Bcast(0, []byte{stop})[0] == 1 {
				return
			}
		}
	})
	return ns, err
}

func kMPI(d time.Duration, emit func(string, float64)) error {
	msg := make([]byte, 64)
	ns, err := collective(2, d/3, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, msg)
			c.Recv(1, 7)
		} else {
			c.Recv(0, 7)
			c.Send(0, 7, msg)
		}
	})
	if err != nil {
		return err
	}
	emit("mpi.sendrecv_rtt_us", ns/1e3)
	if ns, err = collective(worldSize, d/3, func(c *mpi.Comm) { c.Barrier() }); err != nil {
		return err
	}
	emit("mpi.barrier_us", ns/1e3)
	// The index exchange: every producer sends every other a short message.
	var aerr error
	ns, err = collective(producers, d/3, func(c *mpi.Comm) {
		out := [][]byte{msg, msg, msg, msg}
		if _, e := c.Alltoall(out); e != nil {
			aerr = e
		}
	})
	if err == nil {
		err = aerr
	}
	emit("mpi.alltoall_us", ns/1e3)
	return err
}

// syntheticFile writes producer 0's share of the bw spec, zero-copy, into a
// fresh in-memory file and returns its tree.
func syntheticFile() (*core.FileNode, error) {
	spec := bwSpec()
	vol := core.NewMetadataVOL(nil)
	vol.SetZeroCopy("*", "*")
	f, err := h5.CreateFile("kernel.h5", h5.NewFileAccessProps(vol))
	if err != nil {
		return nil, err
	}
	gridVals, partVals := workload.GenerateProducer(spec, 0)
	if err := workload.WriteSynthetic(f, spec, 0, gridVals, partVals); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fn, _ := vol.File("kernel.h5")
	return fn, nil
}

func kCoreTree(d time.Duration, emit func(string, float64)) error {
	spec := bwSpec()
	dims := spec.GridDims()
	node := core.NewDatasetNode("grid", h5.U64, h5.NewSimple(dims...))
	node.Ownership = core.OwnShallow
	sel := h5.NewSimple(dims...)
	if err := sel.SelectBox(h5.SelectSet, spec.ProducerGridBox(0)); err != nil {
		return err
	}
	data := make([]byte, sel.NumSelected()*8)
	var err error
	emit("core.record_write_ns", timeOps(d/2, func() {
		node.Triples = node.Triples[:0]
		if e := node.RecordWrite(nil, sel, data); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	fn, err := syntheticFile()
	if err != nil {
		return err
	}
	emit("core.tree_codec_us", timeOps(d/2, func() {
		enc := &h5.Encoder{}
		core.EncodeTree(enc, fn.Node, nil)
		if _, e := core.DecodeTree(&h5.Decoder{Buf: enc.Buf}, nil); e != nil {
			err = e
		}
	})/1e3)
	return err
}

func kStreamRegions(d time.Duration, emit func(string, float64)) error {
	fn, err := syntheticFile()
	if err != nil {
		return err
	}
	node, err := fn.Resolve("group1/grid")
	if err != nil {
		return err
	}
	spec := bwSpec()
	query := h5.NewSimple(spec.GridDims()...)
	if err := query.SelectBox(h5.SelectSet, spec.ConsumerGridBox(0)); err != nil {
		return err
	}
	pool := buf.NewPool(buf.DefaultChunkBytes, buf.DefaultLimit)
	var cerr error
	err = rpcPair(func(srv *rpc.Server, src int, seq uint64, _ []byte) {
		st := srv.NewStream(src, seq, pool)
		if e := node.StreamRegions(st, query); e != nil {
			cerr = e
		}
		st.Close()
	}, func(c *rpc.Client) {
		ns, _, bytes, allocs, err := drainStream(c, d)
		if err != nil {
			cerr = err
		}
		emit("core.stream_regions_MBps", mbps(bytes, ns))
		emit("core.stream_regions_allocs_per_chunk", allocs)
	})
	if err == nil {
		err = cerr
	}
	return err
}

// runsOf lists a box's contiguous runs in a dataset of the given dims, as
// byte offsets and lengths of 8-byte elements.
func runsOf(dims []int64, b grid.Box) (offs, lens []int64) {
	b.Runs(dims, func(off, n int64) {
		offs = append(offs, off*8)
		lens = append(lens, n*8)
	})
	return offs, lens
}

func kPFS(d time.Duration, emit func(string, float64)) error {
	spec := bwSpec()
	dims := spec.GridDims()
	f, err := pfs.NewZeroCost().Create("kernel")
	if err != nil {
		return err
	}
	block := spec.ProducerGridBox(0)
	packed := make([]byte, block.NumPoints()*8)
	// Consumer slab 0 is producer blocks 0 and 1: write block 1 once, so
	// that the read finds data everywhere, and time block 0.
	offs, lens := runsOf(dims, spec.ProducerGridBox(1))
	if err := f.WriteRuns(packed, offs, lens); err != nil {
		return err
	}
	offs, lens = runsOf(dims, block)
	emit("pfs.write_runs_MBps", mbps(len(packed), timeOps(d/2, func() {
		if e := f.WriteRuns(packed, offs, lens); e != nil {
			err = e
		}
	})))
	slab := spec.ConsumerGridBox(0)
	dst := make([]byte, slab.NumPoints()*8)
	offs, lens = runsOf(dims, slab)
	emit("pfs.read_runs_MBps", mbps(len(dst), timeOps(d/2, func() {
		if e := f.ReadRuns(dst, offs, lens); e != nil {
			err = e
		}
	})))
	return err
}
