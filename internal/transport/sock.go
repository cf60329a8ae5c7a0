package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lowfive/internal/backoff"
	"lowfive/internal/buf"
)

// helloCommID marks a session-control frame (hello, resume, ack, ack
// request) on a data connection; Tag selects which. The mpi layer never
// uses communicator ID 0, so control frames cannot be confused with
// traffic.
const helloCommID = 0

// Control-frame kinds, carried in the Tag field of a helloCommID frame.
const (
	// ctlHello opens a session: dialer→acceptor, Data = incarnation (u32)
	// + dial attempt (u64).
	ctlHello = 0
	// ctlResume answers a hello: acceptor→dialer, Data = the next data
	// sequence number this side expects for (peer, incarnation). The
	// dialer resends every pending frame from there.
	ctlResume = 1
	// ctlAck flows acceptor→dialer periodically, Data = cumulative
	// receive sequence; the dialer drops acknowledged frames from its
	// retransmit queue.
	ctlAck = 2
	// ctlAckReq flows dialer→acceptor when Close drains, no Data: the
	// acceptor answers with an immediate ctlAck instead of waiting for its
	// next AckInterval tick. It follows every data frame already written on
	// the session, so that ack covers them all.
	ctlAckReq = 3
)

// zeroCopyMin is the smallest chunk-backed payload Send holds (puts on
// the wire by reference until acked) instead of copying. Below it a memcpy
// costs less than the unix round trip a held chunk waits for its ack.
const zeroCopyMin = 64 << 10

// heldBit marks a held frame in the 8-byte sequence prefix, telling the
// receiver to read its payload into a pooled chunk. Sequence numbers
// count frames from zero and never reach it.
const heldBit = 1 << 63

// coordDialTimeout bounds how long DialSock retries reaching the
// coordinator before giving up (the coordinator normally exists before
// any rank process is spawned).
const coordDialTimeout = 10 * time.Second

// SockConfig configures one rank's endpoint of a sock-transport world.
type SockConfig struct {
	// Network is "tcp" (loopback TCP) or "unix" (Unix domain sockets,
	// listen paths under the temp dir).
	Network string
	// Coord is the coordinator address to rendezvous at.
	Coord string
	// Rank and Size are this process's world rank and the world size.
	Rank, Size int
	// Inc is this rank's incarnation: 0 on first launch, bumped by the
	// supervisor on each restart so peers can tell a respawn from the
	// process it replaced.
	Inc uint32
	// Deliver hands each inbound frame to the local runtime. Called from
	// one reader goroutine per peer connection.
	Deliver DeliverFunc
	// OnPeerDeath, if set, is called at most once per (peer, incarnation)
	// when that peer becomes unreachable.
	OnPeerDeath func(rank int)
	// OnPeerRejoin, if set, is called when a dead peer rejoins with a new
	// incarnation and address.
	OnPeerRejoin func(rank int)
	// OnRecovery, if set, observes the recovery machinery: connection
	// tears, redials, re-established sessions and resent frames. Used to
	// feed metrics counters and the flight recorder.
	OnRecovery func(ev RecoveryEvent)

	// Faults, if set, injects seeded faults into this rank's outgoing
	// connection writes (tests and fault sweeps). DialSock returns a
	// *RuleError for a rule the wire cannot honour.
	Faults *Plan

	// Tuning overrides the timings; zero fields keep the defaults.
	Tuning
}

// Tuning is the sock engine's timing knobs: its deadlines, budgets and
// pacing intervals. Zero fields keep the defaults below; tests and fault
// sweeps tighten them so tear/redial/resend cycles converge in
// milliseconds.
type Tuning struct {
	// JoinTimeout bounds the wait at the world barrier; a world that
	// does not form in time surfaces as *JoinTimeoutError instead of a
	// hang. Default 60s.
	JoinTimeout time.Duration
	// WriteTimeout bounds every data-plane write; a write that cannot
	// complete tears the connection and enters recovery. A session's write
	// deadline is re-armed only when fewer than ⅞ of it remain, so a write
	// gets between ⅞·WriteTimeout and WriteTimeout. Default 10s.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds each step of the hello/resume session
	// handshake (and the acceptor's wait for a hello). Default 2s.
	HandshakeTimeout time.Duration
	// ReconnectTimeout is the total budget of one recovery episode:
	// redials with jittered exponential backoff until a session is
	// re-established, after which the peer is declared dead. Default 15s.
	ReconnectTimeout time.Duration
	// RetransmitTimeout is how long pending (unacknowledged) frames may
	// sit without ack progress before the connection is declared suspect
	// and torn for a resync — the recovery for frames a faulty wire
	// silently swallowed. Default 1s.
	RetransmitTimeout time.Duration
	// HeartbeatInterval paces the client→coordinator pings that let the
	// coordinator evict hung rank processes. Default 2s.
	HeartbeatInterval time.Duration
	// AckInterval paces the receiver's cumulative acks. Default 25ms.
	// Close does not wait on it: the drain asks for an ack directly.
	AckInterval time.Duration
	// DrainTimeout bounds Close's wait for pending frames to be flushed
	// and acknowledged before connections come down, so a rank exiting
	// right after its last Send does not strand queued frames. Default 5s.
	DrainTimeout time.Duration
}

// fill installs the documented defaults.
func (cfg *SockConfig) fill() {
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 60 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 2 * time.Second
	}
	if cfg.ReconnectTimeout <= 0 {
		cfg.ReconnectTimeout = 15 * time.Second
	}
	if cfg.RetransmitTimeout <= 0 {
		cfg.RetransmitTimeout = time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 2 * time.Second
	}
	if cfg.AckInterval <= 0 {
		cfg.AckInterval = 25 * time.Millisecond
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
}

// RecoveryEvent is one observation from the reconnect/resend machinery.
type RecoveryEvent struct {
	// Peer is the world rank of the connection's far side.
	Peer int
	// Kind is "tear" (a live connection broke or went suspect), "redial"
	// (one reconnect attempt started), "reconnect" (a session was
	// re-established), "resend" (Frames pending frames were retransmitted
	// on a fresh session), or "peer-unreachable" (the reconnect budget
	// ran dry and the peer was declared dead).
	Kind string
	// Frames counts resent frames for "resend" events.
	Frames int
	// Err is what broke, for "tear" and "peer-unreachable".
	Err error
}

// JoinTimeoutError reports a world that did not form within JoinTimeout:
// some rank process never reached the coordinator (or hung before the
// barrier released). Typed so launchers can tell a stuck world from a
// network error.
type JoinTimeoutError struct {
	// Rank is the local rank that gave up waiting.
	Rank int
	// Timeout is how long it waited.
	Timeout time.Duration
}

func (e *JoinTimeoutError) Error() string {
	return fmt.Sprintf("transport: rank %d: world did not form within %s (a rank process is missing or hung)", e.Rank, e.Timeout)
}

// SockStats is a snapshot of one endpoint's data-plane traffic and its
// recovery activity.
type SockStats struct {
	// Data-plane counters: frames/bytes handed to the transport for
	// sending (counted once, resends excluded) and frames/bytes delivered
	// to the local runtime (duplicates excluded).
	SentFrames, SentBytes int64
	RecvFrames, RecvBytes int64
	// Reconnects counts re-established sessions after a tear. Redials
	// counts individual recovery dial attempts, successful or not. The
	// lazy first connection to a peer counts as neither. ResentFrames/
	// ResentBytes count retransmissions of frames a torn connection had
	// already carried but not delivered.
	Reconnects, Redials       int64
	ResentFrames, ResentBytes int64
}

// Sock is the real-socket engine: this process is one world rank, peers
// are other processes found through the Coordinator.
//
// Each direction of each pair uses one dialed session at a time: the
// sender dials, writes sequence-prefixed frames under a per-peer mutex
// (preserving the pairwise FIFO ordering the mailbox matching relies on),
// and reads only the acceptor's acks; the acceptor reads data frames and
// writes only acks. Every data frame carries a per-(peer,incarnation)
// sequence number and stays in the sender's retransmit queue until the
// acceptor's cumulative ack covers it, so a torn connection — reset
// mid-frame, a CRC-corrupt stream, a silently dropped frame, a partition —
// recovers by redialing (jittered exponential backoff) and resending from
// the acceptor's resume point instead of killing the rank. Peer death is
// the coordinator's call, not a connection error's.
type Sock struct {
	cfg    SockConfig
	faults *Injector // nil: no Faults plan
	ln     net.Listener
	coord  net.Conn
	addr   string

	peers  []sockPeer
	recv   []recvState
	rpools recvPools
	closed atomic.Bool
	stop   chan struct{}
	// drained wakes a draining Close when a queue may have changed: an ack
	// trimmed it, a session came up, a peer died or rejoined.
	drained chan struct{}

	// spawnMu serializes goroutine spawns from untracked callers (Send's
	// reconnect kick) against Close's wg.Wait.
	spawnMu sync.RWMutex
	wg      sync.WaitGroup

	sentFrames, sentBytes     atomic.Int64
	recvFrames, recvBytes     atomic.Int64
	reconnects, redials       atomic.Int64
	resentFrames, resentBytes atomic.Int64
}

// wireEntry is one pending (not yet acknowledged) data frame: its
// sequence number, its encoded wire bytes, and its payload size for
// stats. A copied entry's buf is the whole wire message. A held entry's
// buf is only the sequence prefix and frame header, and held is the
// sender's pooled payload itself: the entry owns one reference to its
// chunk, which every path that drops the entry releases (releaseQueue).
// sent records whether a transmission was ever attempted, so a session
// flush can tell a retransmission (counts as resent) from the first
// transmission of a frame queued while the link was down (does not).
type wireEntry struct {
	seq  uint64
	buf  []byte
	held []byte
	n    int
	sent bool
}

// newEntry encodes f as the wire entry for seq: held, it keeps f.Data by
// reference and marks the prefix; otherwise it copies f.Data into buf.
func newEntry(seq uint64, f *Frame, held bool) wireEntry {
	if !held {
		return wireEntry{seq: seq, buf: encodeWire(seq, f), n: len(f.Data)}
	}
	pre := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+FrameHeaderLen), seq|heldBit)
	return wireEntry{seq: seq, buf: appendHeader(pre, f), held: f.Data, n: len(f.Data)}
}

// writeEntry writes one entry's wire message on conn: a copied entry in
// one Write, a held one as prefix+header and payload in one writev.
// Through the fault layer a held frame is concatenated first, so the
// injector decides one write of the frame's full length, as for a copied
// frame, and a Corrupt verdict flips a copy, never the sender's chunk.
func writeEntry(conn net.Conn, e *wireEntry) error {
	if e.held == nil {
		_, err := conn.Write(e.buf)
		return err
	}
	if fc, ok := conn.(*faultConn); ok {
		_, err := fc.Write(append(e.buf[:len(e.buf):len(e.buf)], e.held...))
		return err
	}
	bufs := net.Buffers{e.buf, e.held}
	_, err := bufs.WriteTo(conn)
	return err
}

// releaseQueue drops the chunk reference each held entry in q owns. Every
// path that discards queued entries calls it: ack and resume trims, peer
// death, rejoin, and Close after an unfinished drain.
func releaseQueue(q []wireEntry) {
	for i := range q {
		if q[i].held != nil {
			buf.Release(q[i].held)
		}
	}
}

// recvPools holds the chunks held frames are received into: one unbounded
// pool per power-of-two size class, 2^16 (zeroCopyMin) to 2^30
// (MaxFrameBytes), so a reader goroutine never waits on a consumer. The
// consumer's buf.Release returns a delivered payload, exactly as on the
// chan engine.
type recvPools [30 - 16 + 1]*buf.Pool

func newRecvPools() recvPools {
	var rp recvPools
	for i := range rp {
		rp[i] = buf.NewPool(zeroCopyMin<<i, 0)
	}
	return rp
}

// get returns a chunk of at least n bytes, zeroCopyMin <= n <= MaxFrameBytes.
func (rp *recvPools) get(n int) *buf.Chunk {
	return rp[bits.Len(uint(n-1))-bits.Len(zeroCopyMin-1)].Get()
}

// sockPeer is the sender-side state toward one peer.
type sockPeer struct {
	mu   sync.Mutex
	addr string
	inc  uint32
	dead bool
	conn net.Conn // current outgoing session, nil between sessions
	// wdl is the write deadline armed on conn, zero when none is.
	wdl time.Time

	attempt      uint64 // dial-session counter, monotone per peer
	nextSeq      uint64 // sequence of the next new data frame
	acked        uint64 // cumulative ack: peer holds every seq < acked
	queue        []wireEntry
	reconnecting bool
	everConn     bool      // a session existed before (reconnect counting)
	lastProgress time.Time // last ack advance or successful write's start
}

// recvState is the acceptor-side state for one peer: which session is
// live and where its contiguous delivered stream ends.
type recvState struct {
	mu      sync.Mutex
	inc     uint32
	attempt uint64
	conn    net.Conn
	seq     uint64 // next expected data sequence for (peer, inc)
}

// DialSock listens for peers, joins the coordinator and blocks until the
// whole world has joined (the world barrier), then returns a ready
// endpoint. The returned engine's reader goroutines call cfg.Deliver. A
// world that does not form within cfg.JoinTimeout returns
// *JoinTimeoutError; a cfg.Faults rule the wire cannot honour returns its
// *RuleError before anything is dialled.
func DialSock(cfg SockConfig) (*Sock, error) {
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("transport: rank %d out of range for world size %d", cfg.Rank, cfg.Size)
	}
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("transport: SockConfig.Deliver is required")
	}
	cfg.fill()
	var faults *Injector
	if cfg.Faults != nil {
		var err error
		if faults, err = NewInjector(*cfg.Faults, cfg.Size, Wire); err != nil {
			return nil, err
		}
	}
	ln, err := listenSock(cfg)
	if err != nil {
		return nil, err
	}
	s := &Sock{
		cfg:     cfg,
		faults:  faults,
		ln:      ln,
		peers:   make([]sockPeer, cfg.Size),
		recv:    make([]recvState, cfg.Size),
		rpools:  newRecvPools(),
		stop:    make(chan struct{}),
		drained: make(chan struct{}, 1),
	}
	s.addr = ln.Addr().String()

	coord, err := dialCoord(cfg.Network, cfg.Coord)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s.coord = coord
	enc := json.NewEncoder(coord)
	if err := enc.Encode(coordMsg{Op: "join", Rank: cfg.Rank, Addr: s.addr, Inc: cfg.Inc}); err != nil {
		s.Close()
		return nil, fmt.Errorf("transport: coordinator join: %w", err)
	}
	// Heartbeat from the moment the join is sent: the coordinator evicts
	// silent members, and a rank waiting at the world barrier must not
	// read as hung.
	s.wg.Add(1)
	go s.heartbeatLoop(enc)

	// World barrier: block until the coordinator has every rank, but not
	// past the join timeout — a missing or hung rank process must surface
	// as a typed error, not an eternal hang.
	coord.SetReadDeadline(time.Now().Add(cfg.JoinTimeout))
	dec := json.NewDecoder(coord)
	var world coordMsg
	for {
		if err := dec.Decode(&world); err != nil {
			s.Close()
			if isTimeout(err) {
				return nil, &JoinTimeoutError{Rank: cfg.Rank, Timeout: cfg.JoinTimeout}
			}
			return nil, fmt.Errorf("transport: waiting for world: %w", err)
		}
		if world.Op == "world" {
			break
		}
	}
	coord.SetReadDeadline(time.Time{})
	if world.Size != cfg.Size || len(world.Addrs) != cfg.Size {
		s.Close()
		return nil, fmt.Errorf("transport: coordinator world size %d, want %d", world.Size, cfg.Size)
	}
	now := time.Now()
	for i := range s.peers {
		s.peers[i].addr = world.Addrs[i]
		s.peers[i].inc = world.Incs[i]
		s.peers[i].lastProgress = now
		if world.Dead != nil {
			s.peers[i].dead = world.Dead[i]
		}
	}

	// A rejoiner's world snapshot may already contain dead peers; report
	// them so the local runtime starts out with the same failure view the
	// rest of the world has. Collected before the loops start so nothing
	// mutates peer state concurrently.
	var initiallyDead []int
	for i := range s.peers {
		if s.peers[i].dead && i != cfg.Rank {
			initiallyDead = append(initiallyDead, i)
		}
	}
	s.wg.Add(3)
	go s.acceptLoop()
	go s.coordLoop(dec)
	go s.retransmitMonitor()
	for _, i := range initiallyDead {
		s.notifyDeath(i)
	}
	return s, nil
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// listenSock opens this rank's data-plane listener.
func listenSock(cfg SockConfig) (net.Listener, error) {
	switch cfg.Network {
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		return ln, nil
	case "unix":
		// Short path: Unix socket paths cap out around 104 bytes.
		path := filepath.Join(os.TempDir(),
			fmt.Sprintf("lf%d-%d.%d.sock", os.Getpid(), cfg.Rank, cfg.Inc))
		os.Remove(path)
		ln, err := net.Listen("unix", path)
		if err != nil {
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		return ln, nil
	default:
		return nil, fmt.Errorf("transport: unknown network %q (want tcp or unix)", cfg.Network)
	}
}

// dialCoord dials the coordinator, retrying briefly: a freshly spawned
// rank process can beat the coordinator's listener by a scheduling hair.
func dialCoord(network, addr string) (net.Conn, error) {
	deadline := time.Now().Add(coordDialTimeout)
	wait := 5 * time.Millisecond
	for {
		conn, err := net.Dial(network, addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: dial coordinator %s: %w", addr, err)
		}
		time.Sleep(wait)
		if wait < 200*time.Millisecond {
			wait *= 2
		}
	}
}

// heartbeatLoop pings the coordinator so it can tell a hung rank process
// from a live one. Exits on shutdown or the first failed write (the
// coordinator connection is gone; coordLoop notices the same).
func (s *Sock) heartbeatLoop(enc *json.Encoder) {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.coord.SetWriteDeadline(time.Now().Add(s.cfg.HeartbeatInterval))
		if err := enc.Encode(coordMsg{Op: "ping", Rank: s.cfg.Rank}); err != nil {
			return
		}
	}
}

// Addr returns the address this rank's listener advertises to peers.
func (s *Sock) Addr() string { return s.addr }

// Stats snapshots this endpoint's frame/byte/recovery counters.
func (s *Sock) Stats() SockStats {
	return SockStats{
		SentFrames: s.sentFrames.Load(), SentBytes: s.sentBytes.Load(),
		RecvFrames: s.recvFrames.Load(), RecvBytes: s.recvBytes.Load(),
		Reconnects: s.reconnects.Load(), Redials: s.redials.Load(),
		ResentFrames: s.resentFrames.Load(), ResentBytes: s.resentBytes.Load(),
	}
}

// recovery reports one recovery observation to the configured hook.
func (s *Sock) recovery(peer int, kind string, frames int, err error) {
	if s.cfg.OnRecovery != nil {
		s.cfg.OnRecovery(RecoveryEvent{Peer: peer, Kind: kind, Frames: frames, Err: err})
	}
}

// encodeWire returns one wire message — an 8-byte little-endian sequence
// prefix, then the frame encoding. Prefix and header fill a buffer sized
// for them, and the payload is appended in one growth. A buffer made at
// full size up front would be zeroed before the copy, which for a 1 MiB
// payload costs more than the copy itself.
func encodeWire(seq uint64, f *Frame) []byte {
	dst := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+FrameHeaderLen), seq)
	return AppendFrame(dst, f)
}

// readWire reads one wire message from r. io.EOF at a message boundary is
// clean; a stream dying inside the prefix wraps ErrTruncatedFrame like a
// death inside the frame would. With rp set, a frame whose prefix carries
// heldBit is read into a chunk from rp and returned with held true: the
// caller then owns one reference and either delivers the payload or
// releases it. A read that fails releases the chunk itself.
//
// Every session reads through one bufio.Reader that lives as long as its
// conn, so a burst of frames costs one read syscall, not three per frame
// (prefix, header, payload). A held payload still lands in its chunk
// directly: the reader copies only the bytes it already buffered and
// reads the rest straight into the chunk.
func readWire(r io.Reader, rp *recvPools) (seq uint64, f Frame, held bool, err error) {
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: stream ended inside sequence prefix", ErrTruncatedFrame)
		}
		return 0, Frame{}, false, err
	}
	seq = binary.LittleEndian.Uint64(pre[:])
	var hdr [FrameHeaderLen]byte
	n, err := readHeader(r, &hdr)
	if err != nil {
		return 0, Frame{}, false, err
	}
	if rp == nil || seq&heldBit == 0 || n < zeroCopyMin {
		f, err = readPayload(r, &hdr, make([]byte, n))
		return seq &^ heldBit, f, false, err
	}
	c := rp.get(n)
	if f, err = readPayload(r, &hdr, c.Bytes()[:n]); err != nil {
		c.Release()
		return 0, Frame{}, false, err
	}
	return seq &^ heldBit, f, true, nil
}

// ctlFrame builds one session-control frame.
func (s *Sock) ctlFrame(kind int64, data []byte) Frame {
	return Frame{CommID: helloCommID, Tag: int(kind), WorldSrc: s.cfg.Rank, Src: s.cfg.Rank, Data: data}
}

// Send ships f to world rank dst. The frame is assigned the next sequence
// number toward dst, queued for retransmission until acknowledged, and
// written inline when a session is up; with no session (or a mid-write
// tear) it stays queued and background recovery dials, resumes and
// resends. Send fails only for a peer already declared dead — transient
// connection trouble is the transport's problem, not the caller's.
//
// A send to a peer takes the caller's payload. A chunk-backed payload of
// at least zeroCopyMin bytes is held: the retransmit entry keeps the chunk
// (buf.Retain) and writes it by reference, and the chunk goes back to its
// pool when the peer's ack, which a held frame asks for at once, trims the
// entry — one round trip. Any other payload is copied into the entry, so a
// small pooled chunk is back in its pool when Send returns. Either way
// Send drops the caller's reference (buf.Release). A self-send hands a
// copy of f, payload by reference, to the receiver, which releases it; a
// failed send leaves the payload with the caller. Send does not keep f
// itself past the call.
func (s *Sock) Send(dst int, f *Frame) error {
	if dst < 0 || dst >= len(s.peers) {
		return &PeerDeadError{Rank: dst, Err: fmt.Errorf("rank out of range")}
	}
	if dst == s.cfg.Rank {
		// Self-send stays in-process; no loopback connection.
		s.sentFrames.Add(1)
		s.sentBytes.Add(int64(len(f.Data)))
		s.recvFrames.Add(1)
		s.recvBytes.Add(int64(len(f.Data)))
		// The receiver keeps what it is delivered; Send keeps no *Frame
		// past the call, so a caller's frame can live on its stack.
		self := *f
		s.deliverInbound(&self)
		return nil
	}
	p := &s.peers[dst]
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return &PeerDeadError{Rank: dst}
	}
	held := len(f.Data) >= zeroCopyMin && buf.Retain(f.Data)
	p.queue = append(p.queue, newEntry(p.nextSeq, f, held))
	p.nextSeq++
	s.sentFrames.Add(1)
	s.sentBytes.Add(int64(len(f.Data)))
	switch {
	case p.conn != nil && !p.reconnecting:
		// Write while holding p.mu: one in-flight frame per connection
		// keeps frames whole and per-peer ordering FIFO.
		e := &p.queue[len(p.queue)-1]
		e.sent = true
		now := time.Now()
		s.armWriteLocked(p, now)
		if err := writeEntry(p.conn, e); err != nil {
			s.tearLocked(p, dst, err)
		} else {
			p.lastProgress = now
		}
	case p.conn == nil && !p.reconnecting:
		s.startReconnectLocked(p, dst)
	}
	p.mu.Unlock()
	buf.Release(f.Data) // a copied entry has its bytes, a held one its own reference
	return nil
}

// armWriteLocked re-arms the live session's write deadline to
// now+WriteTimeout when fewer than ⅞·WriteTimeout of the armed one remain,
// so the next write is bounded by between ⅞·WriteTimeout and WriteTimeout
// without a SetWriteDeadline per frame. Caller holds p.mu.
func (s *Sock) armWriteLocked(p *sockPeer, now time.Time) {
	if p.wdl.Sub(now) < s.cfg.WriteTimeout-s.cfg.WriteTimeout/8 {
		p.wdl = now.Add(s.cfg.WriteTimeout)
		p.conn.SetWriteDeadline(p.wdl)
	}
}

// tearLocked closes a suspect session and kicks background recovery.
// Caller holds p.mu.
func (s *Sock) tearLocked(p *sockPeer, dst int, err error) {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	s.recovery(dst, "tear", 0, err)
	s.startReconnectLocked(p, dst)
}

// startReconnectLocked spawns the single-flight reconnect loop for one
// peer. Caller holds p.mu.
func (s *Sock) startReconnectLocked(p *sockPeer, dst int) {
	if p.dead || p.reconnecting {
		return
	}
	s.spawnMu.RLock()
	if s.closed.Load() {
		s.spawnMu.RUnlock()
		return
	}
	p.reconnecting = true
	s.wg.Add(1)
	s.spawnMu.RUnlock()
	go s.reconnectLoop(dst, p.inc)
}

// reconnectLoop (re)establishes the session toward dst for one peer
// incarnation: dial, handshake, resume-resend — retrying with jittered
// exponential backoff until the reconnect budget runs dry, at which point
// the peer is declared dead. Exactly one loop runs per peer at a time
// (p.reconnecting).
func (s *Sock) reconnectLoop(dst int, inc uint32) {
	defer s.wg.Done()
	p := &s.peers[dst]
	bo := backoff.New(5*time.Millisecond, 250*time.Millisecond, uint64(dst)+1)
	deadline := time.Now().Add(s.cfg.ReconnectTimeout)
	for {
		p.mu.Lock()
		if s.closed.Load() || p.dead || p.inc != inc {
			if p.inc == inc {
				p.reconnecting = false
			}
			p.mu.Unlock()
			return
		}
		addr := p.addr
		p.attempt++
		attempt := p.attempt
		redial := p.everConn
		p.mu.Unlock()

		if redial {
			// Only dials that replace a previously live session count as
			// recovery; the lazy first connection to a peer does not.
			s.redials.Add(1)
			s.recovery(dst, "redial", 0, nil)
		}
		conn, br, resume, err := s.dialSession(dst, addr, inc, attempt)
		if err == nil {
			installed, retry := s.installSession(dst, inc, attempt, conn, br, resume)
			if installed {
				return
			}
			conn.Close()
			if !retry {
				return
			}
			err = fmt.Errorf("transport: session flush failed")
		}

		d := bo.Next(deadline)
		if d <= 0 {
			// Budget exhausted: the peer is unreachable. This is the
			// sender-side death verdict; the coordinator's broadcast (if
			// the peer really is gone) usually lands first.
			p.mu.Lock()
			mark := !p.dead && p.inc == inc
			if mark {
				p.dead = true
				releaseQueue(p.queue)
				p.queue = nil
				wake(s.drained)
			}
			if p.inc == inc {
				p.reconnecting = false
			}
			p.mu.Unlock()
			if mark {
				s.recovery(dst, "peer-unreachable", 0, err)
				s.notifyDeath(dst)
			}
			return
		}
		select {
		case <-s.stop:
			p.mu.Lock()
			if p.inc == inc {
				p.reconnecting = false
			}
			p.mu.Unlock()
			return
		case <-time.After(d):
		}
	}
}

// dialSession opens one session toward a peer: dial (through the wire
// fault layer, faults being sender-scoped), send the hello, await the
// resume answer. Every step is deadline-bounded. The returned reader is
// the session's read side for its life; acks are 48 bytes, so it is small.
func (s *Sock) dialSession(dst int, addr string, inc uint32, attempt uint64) (net.Conn, *bufio.Reader, uint64, error) {
	raw, err := net.Dial(s.cfg.Network, addr)
	if err != nil {
		return nil, nil, 0, err
	}
	conn := s.faults.wrap(raw, s.cfg.Rank, dst)
	data := binary.LittleEndian.AppendUint32(nil, inc)
	data = binary.LittleEndian.AppendUint64(data, attempt)
	hello := s.ctlFrame(ctlHello, data)
	conn.SetWriteDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	if _, err := conn.Write(encodeWire(0, &hello)); err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	br := bufio.NewReaderSize(conn, 256)
	conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	_, resp, _, err := readWire(br, nil)
	if err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	if resp.CommID != helloCommID || resp.Tag != ctlResume || len(resp.Data) != 8 {
		conn.Close()
		return nil, nil, 0, fmt.Errorf("transport: bad session resume from rank %d", dst)
	}
	conn.SetReadDeadline(time.Time{})
	conn.SetWriteDeadline(time.Time{})
	return conn, br, binary.LittleEndian.Uint64(resp.Data), nil
}

// installSession makes a freshly handshaked connection the live session:
// trims the retransmit queue to the acceptor's resume point, resends
// everything still pending, installs the conn and starts its ack reader
// on br, the reader the handshake used.
// Returns installed=false with retry=true when the flush failed (the loop
// should back off and redial) and retry=false when the session is moot
// (shutdown, death, rejoin, or a newer dial superseded this one).
func (s *Sock) installSession(dst int, inc uint32, attempt uint64, conn net.Conn, br *bufio.Reader, resume uint64) (installed, retry bool) {
	p := &s.peers[dst]
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.closed.Load() || p.dead || p.inc != inc || p.attempt != attempt {
		if p.inc == inc && p.attempt == attempt {
			p.reconnecting = false
		}
		return false, false
	}
	// Everything below the resume point reached the peer in a previous
	// session; drop it. (A resume above nextSeq would mean a protocol
	// bug; clamp defensively.)
	if resume > p.nextSeq {
		resume = p.nextSeq
	}
	trimQueue(p, resume)
	if resume > p.acked {
		p.acked = resume
	}
	resent := 0
	var resentB int64
	for i := range p.queue {
		e := &p.queue[i]
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if err := writeEntry(conn, e); err != nil {
			return false, true
		}
		if e.sent {
			// A frame the torn session had already carried: this write is
			// the retransmission the stats and flight recorder track.
			resent++
			resentB += int64(e.n)
		}
		e.sent = true
	}
	conn.SetWriteDeadline(time.Time{})
	if resent > 0 {
		s.resentFrames.Add(int64(resent))
		s.resentBytes.Add(resentB)
		s.recovery(dst, "resend", resent, nil)
	}
	p.conn = conn
	p.wdl = time.Time{}
	p.reconnecting = false
	p.lastProgress = time.Now()
	wake(s.drained)
	if p.everConn {
		s.reconnects.Add(1)
		s.recovery(dst, "reconnect", 0, nil)
	}
	p.everConn = true
	s.wg.Add(1)
	go s.ackLoop(dst, inc, conn, br)
	return true, false
}

// trimQueue drops every entry below ack, releasing held chunks. Caller
// holds p.mu.
func trimQueue(p *sockPeer, ack uint64) {
	i := 0
	for i < len(p.queue) && p.queue[i].seq < ack {
		i++
	}
	if i == 0 {
		return
	}
	releaseQueue(p.queue[:i])
	n := copy(p.queue, p.queue[i:])
	for j := n; j < len(p.queue); j++ {
		p.queue[j] = wireEntry{}
	}
	p.queue = p.queue[:n]
	if n == 0 {
		p.queue = nil
	}
}

// ackLoop is the dialer's read side of one session: it consumes the
// acceptor's cumulative acks (trimming the retransmit queue) and doubles
// as half-open detection — a dead read is how the write side learns a
// quiet connection is gone without waiting to write into it. It reads conn
// through br.
func (s *Sock) ackLoop(dst int, inc uint32, conn net.Conn, br *bufio.Reader) {
	defer s.wg.Done()
	p := &s.peers[dst]
	for {
		_, f, _, err := readWire(br, nil)
		if err != nil {
			p.mu.Lock()
			if p.conn == conn {
				p.conn = nil
				if !s.closed.Load() && !p.dead && p.inc == inc && len(p.queue) > 0 {
					// Frames pending: recover now. With an empty queue the
					// next Send redials lazily.
					s.tearLocked(p, dst, err)
				}
			}
			p.mu.Unlock()
			conn.Close()
			return
		}
		if f.CommID != helloCommID || f.Tag != ctlAck || len(f.Data) != 8 {
			continue
		}
		ack := binary.LittleEndian.Uint64(f.Data)
		p.mu.Lock()
		if p.inc == inc && ack > p.acked {
			p.acked = ack
			trimQueue(p, ack)
			p.lastProgress = time.Now()
			wake(s.drained)
		}
		p.mu.Unlock()
	}
}

// retransmitMonitor watches for sessions that stopped making ack progress
// while frames are pending — the signature of a wire that silently ate a
// frame (drop, partition) — and tears them so recovery resyncs via the
// resume handshake.
func (s *Sock) retransmitMonitor() {
	defer s.wg.Done()
	tick := s.cfg.RetransmitTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		for dst := range s.peers {
			if dst == s.cfg.Rank {
				continue
			}
			p := &s.peers[dst]
			p.mu.Lock()
			if !p.dead && p.conn != nil && !p.reconnecting && len(p.queue) > 0 &&
				now.Sub(p.lastProgress) > s.cfg.RetransmitTimeout {
				s.tearLocked(p, dst, errAckStall)
			}
			p.mu.Unlock()
		}
	}
}

// errAckStall is the tear reason of a retransmit-timeout resync.
var errAckStall = errors.New("transport: no ack progress within the retransmit timeout")

// drain blocks until every live peer's retransmit queue is empty (all
// pending frames flushed and acknowledged) or the drain budget runs out.
// Without it a rank exiting right after its last Send would close the
// socket under frames still queued for a session that is not up yet, and
// a clean exit would read as frame loss to its peers. Each live session
// with pending frames gets one ack request per (session, frame count), so
// the drain takes a round trip, not an AckInterval. Between passes it
// waits on s.drained, not on a clock: an ack trim, a session coming up, a
// peer's death or rejoin wakes it.
func (s *Sock) drain() {
	type ask struct {
		conn net.Conn
		seq  uint64
	}
	asked := make([]ask, len(s.peers))
	budget := time.NewTimer(s.cfg.DrainTimeout)
	defer budget.Stop()
	for {
		pending := false
		for i := range s.peers {
			p := &s.peers[i]
			p.mu.Lock()
			if !p.dead && len(p.queue) > 0 {
				pending = true
				switch cur := (ask{p.conn, p.nextSeq}); {
				case p.conn == nil && !p.reconnecting:
					// A queue with no session and no recovery in flight
					// would sit forever; kick the dial.
					s.startReconnectLocked(p, i)
				case p.conn != nil && !p.reconnecting && asked[i] != cur:
					asked[i] = cur
					s.requestAckLocked(p, i)
				}
			}
			p.mu.Unlock()
		}
		if !pending {
			return
		}
		select {
		case <-s.drained:
		case <-budget.C:
			return
		}
	}
}

// requestAckLocked writes an ack request on the live session; a failed
// write tears it like a failed data write. Caller holds p.mu.
func (s *Sock) requestAckLocked(p *sockPeer, dst int) {
	req := s.ctlFrame(ctlAckReq, nil)
	s.armWriteLocked(p, time.Now())
	if _, err := p.conn.Write(encodeWire(0, &req)); err != nil {
		s.tearLocked(p, dst, err)
	}
}

// Close shuts the endpoint down: listener, coordinator registration and
// every peer connection, after draining pending frames. Safe to call
// more than once.
func (s *Sock) Close() error {
	if s.closed.Load() {
		return nil
	}
	s.drain()
	s.spawnMu.Lock()
	already := s.closed.Swap(true)
	s.spawnMu.Unlock()
	if already {
		return nil
	}
	close(s.stop)
	err := s.ln.Close()
	if s.coord != nil {
		s.coord.Close()
	}
	for i := range s.peers {
		p := &s.peers[i]
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		// Whatever the drain could not flush is lost with the connection;
		// its held chunks go back to their pools.
		releaseQueue(p.queue)
		p.queue = nil
		p.mu.Unlock()
	}
	for i := range s.recv {
		r := &s.recv[i]
		r.mu.Lock()
		if r.conn != nil {
			r.conn.Close()
			r.conn = nil
		}
		r.mu.Unlock()
	}
	s.wg.Wait()
	return err
}

// acceptLoop admits inbound peer connections and spawns a reader per
// connection.
func (s *Sock) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.readLoop(conn)
	}
}

// readLoop drains one inbound session: a hello identifying the peer and
// its dial attempt, the resume answer, then sequence-checked data frames
// into Deliver, with cumulative acks flowing back. A broken inbound
// stream — EOF, a truncated frame, a CRC-corrupt frame, a sequence gap —
// is no longer the peer's death: this side parks at its resume point and
// the sender redials. Death is the coordinator's verdict alone.
func (s *Sock) readLoop(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	// One reader for the session's life, from the hello on: 16 KiB holds a
	// burst of small frames whole, and a held payload reads past it.
	br := bufio.NewReaderSize(conn, 16<<10)
	conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	_, hello, _, err := readWire(br, nil)
	if err != nil || hello.CommID != helloCommID || hello.Tag != ctlHello ||
		hello.WorldSrc < 0 || hello.WorldSrc >= len(s.peers) || len(hello.Data) != 12 {
		return
	}
	conn.SetReadDeadline(time.Time{})
	peer := hello.WorldSrc
	inc := binary.LittleEndian.Uint32(hello.Data)
	attempt := binary.LittleEndian.Uint64(hello.Data[4:])

	r := &s.recv[peer]
	r.mu.Lock()
	if inc < r.inc || (inc == r.inc && attempt <= r.attempt) {
		// A stale dial: a newer session already superseded it.
		r.mu.Unlock()
		return
	}
	if inc > r.inc {
		// A respawned peer starts a fresh sequence space.
		r.inc = inc
		r.seq = 0
	}
	if r.conn != nil {
		r.conn.Close()
	}
	r.conn = conn
	r.attempt = attempt
	resume := r.seq
	r.mu.Unlock()

	resp := s.ctlFrame(ctlResume, binary.LittleEndian.AppendUint64(nil, resume))
	conn.SetWriteDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	if _, err := conn.Write(encodeWire(0, &resp)); err != nil {
		s.detachRecv(r, conn)
		return
	}
	conn.SetWriteDeadline(time.Time{})
	kick := make(chan struct{}, 1)
	s.wg.Add(1)
	go s.ackFlusher(r, conn, kick)

	for {
		seq, f, held, err := readWire(br, &s.rpools)
		if err != nil {
			s.detachRecv(r, conn)
			return
		}
		// A held payload the loop does not deliver goes back to its pool.
		discard := func() {
			if held {
				buf.Release(f.Data)
			}
		}
		if f.CommID == helloCommID {
			// Control frames never consume a sequence; an ack request
			// wakes the flusher, any other is stray.
			discard()
			if f.Tag == ctlAckReq {
				wake(kick)
			}
			continue
		}
		r.mu.Lock()
		if r.conn != conn {
			r.mu.Unlock()
			discard()
			return // superseded mid-read; the new session owns the stream
		}
		switch {
		case seq == r.seq:
			r.seq++
			s.recvFrames.Add(1)
			s.recvBytes.Add(int64(len(f.Data)))
			// Deliver under r.mu: across a session switch the resume
			// snapshot cannot overtake an in-flight delivery, so per-peer
			// FIFO holds across reconnects.
			s.deliverInbound(&f)
			r.mu.Unlock()
			if held {
				// The sender holds this frame's chunk until our ack: send
				// it now, so the hold lasts a round trip, not AckInterval.
				wake(kick)
			}
		case seq < r.seq:
			r.mu.Unlock() // a duplicate of an already-delivered frame
			discard()
		default:
			// Sequence gap: the wire silently swallowed a frame. Tear the
			// session; the sender's recovery resends from our resume point.
			r.conn = nil
			r.mu.Unlock()
			discard()
			return
		}
	}
}

// wake signals a one-slot wakeup channel unless a wakeup is already
// pending: an ack flusher's kick, or a draining Close's s.drained.
func wake(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// detachRecv clears the live-session pointer if conn still holds it.
func (s *Sock) detachRecv(r *recvState, conn net.Conn) {
	r.mu.Lock()
	if r.conn == conn {
		r.conn = nil
	}
	r.mu.Unlock()
}

// ackFlusher periodically writes the cumulative receive sequence back to
// the dialer, and at once when kicked by an ack request. Acks are
// idempotent and cumulative, so pacing them is purely a bandwidth/latency
// trade.
func (s *Sock) ackFlusher(r *recvState, conn net.Conn, kick <-chan struct{}) {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.AckInterval)
	defer t.Stop()
	var last uint64
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		case <-kick:
		}
		r.mu.Lock()
		if r.conn != conn {
			r.mu.Unlock()
			return
		}
		cur := r.seq
		r.mu.Unlock()
		if cur == last {
			continue
		}
		ack := s.ctlFrame(ctlAck, binary.LittleEndian.AppendUint64(nil, cur))
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if _, err := conn.Write(encodeWire(0, &ack)); err != nil {
			return
		}
		last = cur
	}
}

func (s *Sock) deliverInbound(f *Frame) {
	s.cfg.Deliver(s.cfg.Rank, f)
}

// peerConnDied marks a peer dead on the coordinator's death broadcast,
// unless the broadcast is stale against a newer incarnation we already
// know about.
func (s *Sock) peerConnDied(rank int, inc uint32) {
	p := &s.peers[rank]
	p.mu.Lock()
	if inc < p.inc || p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	releaseQueue(p.queue)
	p.queue = nil
	p.mu.Unlock()
	wake(s.drained)
	s.notifyDeath(rank)
}

// coordLoop consumes coordinator broadcasts after the world barrier:
// deaths and rejoins. The coordinator connection dropping (parent
// shutting down) just ends the loop.
func (s *Sock) coordLoop(dec *json.Decoder) {
	defer s.wg.Done()
	for {
		var msg coordMsg
		if err := dec.Decode(&msg); err != nil {
			return
		}
		switch msg.Op {
		case "death":
			if msg.Rank >= 0 && msg.Rank < len(s.peers) && msg.Rank != s.cfg.Rank {
				s.peerConnDied(msg.Rank, s.peerInc(msg.Rank))
			}
		case "update":
			if msg.Rank >= 0 && msg.Rank < len(s.peers) && msg.Rank != s.cfg.Rank {
				s.peerRejoined(msg.Rank, msg.Addr, msg.Inc)
			}
		}
	}
}

func (s *Sock) peerInc(rank int) uint32 {
	p := &s.peers[rank]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inc
}

// peerRejoined installs a respawned peer's new address/incarnation and
// revives it for senders, resetting the session sequence space — the
// respawned process re-publishes from scratch under its new incarnation.
func (s *Sock) peerRejoined(rank int, addr string, inc uint32) {
	p := &s.peers[rank]
	p.mu.Lock()
	if inc < p.inc || (inc == p.inc && !p.dead) {
		p.mu.Unlock()
		return // stale broadcast
	}
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	wasDead := p.dead
	p.addr, p.inc, p.dead = addr, inc, false
	p.reconnecting = false
	p.nextSeq, p.acked = 0, 0
	releaseQueue(p.queue)
	p.queue = nil
	p.everConn = false
	p.lastProgress = time.Now()
	p.mu.Unlock()
	wake(s.drained)
	if wasDead && s.cfg.OnPeerRejoin != nil {
		s.cfg.OnPeerRejoin(rank)
	}
}

func (s *Sock) notifyDeath(rank int) {
	if s.closed.Load() {
		return
	}
	if s.cfg.OnPeerDeath != nil {
		s.cfg.OnPeerDeath(rank)
	}
}
