package mpi

import (
	"fmt"
	"time"

	"lowfive/internal/transport"
	"lowfive/metrics"
)

// Sock-engine types re-exported so launchers and harnesses need not import
// internal/transport.
type (
	// SockRecoveryEvent is one observation from the sock engine's
	// reconnect/resend machinery.
	SockRecoveryEvent = transport.RecoveryEvent
	// JoinTimeoutError reports a sock world that did not form in time.
	JoinTimeoutError = transport.JoinTimeoutError
	// SockStats is the sock engine's traffic/recovery counter snapshot.
	SockStats = transport.SockStats
)

// SockTuning overrides the sock engine's recovery timings; zero fields
// keep the transport defaults.
type SockTuning = transport.Tuning

// SockWorldConfig configures one process's membership in a sock-transport
// world: every rank is a separate OS process, frames travel CRC-framed
// over TCP or Unix sockets, and ranks find each other through a
// rendezvous coordinator (transport.Coordinator).
type SockWorldConfig struct {
	// Network is "tcp" or "unix".
	Network string
	// Coord is the coordinator address all ranks rendezvous at.
	Coord string
	// Rank is this process's world rank; Size is the world size.
	Rank, Size int
	// Inc is this rank's incarnation: 0 on first launch, bumped by the
	// supervisor for each respawn so peers distinguish the restart from
	// the process it replaced.
	Inc uint32
	// Wire, if set, injects seeded faults into this process's outgoing
	// connection writes, below the frame codec. NewSockWorld rejects a rule
	// the wire cannot honour: FaultDuplicate, FaultCrash, FaultHang, OnRecv
	// or a non-zero Tag.
	Wire *FaultPlan
	// Tuning overrides recovery timings; the zero value keeps defaults.
	Tuning SockTuning
	// Flight, if set, records recovery events (reconnects, resends, peers
	// declared unreachable) alongside the slow queries the consumer's
	// flight recorder already holds — one place to look after a bad run.
	Flight *metrics.FlightRecorder
}

// NewSockWorld joins (or forms) a multi-process world. It blocks until
// all Size rank processes have reached the coordinator, then returns a
// World on which only cfg.Rank is local — run it with RunLocal, and Close
// it when done.
//
// Differences from an in-proc world, all consequences of process
// isolation:
//
//   - The deadlock watchdog defaults to off: it can only see this
//     process's rank, and one blocked rank is not a deadlock. WithWatchdog
//     re-enables it explicitly.
//   - A peer process dying surfaces exactly like an injected crash:
//     receivers blocked on it get RankFailedError, and a respawned peer
//     (higher incarnation) is revived through the same reviveRank path the
//     in-proc supervisor uses.
//   - A fault plan only perturbs traffic this rank sends or receives;
//     rules scoped to other ranks fire in their processes.
func NewSockWorld(cfg SockWorldConfig, opts ...Option) (*World, error) {
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("mpi: sock rank %d out of range for world size %d", cfg.Rank, cfg.Size)
	}
	w, err := newWorldCore(cfg.Size, 0, opts)
	if err != nil {
		return nil, err
	}
	w.localRank = cfg.Rank
	w.incs[cfg.Rank].Store(cfg.Inc)
	sock, err := transport.DialSock(transport.SockConfig{
		Network: cfg.Network,
		Coord:   cfg.Coord,
		Rank:    cfg.Rank,
		Size:    cfg.Size,
		Inc:     cfg.Inc,
		Deliver: w.enqueueInbound,
		// A dead peer flows into the same failure machinery an injected
		// FaultCrash uses: markFailed wakes every blocked receiver, which
		// then observes RankFailedError.
		OnPeerDeath: func(rank int) { w.markFailed(rank) },
		// A respawned peer is revived like a supervised in-proc restart:
		// incarnation bump, mailbox purge, fresh failure channel.
		OnPeerRejoin: func(rank int) { w.reviveRank(rank) },
		OnRecovery:   w.sockRecoveryHook(cfg.Flight),
		Faults:       cfg.Wire,
		Tuning:       cfg.Tuning,
	})
	if err != nil {
		return nil, err
	}
	w.xport = sockEngine{sock}
	return w, nil
}

// sockEngine is the sock engine as a transport.Transport: its Send takes
// the frame by value and lends the engine a pointer to it, which the
// engine does not keep, so the frame stays on the sender's stack.
type sockEngine struct{ *transport.Sock }

func (e sockEngine) Send(dst int, f transport.Frame) error { return e.Sock.Send(dst, &f) }

// sockRecoveryHook turns transport recovery events into metrics counters
// (when the world carries a registry) and flight-recorder entries (when
// the launcher passes one), so a run that survived wire faults shows its
// scars: how often connections tore, how many frames were resent, which
// peers went unreachable.
func (w *World) sockRecoveryHook(flight *metrics.FlightRecorder) func(transport.RecoveryEvent) {
	if w.metrics == nil && flight == nil {
		return nil
	}
	var tears, redials, reconnects, resent, unreachable *metrics.Counter
	if w.metrics != nil {
		tears = w.metrics.Counter("sock.tears")
		redials = w.metrics.Counter("sock.redials")
		reconnects = w.metrics.Counter("sock.reconnects")
		resent = w.metrics.Counter("sock.resent.frames")
		unreachable = w.metrics.Counter("sock.peer.unreachable")
	}
	return func(ev transport.RecoveryEvent) {
		if w.metrics != nil {
			switch ev.Kind {
			case "tear":
				tears.Inc()
			case "redial":
				redials.Inc()
			case "reconnect":
				reconnects.Inc()
			case "resend":
				resent.Add(int64(ev.Frames))
			case "peer-unreachable":
				unreachable.Inc()
			}
		}
		// Tears and redials are high-frequency noise under a fault plan;
		// the recorder keeps the episodes that matter for postmortems.
		if ev.Kind == "reconnect" || ev.Kind == "resend" || ev.Kind == "peer-unreachable" {
			flight.Record(metrics.SlowQuery{
				Time:      time.Now(),
				Producers: []int{ev.Peer},
				Chunks:    int64(ev.Frames),
				Reason:    "sock-" + ev.Kind,
			})
		}
	}
}

// RunWorkflowLocal executes this process's slice of a multi-task workflow
// on a sock world: the same contiguous rank layout and intercomm wiring
// RunWorkflow uses in-proc, but with exactly one rank local and every
// other rank a peer process. Each rank process of the world calls this
// with identical specs.
func (w *World) RunWorkflowLocal(specs []TaskSpec) error {
	if w.localRank < 0 {
		return fmt.Errorf("mpi: RunWorkflowLocal requires a sock world (use RunWorkflow)")
	}
	ranges, total, err := layoutWorkflow(specs)
	if err != nil {
		return err
	}
	if total != w.size {
		return fmt.Errorf("mpi: workflow wants %d procs, world has %d", total, w.size)
	}
	wr := w.localRank
	ti := taskOfRank(ranges, wr)
	taskRank := wr - ranges[ti][0]
	inc := w.incs[wr].Load()
	return w.RunLocal(func(*Comm) {
		// The incarnation doubles as the attempt counter: a respawned
		// process reruns its task main with Attempt = Inc, same as a
		// supervised in-proc restart.
		specs[ti].Main(buildProc(w, specs, ranges, ti, taskRank, inc, int(inc)))
	})
}

// LocalRank returns this process's world rank in a sock world, or -1 when
// every rank is local (in-proc world).
func (w *World) LocalRank() int { return w.localRank }

// SockStats returns the sock engine's data-plane counters, or false for
// an in-proc world.
func (w *World) SockStats() (transport.SockStats, bool) {
	if s, ok := w.xport.(sockEngine); ok {
		return s.Stats(), true
	}
	return transport.SockStats{}, false
}

// RunLocal executes main as this process's rank of a sock world and
// returns how it ended: nil on completion, *RankFailedError if the rank
// died (injected crash or a supervisor teardown), *AbortedError if this
// process's world aborted, or the panic error if main itself panicked.
// Unlike Run it does not abort the world on an application panic's
// behalf-of-other-ranks — there are no other local ranks.
func (w *World) RunLocal(main func(c *Comm)) (err error) {
	if w.localRank < 0 {
		return fmt.Errorf("mpi: RunLocal requires a sock world (use Run)")
	}
	if w.tracks != nil && w.tracks[w.localRank] == nil {
		w.tracks[w.localRank] = w.tracer.NewTrack("world", 0, fmt.Sprintf("rank %d", w.localRank), w.localRank)
	}
	c := &Comm{
		world: w,
		id:    worldCommID,
		ranks: w.worldRanks(),
		rank:  w.localRank,
		inc:   w.incs[w.localRank].Load(),
	}
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	if w.watchdog > 0 {
		go w.watch(stopWatch)
	}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		switch p := rec.(type) {
		case rankCrashPanic:
			err = &RankFailedError{Rank: p.rank}
		case *RankFailedError:
			err = p
		case *AbortedError:
			err = p
		case error:
			err = p
		default:
			err = fmt.Errorf("rank %d panicked: %v", w.localRank, rec)
		}
	}()
	main(c)
	return nil
}

// Close shuts down the world's transport engine (sockets, listener,
// coordinator registration for the sock engine; a no-op for the in-proc
// engine). Safe to call more than once.
func (w *World) Close() error {
	if w.xport == nil {
		return nil
	}
	return w.xport.Close()
}
