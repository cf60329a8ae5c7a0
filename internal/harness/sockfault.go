package harness

import (
	"fmt"
	"time"

	"lowfive/internal/rankmain"
	"lowfive/mpi"
)

// The sock fault sweep: each case runs a real multi-process world — one OS
// process per rank over TCP or Unix sockets — with a seeded wire FaultPlan
// sabotaging the wire below the frame codec, and proves the transport's
// reconnect/resume/resend machinery keeps the data bit-identical to the
// in-proc chan-engine reference. Four cases exercise wire recovery under
// the full distributed-VOL exchange (the paper's workflow, so collectives
// and metadata queries ride the faulted wire too); the fifth stacks a
// SIGKILL+respawn on top of wire corruption, composing the process-restart
// protocol with connection-level recovery.

// SockFaultCase is one wire-fault scenario of the sweep.
type SockFaultCase struct {
	// Name labels the case; Network is "tcp" or "unix".
	Name, Network string
	// Spec is the full child-process workload, including the wire FaultPlan and
	// recovery tuning that ride the spawn environment.
	Spec rankmain.Spec
	// KillRank, when >= 0, is SIGKILLed KillAfter into the run and
	// respawned with a bumped incarnation.
	KillRank  int
	KillAfter time.Duration
	// WantReconnects / WantResent assert that the recovery counters
	// summed over every rank process came out positive — proof the faults
	// actually landed and the transport recovered, rather than the plan
	// missing the traffic.
	WantReconnects, WantResent bool
}

// SockFaultResult reports one sweep case.
type SockFaultResult struct {
	// Case and Network identify the scenario.
	Case, Network string
	// Procs is the world size; Restarts counts respawned processes.
	Procs, Restarts int
	// Identical reports whether every consumer digest matched the in-proc
	// reference bit for bit.
	Identical bool
	// Reconnects, Redials and ResentFrames are the recovery counters
	// summed over every rank process's final stats line.
	Reconnects, Redials, ResentFrames int64
	// Seconds is the wall time of the multi-process run.
	Seconds float64
}

// volFaultSpec sizes the distributed-VOL workload the wire-fault cases
// run: small enough for CI under -race, chatty enough (three epochs of
// create/serve/read/validate) that mid-stream faults land on live
// sessions. FastRecovery tightens the transport's tear/redial/resend
// timings so recovery converges in milliseconds.
func volFaultSpec(wire *mpi.FaultPlan) rankmain.Spec {
	return rankmain.Spec{
		Producers: 2, Consumers: 2, Epochs: 3,
		Workload: "vol", GridPoints: 512, Particles: 128,
		Seed: 7, PaceMs: 10, ToleranceMs: 30000,
		Wire: wire, FastRecovery: true,
	}
}

// DefaultSockFaultCases is the standard wire-fault matrix. Every rule is
// Count-bounded (or, for the partition, window-bounded), which is what
// makes a lossy plan deterministically survivable; After offsets place
// the faults past the session handshake so they land mid-stream.
func DefaultSockFaultCases() []SockFaultCase {
	return []SockFaultCase{
		{
			// A producer's connection hard-resets mid-frame, twice. The
			// sender sees the write error, redials, resumes and resends.
			Name: "conn-reset-midstream", Network: "tcp",
			Spec: volFaultSpec(&mpi.FaultPlan{Seed: 11, Rules: []mpi.FaultRule{
				{Action: mpi.FaultReset, Rank: 0, After: 8, Count: 2},
			}}),
			KillRank: -1, WantReconnects: true, WantResent: true,
		},
		{
			// Seeded byte flips on the wire. The receiver's CRC (or a
			// mangled sequence prefix) rejects the frame and parks at its
			// resume point; the sender's ack stall tears and resends.
			Name: "corrupt-on-wire", Network: "unix",
			Spec: volFaultSpec(&mpi.FaultPlan{Seed: 12, Rules: []mpi.FaultRule{
				{Action: mpi.FaultCorrupt, Rank: 1, After: 6, Count: 2},
			}}),
			KillRank: -1, WantReconnects: true, WantResent: true,
		},
		{
			// Every link out of every rank paced to 256 KiB/s. Nothing to
			// recover — the assertion is that real backpressure (slept
			// writes under the send lock) perturbs no byte of the data.
			Name: "throttled-link", Network: "unix",
			Spec: volFaultSpec(&mpi.FaultPlan{Seed: 13, Rules: []mpi.FaultRule{
				{Action: mpi.FaultThrottle, Rank: mpi.AnyRank, After: 2, Bandwidth: 256 << 10},
			}}),
			KillRank: -1,
		},
		{
			// A 250ms partition window on a producer's outgoing links:
			// writes silently vanish, redial handshakes die inside the
			// window, and the link heals on its own. Only the ack-progress
			// timeout can detect it; resume/resend repairs it.
			Name: "partition-then-heal", Network: "tcp",
			Spec: volFaultSpec(&mpi.FaultPlan{Seed: 14, Rules: []mpi.FaultRule{
				{Action: mpi.FaultPartition, Rank: 0, After: 6, Count: 1, Duration: 250 * time.Millisecond},
			}}),
			KillRank: -1, WantReconnects: true, WantResent: true,
		},
		{
			// The composed case: SIGKILL a producer mid-stream (the digest
			// workload's respawn/dedup restart protocol) while a second
			// producer's wire corrupts a frame (connection-level recovery).
			// Both layers must hold at once.
			Name: "kill-under-wire-faults", Network: "unix",
			Spec: func() rankmain.Spec {
				s := defaultSockSpec()
				s.Wire = &mpi.FaultPlan{Seed: 15, Rules: []mpi.FaultRule{
					{Action: mpi.FaultCorrupt, Rank: 1, After: 5, Count: 1},
				}}
				s.FastRecovery = true
				return s
			}(),
			KillRank: 0, KillAfter: defaultSockCaseKillAfter,
			WantReconnects: true, WantResent: true,
		},
	}
}

// SockFaultSweep runs the wire-fault matrix: for each case it computes the
// in-proc reference digests, spawns the rank processes with the wire FaultPlan
// riding their environment, optionally SIGKILLs and respawns one rank, and
// verifies (a) every consumer's data is bit-identical to the fault-free
// in-proc run and (b) the summed recovery counters prove the faults were
// hit and survived rather than missed.
func (c Config) SockFaultSweep(cases []SockFaultCase) ([]SockFaultResult, error) {
	if cases == nil {
		cases = DefaultSockFaultCases()
	}
	var out []SockFaultResult
	for _, fc := range cases {
		c.setStatus("sock.fault.case", fc.Name)
		c.logf("sock fault sweep: %s (world %d over %s)\n", fc.Name, fc.Spec.WorldSize(), fc.Network)
		res, err := runSockFaultCase(fc)
		if err != nil {
			return out, fmt.Errorf("case %s: %w", fc.Name, err)
		}
		c.logf("sock fault sweep: %s done in %.2fs (reconnects %d, redials %d, resent %d, identical %v)\n",
			fc.Name, res.Seconds, res.Reconnects, res.Redials, res.ResentFrames, res.Identical)
		out = append(out, res)
	}
	return out, nil
}

// faultRef computes the in-proc chan-engine reference digests for a case's
// workload. The chan engine never sees the wire plan, so this is the
// fault-free truth the faulted sock run must reproduce.
func faultRef(spec rankmain.Spec) ([]uint64, error) {
	if spec.Workload == "vol" {
		return rankmain.RunChanVOL(spec)
	}
	return rankmain.RunChan(spec)
}

func runSockFaultCase(fc SockFaultCase) (SockFaultResult, error) {
	res := SockFaultResult{Case: fc.Name, Network: fc.Network, Procs: fc.Spec.WorldSize()}
	ref, err := faultRef(fc.Spec)
	if err != nil {
		return res, fmt.Errorf("chan reference: %w", err)
	}
	// Sum the per-rank recovery counters from the children's stats lines.
	restarts, secs, err := runProcs(fc.Spec, fc.Network, fc.KillRank, fc.KillAfter, ref, func(line string) {
		if _, st, ok := rankmain.ParseSockStats(line); ok {
			res.Reconnects += st.Reconnects
			res.Redials += st.Redials
			res.ResentFrames += st.ResentFrames
		}
	})
	res.Restarts, res.Identical, res.Seconds = restarts, err == nil, secs
	if err != nil {
		return res, err
	}
	if fc.WantReconnects && res.Reconnects == 0 {
		return res, fmt.Errorf("expected reconnects > 0, got 0 (faults never landed?)")
	}
	if fc.WantResent && res.ResentFrames == 0 {
		return res, fmt.Errorf("expected resent frames > 0, got 0 (faults never landed?)")
	}
	return res, nil
}
