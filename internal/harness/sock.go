package harness

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"lowfive/internal/rankmain"
	"lowfive/internal/transport"
)

// Transport names for Config.Transport and lowfive-bench -transport.
const (
	// TransportChan is the in-proc engine: ranks as goroutines of this
	// process (the default, and the only engine the simulation trials use).
	TransportChan = "chan"
	// TransportSock is the real-socket engine: ranks as separate OS
	// processes exchanging CRC-framed messages.
	TransportSock = "sock"
)

// SockCase is one socket-mode smoke scenario.
type SockCase struct {
	// Name labels the case in results.
	Name string
	// Network is "tcp" or "unix".
	Network string
	// KillRank, when >= 0, is the world rank whose process is SIGKILLed
	// KillAfter into the run and then respawned with a bumped incarnation.
	KillRank int
	// KillAfter is how long after spawn the kill lands.
	KillAfter time.Duration
}

// SockResult reports one socket-mode smoke case.
type SockResult struct {
	// Case and Network identify the scenario.
	Case, Network string
	// Procs is the number of rank processes spawned (restarts not counted).
	Procs int
	// Restarts counts respawned rank processes.
	Restarts int
	// Identical reports whether every consumer digest matched the in-proc
	// chan-engine reference bit for bit.
	Identical bool
	// Seconds is the wall time of the multi-process run.
	Seconds float64
}

// defaultSockSpec sizes the smoke workload: small enough for CI under
// -race, long enough (paced epochs) that a mid-run kill lands mid-stream.
func defaultSockSpec() rankmain.Spec {
	return rankmain.Spec{
		Producers: 2, Consumers: 2, Epochs: 6, SliceBytes: 8 << 10,
		Seed: 7, PaceMs: 40, ToleranceMs: 30000,
	}
}

// defaultSockCaseKillAfter places the SIGKILL inside the paced send phase
// (6 epochs x 40 ms): late enough that connections exist, early enough
// that epochs remain unsent.
const defaultSockCaseKillAfter = 120 * time.Millisecond

// DefaultSockCases is the standard socket-mode smoke matrix: a clean run
// on each network flavor plus a kill-and-respawn run.
func DefaultSockCases() []SockCase {
	return []SockCase{
		{Name: "clean/unix", Network: "unix", KillRank: -1},
		{Name: "clean/tcp", Network: "tcp", KillRank: -1},
		{Name: "kill-producer/unix", Network: "unix", KillRank: 0, KillAfter: defaultSockCaseKillAfter},
	}
}

// SockSmoke runs the socket-transport smoke sweep: for each case it
// computes the in-proc reference digests, spawns one OS process per world
// rank (re-executing the current binary through rankmain.ChildFromEnv),
// optionally SIGKILLs one rank mid-run and respawns it with a bumped
// incarnation — the process-world analogue of the in-proc supervisor's
// RestartTask path — and verifies every consumer produced bit-identical
// data to the in-proc run.
func (c Config) SockSmoke(cases []SockCase) ([]SockResult, error) {
	if cases == nil {
		cases = DefaultSockCases()
	}
	spec := defaultSockSpec()
	ref, err := rankmain.RunChan(spec)
	if err != nil {
		return nil, fmt.Errorf("chan reference: %w", err)
	}
	var out []SockResult
	for _, sc := range cases {
		c.setStatus("sock.case", sc.Name)
		c.logf("sock smoke: %s (world %d over %s)\n", sc.Name, spec.WorldSize(), sc.Network)
		res, err := runSockCase(spec, sc, ref)
		if err != nil {
			return out, fmt.Errorf("case %s: %w", sc.Name, err)
		}
		c.logf("sock smoke: %s done in %.2fs (restarts %d, identical %v)\n",
			sc.Name, res.Seconds, res.Restarts, res.Identical)
		out = append(out, res)
	}
	return out, nil
}

// rankProc is one spawned rank process and its captured stdout.
type rankProc struct {
	cmd *exec.Cmd
	out *bytes.Buffer
}

// spawnRank re-executes this binary as one rank child.
func spawnRank(spec rankmain.Spec, network, coord string, rank int, inc uint32) (*rankProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &rankProc{out: &bytes.Buffer{}}
	p.cmd = exec.Command(exe)
	p.cmd.Env = append(os.Environ(), rankmain.ChildEnv(spec, network, coord, rank, inc)...)
	p.cmd.Stdout = p.out
	p.cmd.Stderr = os.Stderr
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	return p, nil
}

// caseTimeout bounds one whole smoke case, including respawn recovery.
const caseTimeout = 90 * time.Second

// sockCaseSeq makes the unix coordinator socket path unique per case.
var sockCaseSeq atomic.Int64

func runSockCase(spec rankmain.Spec, sc SockCase, ref []uint64) (SockResult, error) {
	restarts, secs, err := runProcs(spec, sc.Network, sc.KillRank, sc.KillAfter, ref, nil)
	return SockResult{
		Case: sc.Name, Network: sc.Network, Procs: spec.WorldSize(),
		Restarts: restarts, Identical: err == nil, Seconds: secs,
	}, err
}

// runProcs runs one multi-process case, the body of both process sweeps:
// it starts a coordinator, spawns one process per world rank of spec over
// network, and, when killRank >= 0, SIGKILLs that rank killAfter into the
// run and respawns it as incarnation 1. The coordinator broadcasts the
// death (peers fail receives typed) and then the rejoin (peers revive the
// rank); the respawned rank re-publishes everything and consumers
// deduplicate. It then waits for every current process within caseTimeout
// and compares each consumer's digest with ref, so a nil error means every
// digest matched. scan, if set, sees every line the processes printed. It
// returns the restart count and the run's wall seconds.
func runProcs(spec rankmain.Spec, network string, killRank int, killAfter time.Duration, ref []uint64, scan func(line string)) (restarts int, seconds float64, err error) {
	coordAddr := "127.0.0.1:0"
	if network == "unix" {
		coordAddr = fmt.Sprintf("%s/lf-coord-%d.%d.sock", os.TempDir(), os.Getpid(), sockCaseSeq.Add(1))
		os.Remove(coordAddr)
	}
	coord, err := transport.NewCoordinator(network, coordAddr, spec.WorldSize())
	if err != nil {
		return restarts, seconds, err
	}
	defer coord.Close()

	t0 := time.Now()
	procs := make([]*rankProc, spec.WorldSize())
	for r := range procs {
		if procs[r], err = spawnRank(spec, network, coord.Addr(), r, 0); err != nil {
			killAll(procs)
			return restarts, seconds, fmt.Errorf("spawn rank %d: %w", r, err)
		}
	}
	defer killAll(procs)

	if killRank >= 0 {
		time.Sleep(killAfter)
		victim := procs[killRank]
		if err := victim.cmd.Process.Kill(); err != nil {
			return restarts, seconds, fmt.Errorf("kill rank %d: %w", killRank, err)
		}
		victim.cmd.Wait() // reap; exit error is the point
		if procs[killRank], err = spawnRank(spec, network, coord.Addr(), killRank, 1); err != nil {
			return restarts, seconds, fmt.Errorf("respawn rank %d: %w", killRank, err)
		}
		restarts++
	}

	if err := waitProcs(procs, caseTimeout); err != nil {
		return restarts, seconds, err
	}
	seconds = time.Since(t0).Seconds()

	digests := map[int]uint64{}
	for _, p := range procs {
		for _, line := range strings.Split(p.out.String(), "\n") {
			if rank, d, ok := rankmain.ParseDigest(line); ok {
				digests[rank] = d
			}
			if scan != nil {
				scan(line)
			}
		}
	}
	for ci := 0; ci < spec.Consumers; ci++ {
		d, ok := digests[spec.Producers+ci]
		if !ok {
			return restarts, seconds, fmt.Errorf("consumer rank %d printed no digest", spec.Producers+ci)
		}
		if d != ref[ci] {
			return restarts, seconds, fmt.Errorf("consumer digests differ from the in-proc reference")
		}
	}
	return restarts, seconds, nil
}

// waitProcs waits for every current rank process, bounded by the timeout.
func waitProcs(procs []*rankProc, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() {
		var firstErr error
		for r, p := range procs {
			if err := p.cmd.Wait(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("rank %d: %w (stderr above)", r, err)
			}
		}
		done <- firstErr
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("case timed out after %s", timeout)
	}
}

func killAll(procs []*rankProc) {
	for _, p := range procs {
		if p != nil && p.cmd.Process != nil {
			p.cmd.Process.Signal(syscall.SIGKILL)
		}
	}
}
