package harness

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
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
	res := SockResult{Case: sc.Name, Network: sc.Network, Procs: spec.WorldSize()}
	coordAddr := "127.0.0.1:0"
	if sc.Network == "unix" {
		coordAddr = fmt.Sprintf("%s/lf-coord-%d.%d.sock", os.TempDir(), os.Getpid(), sockCaseSeq.Add(1))
		os.Remove(coordAddr)
	}
	coord, err := transport.NewCoordinator(sc.Network, coordAddr, spec.WorldSize())
	if err != nil {
		return res, err
	}
	defer coord.Close()

	t0 := time.Now()
	procs := make([]*rankProc, spec.WorldSize())
	for r := range procs {
		if procs[r], err = spawnRank(spec, sc.Network, coord.Addr(), r, 0); err != nil {
			killAll(procs)
			return res, fmt.Errorf("spawn rank %d: %w", r, err)
		}
	}
	defer killAll(procs)

	// The kill-and-respawn path: SIGKILL the victim mid-stream, wait for
	// the process to die, relaunch it as incarnation 1. The coordinator
	// broadcasts the death (peers fail receives typed) and then the
	// rejoin (peers revive the rank); the respawned producer re-publishes
	// everything and consumers deduplicate.
	if sc.KillRank >= 0 {
		time.Sleep(sc.KillAfter)
		victim := procs[sc.KillRank]
		if err := victim.cmd.Process.Kill(); err != nil {
			return res, fmt.Errorf("kill rank %d: %w", sc.KillRank, err)
		}
		victim.cmd.Wait() // reap; exit error is the point
		if procs[sc.KillRank], err = spawnRank(spec, sc.Network, coord.Addr(), sc.KillRank, 1); err != nil {
			return res, fmt.Errorf("respawn rank %d: %w", sc.KillRank, err)
		}
		res.Restarts++
	}

	// Wait for every (current) rank process, bounded by the case timeout.
	done := make(chan error, 1)
	go func() {
		errs := make([]error, len(procs))
		var wg sync.WaitGroup
		for r := range procs {
			wg.Add(1)
			go func(p *rankProc, r int) {
				defer wg.Done()
				if err := p.cmd.Wait(); err != nil {
					errs[r] = fmt.Errorf("rank %d: %w (stderr above)", r, err)
				}
			}(procs[r], r)
		}
		wg.Wait()
		var firstErr error
		for _, e := range errs {
			if e != nil {
				firstErr = e
				break
			}
		}
		done <- firstErr
	}()
	select {
	case err = <-done:
		if err != nil {
			return res, err
		}
	case <-time.After(caseTimeout):
		killAll(procs)
		return res, fmt.Errorf("case timed out after %s", caseTimeout)
	}
	res.Seconds = time.Since(t0).Seconds()

	// Collect consumer digests and compare to the in-proc reference.
	digests := map[int]uint64{}
	for _, p := range procs {
		for _, line := range strings.Split(p.out.String(), "\n") {
			if rank, d, ok := rankmain.ParseDigest(line); ok {
				digests[rank] = d
			}
		}
	}
	res.Identical = true
	for ci := 0; ci < spec.Consumers; ci++ {
		d, ok := digests[spec.Producers+ci]
		if !ok {
			return res, fmt.Errorf("consumer rank %d printed no digest", spec.Producers+ci)
		}
		if d != ref[ci] {
			res.Identical = false
		}
	}
	if !res.Identical {
		return res, fmt.Errorf("consumer digests differ from the in-proc reference")
	}
	return res, nil
}

func killAll(procs []*rankProc) {
	for _, p := range procs {
		if p != nil && p.cmd.Process != nil {
			p.cmd.Process.Signal(syscall.SIGKILL)
		}
	}
}
