package mpi

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// TaskSpec describes one task (one parallel "executable") of an MPMD
// workflow launch: a name, a number of processes, and the per-process
// entry point.
type TaskSpec struct {
	Name  string
	Procs int
	Main  func(p *Proc)
}

// Proc is the per-process view handed to a task's Main: the world
// communicator, the task's own communicator, and intercommunicators to
// every other task in the launch.
type Proc struct {
	// World spans all processes of all tasks.
	World *Comm
	// Task spans the processes of this task only.
	Task *Comm
	// TaskName is the name from the TaskSpec.
	TaskName string
	// TaskIndex is the position of this task in the launch.
	TaskIndex int
	// Attempt is how many times this task has been restarted by a
	// supervisor before this launch (0 on the first attempt; always 0
	// under plain RunWorkflow).
	Attempt int

	inter map[string]*Intercomm
}

// SetEpoch publishes this process's current application epoch to the world,
// where a supervisor (and a restarted incarnation of the task) can read it.
func (p *Proc) SetEpoch(epoch int64) {
	if p.World != nil {
		p.World.world.SetEpoch(p.World.ranks[p.World.rank], epoch)
	}
}

// Epoch returns the epoch last published with SetEpoch (0 initially). It
// survives a supervisor restart of the task, so a relaunched Main can read
// where its previous incarnation got to.
func (p *Proc) Epoch() int64 {
	if p.World == nil {
		return 0
	}
	return p.World.world.Epoch(p.World.ranks[p.World.rank])
}

// Intercomm returns the intercommunicator connecting this task to the named
// other task. It panics if no such task exists in the launch.
func (p *Proc) Intercomm(other string) *Intercomm {
	ic, ok := p.inter[other]
	if !ok {
		panic(fmt.Sprintf("mpi: no task %q in this workflow launch", other))
	}
	return ic
}

// TaskNames lists the other tasks this process holds intercommunicators to.
func (p *Proc) TaskNames() []string {
	names := make([]string, 0, len(p.inter))
	for n := range p.inter {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func intercommID(a, b string) uint64 {
	if a > b {
		a, b = b, a
	}
	h := fnv.New64a()
	h.Write([]byte("intercomm:"))
	h.Write([]byte(a))
	h.Write([]byte{0})
	h.Write([]byte(b))
	id := h.Sum64()
	// Reserve two consecutive ids per pair (direction split) clear of the
	// world id.
	if id <= worldCommID+1 {
		id += 2
	}
	return id &^ 1
}

// layoutWorkflow validates the specs and computes the contiguous world-rank
// range of each task, in spec order. Shared by RunWorkflow and the
// supervised runner.
func layoutWorkflow(specs []TaskSpec) (ranges [][]int, total int, err error) {
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Procs <= 0 {
			return nil, 0, fmt.Errorf("mpi: task %q has non-positive proc count %d", s.Name, s.Procs)
		}
		if seen[s.Name] {
			return nil, 0, fmt.Errorf("mpi: duplicate task name %q", s.Name)
		}
		seen[s.Name] = true
		total += s.Procs
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("mpi: empty workflow")
	}
	ranges = make([][]int, len(specs))
	start := 0
	for i, s := range specs {
		r := make([]int, s.Procs)
		for j := range r {
			r[j] = start + j
		}
		ranges[i] = r
		start += s.Procs
	}
	return ranges, total, nil
}

// labelTracks labels each rank's track with its task, with a tracer
// attached: tasks become Chrome-trace "processes" and task-local ranks
// their "threads".
func labelTracks(w *World, specs []TaskSpec, ranges [][]int) {
	tr := w.Tracer()
	if tr == nil {
		return
	}
	for ti, s := range specs {
		for j, wr := range ranges[ti] {
			w.SetTrack(wr, tr.NewTrack(s.Name, ti+1, fmt.Sprintf("rank %d", j), wr))
		}
	}
}

// taskOfRank returns the index of the task whose contiguous rank range
// holds world rank wr.
func taskOfRank(ranges [][]int, wr int) int {
	ti := 0
	for wr >= ranges[ti][0]+len(ranges[ti]) {
		ti++
	}
	return ti
}

// buildProc constructs the per-process view of one task rank: the task
// communicator and intercommunicators to every other task. inc is the
// rank's current incarnation (0 in unsupervised worlds).
func buildProc(w *World, specs []TaskSpec, ranges [][]int, ti, taskRank int, inc uint32, attempt int) *Proc {
	spec := specs[ti]
	wr := ranges[ti][taskRank]
	world := &Comm{world: w, id: worldCommID, ranks: w.worldRanks(), rank: wr, inc: inc}
	task := &Comm{world: w, id: deriveID(worldCommID, 0, "task", ti), ranks: ranges[ti], rank: taskRank, inc: inc}
	inter := make(map[string]*Intercomm, len(specs)-1)
	for oi, os := range specs {
		if oi == ti {
			continue
		}
		id := intercommID(spec.Name, os.Name)
		sideA := spec.Name < os.Name
		ic := NewIntercomm(w, id, ranges[ti], ranges[oi], taskRank, sideA)
		ic.inc = inc
		inter[os.Name] = ic
	}
	return &Proc{World: world, Task: task, TaskName: spec.Name, TaskIndex: ti, Attempt: attempt, inter: inter}
}

// RunWorkflow launches all tasks inside one world, with contiguous world
// rank ranges per task in spec order, and waits for completion. Task names
// must be unique. This mirrors an mpiexec MPMD launch of coupled
// executables, which is how the paper runs producer and consumer tasks.
func RunWorkflow(specs []TaskSpec, opts ...Option) error {
	ranges, total, err := layoutWorkflow(specs)
	if err != nil {
		return err
	}
	w := NewWorld(total, opts...)
	labelTracks(w, specs, ranges)
	return w.Run(func(world *Comm) {
		wr := world.Rank()
		ti := taskOfRank(ranges, wr)
		specs[ti].Main(buildProc(w, specs, ranges, ti, wr-ranges[ti][0], 0, 0))
	})
}
