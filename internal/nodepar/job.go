package nodepar

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// Task states within the current phase.
const (
	taskPending uint8 = iota
	taskClaimed
	taskDone
)

// Job is the within-front factorization of one split front: the master's
// panel sequence plus, per panel, the barriered waves of tile tasks its
// Partition emits — row blocks for the 1D RowPartition, 2D tiles for the
// root front's TilePartition. All methods except Run and RunMaster must be
// called under the executor's scheduling mutex; Run and RunMaster execute
// the dense kernels and must be called without it. A task index returned
// by Claim stays valid for Run/Finish because the phase cannot advance
// while the task is unfinished.
type Job struct {
	Node   int // assembly-tree node, for error context
	NPiv   int
	NFront int
	Kind   sparse.Type
	Part   Partition

	f    *dense.Matrix
	tol  float64
	kern dense.Kernel

	k0, k1  int
	phase   Phase
	tasks   []Tile
	state   []uint8
	pending int

	// Claim indices, rebuilt per phase so claims stay O(1) amortized even
	// when the 2D update phase arms T^2 tile tasks: next is the global
	// cursor (everything below it is claimed or done — a claimed task
	// never returns to pending within a phase), and byPref[w]/heads[w]
	// list the tasks preferring worker w with their pop cursor. prefBuf
	// is the reused backing storage of the byPref lists.
	next    int
	byPref  [][]int32
	heads   []int
	prefBuf []int32
}

// NewJob builds the job for one assembled front over the given partition.
// kern selects the kernel family every task runs through — the same family
// must be used for the whole factorization so the factors are one
// consistent numeric mode.
func NewJob(node int, f *dense.Matrix, npiv int, kind sparse.Type, tol float64, part Partition, kern dense.Kernel) *Job {
	return &Job{
		Node:   node,
		NPiv:   npiv,
		NFront: f.R,
		Kind:   kind,
		Part:   part,
		f:      f,
		tol:    tol,
		kern:   kern,
	}
}

// Panels returns the partition's pivot panel sequence.
func (j *Job) Panels() []Panel { return j.Part.Panels() }

// Phases returns the slave phases a panel needs, in order.
func (j *Job) Phases() []Phase { return j.Part.Phases() }

// RunMaster eliminates panel p's master part (full panel rows for the 1D
// partition, the diagonal tile for the 2D one). Call without the
// scheduling lock, before starting the panel's phases.
func (j *Job) RunMaster(p Panel) error { return j.Part.Master(j.f, p, j.tol, j.kern) }

// StartPhase arms the tile tasks of phase ph for panel p and returns how
// many there are (0 when nothing trails the panel). Must not be called
// while a previous phase still has unfinished tasks.
func (j *Job) StartPhase(p Panel, ph Phase) int {
	if j.pending != 0 {
		panic(fmt.Sprintf("nodepar: StartPhase(panel [%d,%d), phase %d) on front %d with %d of %d tasks of phase %d unfinished",
			p.K0, p.K1, ph, j.Node, j.pending, len(j.tasks), j.phase))
	}
	j.k0, j.k1, j.phase = p.K0, p.K1, ph
	j.tasks = j.Part.AppendTasks(j.tasks[:0], p, ph)
	if cap(j.state) < len(j.tasks) {
		j.state = make([]uint8, len(j.tasks))
	} else {
		j.state = j.state[:len(j.tasks)]
		for i := range j.state {
			j.state[i] = taskPending
		}
	}
	j.pending = len(j.tasks)
	j.buildClaimIndex()
	return j.pending
}

// buildClaimIndex rebuilds the per-phase claim cursors: one pass counts
// the tasks per preferred worker, a second fills the byPref lists in task
// order (so preferred claiming pops lowest-index first, like the linear
// scan it replaces). Steady state reuses the backing storage.
func (j *Job) buildClaimIndex() {
	j.next = 0
	maxPref := -1
	for i := range j.tasks {
		if p := j.tasks[i].Pref; p > maxPref {
			maxPref = p
		}
	}
	if cap(j.byPref) < maxPref+1 {
		j.byPref = make([][]int32, maxPref+1)
		j.heads = make([]int, maxPref+1)
	}
	j.byPref = j.byPref[:maxPref+1]
	j.heads = j.heads[:maxPref+1]
	if maxPref < 0 {
		return
	}
	counts := j.heads // reuse as the counting pass's scratch
	for w := range counts {
		counts[w] = 0
	}
	n := 0
	for i := range j.tasks {
		if p := j.tasks[i].Pref; p >= 0 {
			counts[p]++
			n++
		}
	}
	if cap(j.prefBuf) < n {
		j.prefBuf = make([]int32, n)
	}
	buf := j.prefBuf[:n]
	off := 0
	for w, c := range counts {
		j.byPref[w] = buf[off : off : off+c]
		off += c
	}
	for i := range j.tasks {
		if p := j.tasks[i].Pref; p >= 0 {
			j.byPref[p] = append(j.byPref[p], int32(i))
		}
	}
	for w := range j.heads {
		j.heads[w] = 0
	}
}

// Claim hands out a pending task of the current phase, preferring tiles
// whose Pref is w, and returns its index (-1 when none is pending).
// Amortized O(1): the preferred list pops through its cursor and the
// fallback advances the global cursor past tasks that can never become
// pending again.
func (j *Job) Claim(w int) int {
	if i := j.ClaimPreferred(w); i >= 0 {
		return i
	}
	for j.next < len(j.tasks) && j.state[j.next] != taskPending {
		j.next++
	}
	if j.next < len(j.tasks) {
		j.state[j.next] = taskClaimed
		return j.next
	}
	return -1
}

// ClaimPreferred is Claim restricted to tiles preferring worker w.
func (j *Job) ClaimPreferred(w int) int {
	if w < 0 || w >= len(j.byPref) {
		return -1
	}
	lst := j.byPref[w]
	for j.heads[w] < len(lst) {
		i := int(lst[j.heads[w]])
		j.heads[w]++
		if j.state[i] == taskPending {
			j.state[i] = taskClaimed
			return i
		}
	}
	return -1
}

// PhaseDone reports whether every task of the current phase has finished.
func (j *Job) PhaseDone() bool { return j.pending == 0 }

// Run executes task i's kernel for the current panel and phase through
// the job's kernel family. Call without the scheduling lock; the task
// must have been Claimed.
func (j *Job) Run(i int) {
	t := j.tasks[i]
	switch t.Kind {
	case TileLUApply:
		j.kern.LUApplyRows(j.f, j.k0, j.k1, t.R0, t.R1)
	case TileCholScale:
		dense.CholeskyScaleRows(j.f, j.k0, j.k1, t.R0, t.R1)
	case TileCholUpdate:
		j.kern.CholeskyUpdateTile(j.f, j.k0, j.k1, t.R0, t.R1, t.C0, t.C1)
	case TileLUSolve:
		j.kern.LUSolveRows(j.f, j.k0, j.k1, t.R0, t.R1)
	case TileLURowPanel:
		j.kern.LUPanelTrailing(j.f, j.k0, j.k1, t.C0, t.C1)
	case TileLUUpdate:
		j.kern.LUUpdateTile(j.f, j.k0, j.k1, t.R0, t.R1, t.C0, t.C1)
	}
}

// Finish marks task i done and reports whether that completed the phase.
func (j *Job) Finish(i int) bool {
	if j.state[i] != taskClaimed {
		panic(fmt.Sprintf("nodepar: Finish(task %d, state %d) on front %d (phase %d, %d pending): task was never claimed",
			i, j.state[i], j.Node, j.phase, j.pending))
	}
	j.state[i] = taskDone
	j.pending--
	return j.pending == 0
}

// TaskEntries returns the model entries task i's front share occupies
// while it runs — the per-slave memory charge.
func (j *Job) TaskEntries(i int) int64 { return j.tasks[i].Entries }

// TaskFlops estimates task i's flops in the current phase (workload
// accounting for the slave selection of later fronts).
func (j *Job) TaskFlops(i int) int64 { return j.tasks[i].Flops }

// Pref returns the preferred worker of task i (-1 for none).
func (j *Job) Pref(i int) int { return j.tasks[i].Pref }
