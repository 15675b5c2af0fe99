// Package nodepar implements within-front parallelism for the
// shared-memory executor: a large front is factored as a *master* task
// plus slave tile tasks claimed by idle workers, with the decomposition
// itself behind the Partition abstraction:
//
//   - RowPartition is the paper's type-2 1D row blocking (Figure 3): per
//     pivot panel, the master eliminates the panel's full rows and slaves
//     apply it to whole trailing row blocks.
//   - TilePartition is the type-3 2D decomposition used for the root
//     front: trailing rows *and* columns are cut into a tile grid, the
//     master factors only the diagonal tile, and the panel solves (L and
//     U tiles) plus the rank-k tile updates all become claimable tasks,
//     assigned block-cyclically over a pr x pc worker grid.
//
// Every partition is a pure function of the front shape and its geometry
// parameters — never of the worker count — and every tile kernel computes
// bitwise the same result wherever it runs (see internal/dense's blocked
// and tile kernels), so the factors are identical at any worker count and
// any grid shape for a fixed panel width. Worker counts and grids only
// influence *preferred owners*: AssignPrefs maps the paper's dynamic slave
// selection onto 1D row blocks, the block-cyclic grid stamps 2D tiles, and
// the executor uses both as claim priorities, not correctness constraints.
//
// A Job is the state machine of one split front. Its phase/claim/finish
// methods are designed to be called under the executor's scheduling mutex
// (they do no locking of their own); Run and RunMaster execute the dense
// kernels and must be called outside it. Phases form barriers: the tasks
// of a panel's later phase only start once every task of the earlier phase
// has finished, which is what lets an update kernel read the multipliers
// or scaled columns other workers wrote.
package nodepar

import (
	"repro/internal/dense"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// Block is one row block of the 1D within-front partition: front rows
// [R0,R1) and the worker that should preferably process its tasks (-1 for
// no preference).
type Block struct {
	R0, R1 int
	Pref   int
}

// Phase is one slave phase of a panel round.
type Phase int

const (
	// PhaseUpdate applies the panel to trailing rows (1D) or tiles (2D):
	// the LU trailing sweep, or the symmetric trailing update.
	PhaseUpdate Phase = iota
	// PhaseScale computes a row block's scaled panel columns (Cholesky
	// phase 1); it depends only on the master panel, while the symmetric
	// PhaseUpdate reads every block's PhaseScale output.
	PhaseScale
	// PhaseSolve is the 2D LU panel-solve phase: the trailing row blocks'
	// multipliers (L tiles) and the panel rows' trailing columns (U
	// tiles), all independent given the diagonal tile.
	PhaseSolve
)

// Panel is one pivot panel [K0,K1) of a job.
type Panel struct{ K0, K1 int }

// TileKind selects the kernel a tile task runs.
type TileKind uint8

const (
	// TileLUApply is the 1D LU slave task: multiplier scaling plus the
	// full trailing sweep of a row block (one fused kernel).
	TileLUApply TileKind = iota
	// TileCholScale computes a row block's scaled panel columns.
	TileCholScale
	// TileCholUpdate applies the symmetric trailing update to a row block,
	// restricted to the tile's columns (full-width in 1D).
	TileCholUpdate
	// TileLUSolve is the 2D column-panel (L-tile) solve of a row block.
	TileLUSolve
	// TileLURowPanel is the 2D row-panel (U-tile) solve of a column tile.
	TileLURowPanel
	// TileLUUpdate is the 2D rank-k update of one rows x columns tile.
	TileLUUpdate
)

// Tile is one claimable slave task: kernel Kind applied to front rows
// [R0,R1) x columns [C0,C1) for the current panel, with the preferred
// worker (-1 for none) and the partition's memory/flop accounting.
type Tile struct {
	Kind    TileKind
	R0, R1  int
	C0, C1  int
	Pref    int
	Entries int64 // model entries the task's front share occupies
	Flops   int64 // estimated elimination flops (workload accounting)
}

// Partition is the within-front decomposition abstraction: it fixes the
// pivot panel sequence, the slave phases of a panel, the master kernel,
// and the claimable tile tasks of each phase. Implementations must be
// pure functions of the front shape and their geometry parameters so the
// task arithmetic — and with it the factors — never depends on scheduling.
type Partition interface {
	// Panels returns the pivot panel sequence.
	Panels() []Panel
	// Phases returns the slave phases of one panel, in order.
	Phases() []Phase
	// Master eliminates panel p's master part through kernel family kern
	// (called without the scheduling lock, before the panel's phases
	// start).
	Master(f *dense.Matrix, p Panel, tol float64, kern dense.Kernel) error
	// AppendTasks appends phase ph's tile tasks for panel p to dst and
	// returns it (no tasks when nothing trails the panel).
	AppendTasks(dst []Tile, p Panel, ph Phase) []Tile
}

// PartitionRows splits the nfront rows into blocks of blockRows rows — a
// pure function of the front shape, so the partition (and with it the task
// arithmetic) is independent of the worker count. blockRows <= 0 uses
// dense.DefaultBlockRows.
func PartitionRows(nfront, blockRows int) []Block {
	if blockRows <= 0 {
		blockRows = dense.DefaultBlockRows
	}
	blocks := make([]Block, 0, (nfront+blockRows-1)/blockRows)
	for r0 := 0; r0 < nfront; r0 += blockRows {
		r1 := r0 + blockRows
		if r1 > nfront {
			r1 = nfront
		}
		blocks = append(blocks, Block{R0: r0, R1: r1, Pref: -1})
	}
	return blocks
}

// RowPartition is the 1D (type-2) decomposition: pivot panels of the block
// height, slave tasks over whole trailing row blocks. It reproduces the
// pre-abstraction executor's task set exactly.
type RowPartition struct {
	Kind   sparse.Type
	NFront int
	NPiv   int
	Blocks []Block
}

// NewRowPartition builds the 1D partition of one front. blockRows <= 0
// uses dense.DefaultBlockRows.
func NewRowPartition(kind sparse.Type, nfront, npiv, blockRows int) *RowPartition {
	return &RowPartition{Kind: kind, NFront: nfront, NPiv: npiv,
		Blocks: PartitionRows(nfront, blockRows)}
}

// Panels returns the pivot panels, sized by the partition's block height.
func (p *RowPartition) Panels() []Panel {
	var ps []Panel
	for _, b := range p.Blocks {
		if b.R0 >= p.NPiv {
			break
		}
		k1 := b.R1
		if k1 > p.NPiv {
			k1 = p.NPiv
		}
		ps = append(ps, Panel{K0: b.R0, K1: k1})
	}
	return ps
}

// Phases returns the slave phases a panel needs, in order.
func (p *RowPartition) Phases() []Phase {
	if p.Kind == sparse.Symmetric {
		return []Phase{PhaseScale, PhaseUpdate}
	}
	return []Phase{PhaseUpdate}
}

// Master eliminates panel pl within its own rows: full rows for LU (the 1D
// master owns the panel's U part, through the family's Kernel.PanelLU),
// the diagonal block for Cholesky.
func (p *RowPartition) Master(f *dense.Matrix, pl Panel, tol float64, kern dense.Kernel) error {
	if p.Kind == sparse.Symmetric {
		return dense.PanelCholesky(f, pl.K0, pl.K1)
	}
	return kern.PanelLU(f, pl.K0, pl.K1, tol)
}

// AppendTasks emits one task per row block with rows beyond the panel.
func (p *RowPartition) AppendTasks(dst []Tile, pl Panel, ph Phase) []Tile {
	kind := TileLUApply
	if p.Kind == sparse.Symmetric {
		if ph == PhaseScale {
			kind = TileCholScale
		} else {
			kind = TileCholUpdate
		}
	}
	for _, b := range p.Blocks {
		if b.R1 <= pl.K1 {
			continue
		}
		r0 := b.R0
		if r0 < pl.K1 {
			r0 = pl.K1
		}
		dst = append(dst, Tile{
			Kind: kind, R0: r0, R1: b.R1, C0: pl.K1, C1: p.NFront, Pref: b.Pref,
			Entries: RowsEntries(p.Kind, p.NFront, r0, b.R1),
			Flops:   rowTaskFlops(p.Kind, p.NFront, pl, r0, b.R1),
		})
	}
	return dst
}

// rowTaskFlops estimates a 1D row task's elimination flops in one panel
// phase — the pre-abstraction Job.TaskFlops formula, kept as the workload
// unit of the live slave selection.
func rowTaskFlops(kind sparse.Type, nfront int, pl Panel, r0, r1 int) int64 {
	rows := int64(r1 - r0)
	kw := int64(pl.K1 - pl.K0)
	if rows <= 0 || kw <= 0 {
		return 0
	}
	fl := rows * kw * (1 + 2*(int64(nfront)-int64(pl.K0+pl.K1)/2))
	if kind == sparse.Symmetric {
		fl /= 2
	}
	if fl < 0 {
		fl = 0
	}
	return fl
}

// AutoGrid resolves the worker grid of a 2D (type-3) root front: rows <= 0
// picks the most square grid with pr = floor(sqrt(workers)); an explicit
// rows is clamped to the worker count. pc covers the remaining workers,
// pc = ceil(workers/pr), so every worker owns at least one grid slot.
func AutoGrid(workers, rows int) (pr, pc int) {
	if workers < 1 {
		workers = 1
	}
	pr = rows
	if pr <= 0 {
		pr = 1
		for (pr+1)*(pr+1) <= workers {
			pr++
		}
	}
	if pr > workers {
		pr = workers
	}
	return pr, (workers + pr - 1) / pr
}

// RowsEntries returns the model entries of front rows [r0,r1): full rows
// for unsymmetric fronts, lower-triangle rows for symmetric ones. This is
// the memory a slave's share of the front surface occupies while its task
// runs, charged to the executing worker's tracker.
func RowsEntries(kind sparse.Type, nfront, r0, r1 int) int64 {
	if r1 <= r0 {
		return 0
	}
	if kind == sparse.Symmetric {
		tri := func(x int64) int64 { return x * (x + 1) / 2 }
		return tri(int64(r1)) - tri(int64(r0))
	}
	return int64(r1-r0) * int64(nfront)
}

// MasterFlops estimates the elimination flops of the master part of a
// front (pivot-block panels): an input to the workload-based slave
// selection, not an exact operation count.
func MasterFlops(kind sparse.Type, npiv, nfront int) int64 {
	var fl int64
	for k := 0; k < npiv; k++ {
		// rows k+1..npiv-1 each take a scale plus a trailing sweep.
		fl += int64(npiv-k-1) * (1 + 2*int64(nfront-k-1))
	}
	if kind == sparse.Symmetric {
		fl /= 2
	}
	return fl
}

// RowFlops estimates the elimination flops one trailing row costs across
// all panels: the per-row workload unit of the slave selection.
func RowFlops(kind sparse.Type, npiv, nfront int) int64 {
	var fl int64
	for k := 0; k < npiv; k++ {
		fl += 1 + 2*int64(nfront-k-1)
	}
	if kind == sparse.Symmetric {
		fl /= 2
	}
	return fl
}

// AssignPrefs stamps preferred owners onto the blocks from a slave
// allocation over the rows beyond the first panel (firstK1): the
// allocation's row shares are walked in order and each block inherits the
// processor owning its first row. Blocks before firstK1 (pure master
// territory) and rows beyond the allocation keep Pref -1.
func AssignPrefs(blocks []Block, firstK1 int, allocs []sched.Allocation) {
	if len(allocs) == 0 {
		return
	}
	ai, left := 0, allocs[0].Rows
	for bi := range blocks {
		b := &blocks[bi]
		if b.R1 <= firstK1 {
			continue
		}
		if ai >= len(allocs) {
			return
		}
		b.Pref = allocs[ai].Proc
		rows := b.R1 - max(b.R0, firstK1)
		left -= rows
		for left <= 0 && ai < len(allocs) {
			ai++
			if ai < len(allocs) {
				left += allocs[ai].Rows
			}
		}
	}
}
