package front

import (
	"repro/internal/dense"
	"repro/internal/faults"
	"repro/internal/trace"
)

// PivotTol is the static-pivoting threshold of every partial LU: a pivot
// smaller in magnitude fails the factorization (see dense.ErrSmallPivot).
const PivotTol = 1e-12

// Options are the numeric knobs shared by every layer of a
// factorization: the analysis configuration (core.Config embeds them)
// hands them unchanged to both executors (internal/seqmf and
// internal/parmf). The zero value runs the default kernel family on
// dense.DefaultBlockRows panels, untraced and without fault injection.
type Options struct {
	// BlockRows is the panel width and row-block height of the blocked
	// dense kernels and of the within-front partitions (1D row blocks and
	// 2D tiles). 0 uses dense.DefaultBlockRows; negative selects the
	// element-wise reference kernels (bitwise identical to the default
	// family, slower) and disables within-front splitting, which needs
	// the blocked kernels.
	BlockRows int
	// Kernel selects the dense kernel family (dense.KernelDefault,
	// KernelSIMD, or KernelAuto, which resolves to SIMD when the vector
	// path is available and to the default family otherwise). The zero
	// value is KernelDefault; core.DefaultConfig picks KernelAuto.
	// KernelSIMD is validated by residual instead of bit equality; its
	// factors stay deterministic for a fixed BlockRows at any worker
	// count, row partition or tile grid.
	Kernel dense.Kernel
	// Tracer, when non-nil, records task/front/store/solve spans and the
	// memory timelines of the run, and the executors arm its progress
	// ledger (see internal/trace). nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// Faults, when non-nil, arms deterministic fault injection at the
	// executors' task points and the solve's per-front point (see
	// internal/faults). nil is a zero-cost no-op; fault handling never
	// changes the numeric result of a run that completes.
	Faults *faults.Injector
}

// Resolve returns the panel width and the concrete kernel family a run
// uses: BlockRows 0 becomes dense.DefaultBlockRows and a negative value
// becomes 0, the element-wise kernels (EliminateKernel's convention);
// KernelAuto becomes SIMD or default, so stats name the family that ran.
func (o Options) Resolve() (blockRows int, kern dense.Kernel) {
	switch {
	case o.BlockRows > 0:
		blockRows = o.BlockRows
	case o.BlockRows == 0:
		blockRows = dense.DefaultBlockRows
	}
	return blockRows, o.Kernel.Resolve()
}
