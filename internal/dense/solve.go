package dense

// Blocked triangular-solve kernels of the solve phase: each applies one
// front's trapezoidal factor piece to an f x nrhs right-hand-side panel
// W (row-major, one row per front row, one column per RHS), replacing
// the per-element, single-RHS loops the solve walk used to run inline.
//
// The family discipline matches the factorization kernels:
//
//   - KernelDefault replays the reference per-element operation order of
//     the historical scalar solve for every column — including its skip
//     of zero multipliers in the forward pass (which is *not* a no-op to
//     drop: subtracting a signed-zero product can flip the sign of a
//     zero partial sum) and its strict no-skip backward accumulation —
//     so each column of a multi-RHS solve is bitwise identical to a
//     single-RHS solve, which is in turn bitwise identical to the
//     pre-blocked solver.
//   - KernelSIMD pairs the update sources (pivot columns forward, solved
//     rows backward) into fused multiply-add chains (see simd.go). The
//     accumulation order differs from the reference, so results are
//     validated by residual, but the order is a pure function of the
//     operands: SIMD solves are deterministic at any worker count.
//
// The forward kernels consume the f x npiv lower trapezoid L (unit
// diagonal for LU, stored diagonal for Cholesky) and update the full
// panel; the backward kernels consume the npiv x f upper trapezoid U
// (LU) or L again (Cholesky, as L^T) and rewrite only the npiv pivot
// rows of the panel — the trailing rows are read-only inputs there.

// SolveForwardLU applies the unit-lower forward substitution of one
// front: W[k+1:] -= L[k+1:, k] * W[k] for each pivot k in order.
func (kern Kernel) SolveForwardLU(L *Matrix, npiv int, W *Matrix) {
	if kern.Resolve() == KernelSIMD {
		solveForwardLUSIMD(L, npiv, W)
		return
	}
	n, m := W.R, W.C
	for k := 0; k < npiv; k++ {
		vk := W.A[k*m : k*m+m]
		if allZero(vk) {
			continue
		}
		for i := k + 1; i < n; i++ {
			l := L.At(i, k)
			wi := W.A[i*m : i*m+m]
			for c, v := range vk {
				if v == 0 {
					continue
				}
				wi[c] -= l * v
			}
		}
	}
}

// SolveForwardCholesky applies the lower forward substitution with the
// stored diagonal: W[k] /= L[k,k], then the trailing update.
func (kern Kernel) SolveForwardCholesky(L *Matrix, npiv int, W *Matrix) {
	if kern.Resolve() == KernelSIMD {
		solveForwardCholeskySIMD(L, npiv, W)
		return
	}
	n, m := W.R, W.C
	for k := 0; k < npiv; k++ {
		d := L.At(k, k)
		vk := W.A[k*m : k*m+m]
		for c := range vk {
			vk[c] /= d
		}
		if allZero(vk) {
			continue
		}
		for i := k + 1; i < n; i++ {
			l := L.At(i, k)
			wi := W.A[i*m : i*m+m]
			for c, v := range vk {
				if v == 0 {
					continue
				}
				wi[c] -= l * v
			}
		}
	}
}

// SolveBackwardLU applies the upper backward substitution of one front:
// for each pivot k in reverse, W[k] -= U[k, k+1:] * W[k+1:], then
// W[k] /= U[k,k]. U is the npiv x f upper trapezoid; rows npiv..f-1 of
// W are inputs only.
func (kern Kernel) SolveBackwardLU(U *Matrix, npiv int, W *Matrix) {
	if kern.Resolve() == KernelSIMD {
		solveBackwardLUSIMD(U, npiv, W)
		return
	}
	n, m := W.R, W.C
	for k := npiv - 1; k >= 0; k-- {
		wk := W.A[k*m : k*m+m]
		uk := U.Row(k)
		for j := k + 1; j < n; j++ {
			u := uk[j]
			wj := W.A[j*m : j*m+m]
			for c := range wk {
				wk[c] -= u * wj[c]
			}
		}
		d := uk[k]
		for c := range wk {
			wk[c] /= d
		}
	}
}

// SolveBackwardCholesky applies the L^T backward substitution (row k of
// L^T is column k of L), dividing by the stored diagonal.
func (kern Kernel) SolveBackwardCholesky(L *Matrix, npiv int, W *Matrix) {
	if kern.Resolve() == KernelSIMD {
		solveBackwardCholeskySIMD(L, npiv, W)
		return
	}
	n, m := W.R, W.C
	for k := npiv - 1; k >= 0; k-- {
		wk := W.A[k*m : k*m+m]
		for i := k + 1; i < n; i++ {
			l := L.At(i, k)
			wi := W.A[i*m : i*m+m]
			for c := range wk {
				wk[c] -= l * wi[c]
			}
		}
		d := L.At(k, k)
		for c := range wk {
			wk[c] /= d
		}
	}
}

// allZero reports whether a panel row carries no work for the forward
// update (the blocked form of the reference's per-element zero skip).
func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}
