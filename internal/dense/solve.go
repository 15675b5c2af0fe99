package dense

// Triangular-solve kernels of the solve phase: each applies one front's
// trapezoidal factor piece to the front's rows of the n x nrhs
// right-hand-side block (row-major, one column per RHS), in place. The
// front's npiv pivot rows are one contiguous range of the permuted
// block, the npiv x nrhs panel P, which both passes solve where it lies.
// The contribution-block (CB) rows below the pivots are scattered over
// the block:
//
//   - forward, they are updated in place, addressed by index: CB row k
//     (front row npiv+k) is x[rows[k]*nrhs : (rows[k]+1)*nrhs];
//   - backward, they are read-only sources, so the caller gathers them
//     once into the ncb x nrhs panel C.
//
// Nothing else is copied. Every element receives exactly the operations,
// in exactly the order, of a solve over the whole front gathered into
// one f x nrhs panel: the layout of the rows cannot change a bit.
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
//   - KernelSIMD computes each element as one fused multiply-add chain
//     held in registers: w = fma(-l_k, src_k[c], w) over the sources k
//     (pivot rows forward; later pivot rows, then CB rows, backward) in
//     ascending front order, then the division by a stored diagonal (see
//     simd.go). No zero is skipped, and each column is independent of the
//     others, so every column carries the bits of a single-RHS solve and
//     the AVX2 and portable paths are bit-identical. The order differs
//     from the reference, so results are validated by residual, but it
//     is a pure function of the operands: SIMD solves are deterministic
//     at any worker count.
//
// The forward kernels consume the f x npiv lower trapezoid L (unit
// diagonal for LU, stored diagonal for Cholesky); the backward kernels
// consume the npiv x f upper trapezoid U (LU) or L again (Cholesky, as
// L^T) and rewrite only P.

// SolveForwardLU applies the unit-lower forward substitution of one
// front: for each pivot k in order, every later front row r (pivot rows
// in P, CB rows in x by index) gets r -= L[r, k] * P[k].
func (kern Kernel) SolveForwardLU(L, P *Matrix, x []float64, rows []int) {
	if kern.Resolve() == KernelSIMD {
		solveForwardSIMD(L, P, x, rows, false)
		return
	}
	solveForwardDefault(L, P, x, rows, false)
}

// SolveForwardCholesky is SolveForwardLU with the stored diagonal:
// P[k] /= L[k,k] before pivot k's updates.
func (kern Kernel) SolveForwardCholesky(L, P *Matrix, x []float64, rows []int) {
	if kern.Resolve() == KernelSIMD {
		solveForwardSIMD(L, P, x, rows, true)
		return
	}
	solveForwardDefault(L, P, x, rows, true)
}

// SolveBackwardLU applies the upper backward substitution of one front:
// for each pivot k in reverse, P[k] -= U[k, k+1:] * (P[k+1:], C), then
// P[k] /= U[k,k]. C holds the gathered CB rows, inputs only.
func (kern Kernel) SolveBackwardLU(U, P, C *Matrix) {
	if kern.Resolve() == KernelSIMD {
		solveBackwardSIMD(U.A, U.C, 1, P, C)
		return
	}
	solveBackwardDefault(U.A, U.C, 1, P, C)
}

// SolveBackwardCholesky applies the L^T backward substitution (row k of
// L^T is column k of L), dividing by the stored diagonal.
func (kern Kernel) SolveBackwardCholesky(L, P, C *Matrix) {
	if kern.Resolve() == KernelSIMD {
		solveBackwardSIMD(L.A, 1, L.C, P, C)
		return
	}
	solveBackwardDefault(L.A, 1, L.C, P, C)
}

// solveForwardDefault is the reference forward substitution of both
// factor kinds; chol divides each pivot row by the stored diagonal
// first.
func solveForwardDefault(L, P *Matrix, x []float64, rows []int, chol bool) {
	npiv, m := P.R, P.C
	for k := 0; k < npiv; k++ {
		vk := P.A[k*m : k*m+m]
		if chol {
			d := L.At(k, k)
			for c := range vk {
				vk[c] /= d
			}
		}
		if allZero(vk) {
			continue
		}
		for i := k + 1; i < npiv; i++ {
			subNonzero(P.A[i*m:i*m+m], L.At(i, k), vk)
		}
		for j, g := range rows {
			subNonzero(x[g*m:g*m+m], L.At(npiv+j, k), vk)
		}
	}
}

// subNonzero computes w[c] -= l * v[c], skipping zero multipliers like
// the reference scalar solve.
func subNonzero(w []float64, l float64, v []float64) {
	w = w[:len(v)]
	for c, vc := range v {
		if vc == 0 {
			continue
		}
		w[c] -= l * vc
	}
}

// solveBackwardDefault is the reference backward substitution of both
// factor kinds: the coefficient of front row j in pivot row k's sum is
// a[k*rs+j*cs] (U row k for LU, L column k for Cholesky).
func solveBackwardDefault(a []float64, rs, cs int, P, C *Matrix) {
	npiv, m := P.R, P.C
	for k := npiv - 1; k >= 0; k-- {
		wk := P.A[k*m : k*m+m]
		for j := k + 1; j < npiv; j++ {
			subRow(wk, a[k*rs+j*cs], P.A[j*m:j*m+m])
		}
		for j := 0; j < C.R; j++ {
			subRow(wk, a[k*rs+(npiv+j)*cs], C.A[j*m:j*m+m])
		}
		d := a[k*rs+k*cs]
		for c := range wk {
			wk[c] /= d
		}
	}
}

// subRow computes w[c] -= u * v[c] over the row, no skips.
func subRow(w []float64, u float64, v []float64) {
	v = v[:len(w)]
	for c := range w {
		w[c] -= u * v[c]
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
