// The SIMD/FMA kernel family (KernelSIMD): rank-k panel updates, the LU
// master panel's row-panel solve, tile kernels and triangular solves built
// on the fused span, chain and dot primitives of simd_prims.go /
// simd_amd64.s.
// Multipliers are dense (no zero skips), and every LU trailing update —
// the panel rows' own trailing columns included — consumes the pivots in
// k-groups of 4/2/1 ascending from the panel base k0: a rank-4 group
// streams four panel rows through one pass over the updated row, and
// within a group each element receives its four updates in ascending
// pivot order. Every multiply-add is fused (one rounding instead of two),
// which is what the AVX2 FMA units execute natively.
//
// Determinism contract: every element's value is a pure function of the
// front and the panel sequence. The per-element operation order depends
// only on the panel width (the k-group split is fixed by k0/k1), the span
// primitives are bitwise independent of vector grouping (per-element
// chains), and the dot primitives follow one fixed four-lane recipe per
// column regardless of column grouping — so a SIMD factorization is
// bitwise identical across row partitions, tile grids and worker counts,
// and identical between the assembly and portable paths (REPRO_SIMD=off,
// non-amd64). Accuracy is validated by residual tolerance against
// KernelDefault.
package dense

import (
	"fmt"
	"math"
	"strings"
)

// Resolve maps KernelAuto to the concrete family this machine should run:
// KernelSIMD when the vector path is available, KernelDefault otherwise
// (the portable SIMD path is bitwise faithful to the vector one but slower
// than the default kernels without FMA dispatch). Concrete families map
// to themselves.
func (k Kernel) Resolve() Kernel {
	if k != KernelAuto {
		return k
	}
	if simdEnabled {
		return KernelSIMD
	}
	return KernelDefault
}

// SIMDAvailable reports whether the hardware vector path is compiled in,
// detected, and not disabled by REPRO_SIMD=off.
func SIMDAvailable() bool { return simdEnabled }

// SIMDFeatures describes the SIMD dispatch state for metrics and bench
// metadata.
func SIMDFeatures() string {
	switch {
	case simdEnabled:
		return "avx2+fma"
	case simdHW:
		return "avx2+fma(off)"
	default:
		return "portable"
	}
}

// ParseKernel parses a -kernel flag value into a Kernel. Accepted grammar:
// default | simd | auto (case-insensitive). The empty string is an
// error: it names no family, and reading it as default would make
// `-kernel ""` differ from leaving the flag out (auto).
func ParseKernel(s string) (Kernel, error) {
	switch strings.ToLower(s) {
	case "default":
		return KernelDefault, nil
	case "simd":
		return KernelSIMD, nil
	case "auto":
		return KernelAuto, nil
	}
	return KernelDefault, fmt.Errorf("unknown kernel family %q (accepted: default, simd, auto)", s)
}

// luSolveRowSIMD computes row i's multipliers and within-panel updates
// against the eliminated panel [k0,k1) — the SIMD form of the L-tile
// solve. Dense (no zero skips): the multiplier is always stored, so the
// tile update's stored-multiplier read sees exactly what the solve
// computed. Pivots go in groups of four: the group's multipliers finish
// each other inside the 4x4 diagonal block, then one fused rank-4 sweep
// updates the rest of the panel columns. Every element still receives
// one FMA per earlier pivot, in ascending order, so the bits equal a
// pivot-by-pivot sweep; the grouping only cuts the calls per row by four.
func luSolveRowSIMD(f *Matrix, rowI []float64, k0, k1 int, invs []float64) {
	n := f.C
	k := k0
	for ; k+3 < k1; k += 4 {
		r0 := f.A[k*n : k*n+n : k*n+n]
		r1 := f.A[(k+1)*n : (k+1)*n+n : (k+1)*n+n]
		r2 := f.A[(k+2)*n : (k+2)*n+n : (k+2)*n+n]
		r3 := f.A[(k+3)*n : (k+3)*n+n : (k+3)*n+n]
		l0 := rowI[k] * invs[k-k0]
		a1 := math.FMA(-l0, r0[k+1], rowI[k+1])
		a2 := math.FMA(-l0, r0[k+2], rowI[k+2])
		a3 := math.FMA(-l0, r0[k+3], rowI[k+3])
		l1 := a1 * invs[k+1-k0]
		a2 = math.FMA(-l1, r1[k+2], a2)
		a3 = math.FMA(-l1, r1[k+3], a3)
		l2 := a2 * invs[k+2-k0]
		a3 = math.FMA(-l2, r2[k+3], a3)
		l3 := a3 * invs[k+3-k0]
		rowI[k], rowI[k+1], rowI[k+2], rowI[k+3] = l0, l1, l2, l3
		fnmaSpan4(rowI[k+4:k1], r0[k+4:k1], r1[k+4:k1], r2[k+4:k1], r3[k+4:k1], l0, l1, l2, l3)
	}
	for ; k < k1; k++ {
		l := rowI[k] * invs[k-k0]
		rowI[k] = l
		rowK := f.A[k*n : k*n+n : k*n+n]
		fnmaSpan1(rowI[k+1:k1], rowK[k+1:k1], l)
	}
}

// simdTrailingUpdate applies the panel's rank-(k1-k0) update to one row's
// column span ri, multipliers in lrow[k0:k1), panel row spans rks aligned
// with ri. Pivots are consumed in k-groups of 4/2/1 ascending from k0 —
// the group split depends only on the panel width, and within a group each
// element receives its four fused updates in ascending pivot order, so the
// bits are independent of how ri is cut out of the trailing columns (1D
// full span or any 2D tile).
func simdTrailingUpdate(ri, lrow []float64, rks [][]float64, k0, k1 int) {
	m := len(ri)
	ri = ri[:m:m]
	k := k0
	for ; k+3 < k1; k += 4 {
		fnmaSpan4(ri,
			rks[k-k0][:m:m], rks[k-k0+1][:m:m], rks[k-k0+2][:m:m], rks[k-k0+3][:m:m],
			lrow[k], lrow[k+1], lrow[k+2], lrow[k+3])
	}
	for ; k+1 < k1; k += 2 {
		fnmaSpan2(ri, rks[k-k0][:m:m], rks[k-k0+1][:m:m], lrow[k], lrow[k+1])
	}
	if k < k1 {
		fnmaSpan1(ri, rks[k-k0][:m:m], lrow[k])
	}
}

// luPanelTrailingSIMD is the SIMD row-panel solve over columns [c0,c1):
// panel row i receives the fused update of pivots [k0,i) from the rows
// above it, in ascending order so each pivot row's span is final before
// a later row reads it. The per-element operations depend only on the
// panel, not on [c0,c1), so any column tiling — the 1D master's single
// span included — computes the same bits.
func luPanelTrailingSIMD(f *Matrix, k0, k1, c0, c1 int) {
	n := f.C
	var rb [kernStackPanel][]float64
	rks := rb[:]
	if kw := k1 - k0; kw > kernStackPanel {
		rks = make([][]float64, kw)
	}
	for k := k0; k < k1; k++ {
		rks[k-k0] = f.A[k*n+c0 : k*n+c1 : k*n+c1]
	}
	for i := k0 + 1; i < k1; i++ {
		simdTrailingUpdate(rks[i-k0], f.A[i*n:i*n+n:i*n+n], rks, k0, i)
	}
}

// luApplyRowsSIMD is the SIMD LU row kernel: per row the dense multiplier
// solve (luSolveRowSIMD) followed by the fused rank-4 trailing sweep. The
// two phases per row match the 2D split (LUSolveRows then LUUpdateTile)
// operation for operation, so SIMD-1D and SIMD-2D factors are bitwise
// identical.
func luApplyRowsSIMD(f *Matrix, k0, k1, r0, r1 int) {
	n := f.C
	kw := k1 - k0
	var ib [kernStackPanel]float64
	var rb [kernStackPanel][]float64
	invs, rks := ib[:], rb[:]
	if kw > kernStackPanel {
		invs, rks = make([]float64, kw), make([][]float64, kw)
	}
	loadPanel(f, k0, k1, invs, rks)
	for i := r0; i < r1; i++ {
		rowI := f.A[i*n : i*n+n : i*n+n]
		luSolveRowSIMD(f, rowI, k0, k1, invs)
		simdTrailingUpdate(rowI[k1:], rowI, rks, k0, k1)
	}
}

// choleskyUpdateTileSIMD is the SIMD symmetric trailing update restricted
// to columns [c0,c1): each lower-triangle element A(i,j) receives one
// fused dot product of the two rows' scaled panel parts, subtracted in a
// single rounding. Columns stream in fours through dotFour (one pass over
// row i's panel part per group), but the dot recipe per column is fixed
// (see simd_prims.go), so the value of A(i,j) is independent of the column
// grouping, the tile grid and the row partition.
func choleskyUpdateTileSIMD(f *Matrix, k0, k1, r0, r1, c0, c1 int) {
	n := f.C
	for i := r0; i < r1; i++ {
		rowI := f.A[i*n : i*n+n : i*n+n]
		pi := rowI[k0:k1:k1]
		jmax := i + 1
		if c1 < jmax {
			jmax = c1
		}
		j := c0
		for ; j+3 < jmax; j += 4 {
			p0 := f.A[j*n+k0 : j*n+k1 : j*n+k1]
			p1 := f.A[(j+1)*n+k0 : (j+1)*n+k1 : (j+1)*n+k1]
			p2 := f.A[(j+2)*n+k0 : (j+2)*n+k1 : (j+2)*n+k1]
			p3 := f.A[(j+3)*n+k0 : (j+3)*n+k1 : (j+3)*n+k1]
			s0, s1, s2, s3 := dotFour(pi, p0, p1, p2, p3)
			rowI[j] -= s0
			rowI[j+1] -= s1
			rowI[j+2] -= s2
			rowI[j+3] -= s3
		}
		for ; j < jmax; j++ {
			pj := f.A[j*n+k0 : j*n+k1 : j*n+k1]
			rowI[j] -= dotOne(pi, pj)
		}
	}
}

// The SIMD triangular solves compute each element as one fused chain
// held in registers: w = fma(-l_k, src_k[c], w) over the sources k in
// ascending front order (pivot rows forward; later pivot rows, then CB
// rows, backward), then the division by a stored diagonal where there is
// one. Column c never meets another column, so a multi-RHS solve gives
// each column the bits of a single-RHS one, and the vector and portable
// paths agree bit for bit.

// solveForwardSIMD is the forward substitution of both factor kinds; chol
// divides each pivot row by the stored diagonal after its chain. Rows go
// four at a time through fnmaRows, each L row read contiguously. A pivot
// group's chains first run over the pivot rows above it, then the group
// finishes inside its own 4x4 diagonal block, row by row, so every
// element still sees its sources in ascending order. The CB rows are
// updated where they lie in x, all of them in one fnmaRows call.
func solveForwardSIMD(L, P *Matrix, x []float64, rows []int, chol bool) {
	npiv, m, lc := P.R, P.C, L.C
	w, l := P.A, L.A
	i := 0
	for ; i+3 < npiv; i += 4 {
		grp := [4]int{i, i + 1, i + 2, i + 3}
		fnmaRows(w, grp[:], m, w, m, l[i*lc:], lc, i)
		for r := i; r < i+4; r++ {
			wr := w[r*m : r*m+m : r*m+m]
			fnmaChain1(wr, w[i*m:], m, l[r*lc+i:], 1, r-i)
			if chol {
				divSpan(wr, l[r*lc+r])
			}
		}
	}
	for ; i < npiv; i++ {
		wi := w[i*m : i*m+m : i*m+m]
		fnmaChain1(wi, w, m, l[i*lc:], 1, i)
		if chol {
			divSpan(wi, l[i*lc+i])
		}
	}
	if len(rows) > 0 {
		fnmaRows(x, rows, m, w, m, l[npiv*lc:], lc, npiv)
	}
}

// solveBackwardSIMD is the backward substitution of both factor kinds:
// the coefficient of front row j in pivot row k's chain is a[k*rs+j*cs]
// (U row k for LU, L column k for Cholesky). Pivot rows are solved
// bottom up, one at a time (each needs the ones below it): row k's chain
// runs over the solved pivot rows k+1..npiv-1 in P, then on over the CB
// rows in C — one ascending chain, cut in two where its sources change
// panel — and divides by the diagonal.
func solveBackwardSIMD(a []float64, rs, cs int, P, C *Matrix) {
	npiv, m, ncb := P.R, P.C, C.R
	w := P.A
	for k := npiv - 1; k >= 0; k-- {
		wk := w[k*m : k*m+m : k*m+m]
		if k+1 < npiv {
			fnmaChain1(wk, w[(k+1)*m:], m, a[k*rs+(k+1)*cs:], cs, npiv-k-1)
		}
		if ncb > 0 {
			fnmaChain1(wk, C.A, m, a[k*rs+npiv*cs:], cs, ncb)
		}
		divSpan(wk, a[k*rs+k*cs])
	}
}

// divSpan divides a solved panel row by its pivot.
func divSpan(w []float64, d float64) {
	for c := range w {
		w[c] /= d
	}
}
