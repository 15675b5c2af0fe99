// The SIMD/FMA kernel family (KernelSIMD): rank-k panel updates, tile
// kernels and triangular solves built on the fused span/dot primitives of
// simd_prims.go / simd_amd64.s. Multipliers are dense (no zero skips),
// and the LU trailing update consumes the panel pivots in k-groups of
// 4/2/1 ascending from the panel base k0: a rank-4 group streams four
// panel rows through one pass over the updated row, and within a group
// each element receives its four updates in ascending pivot order. Every
// multiply-add is fused (one rounding instead of two), which is what the
// AVX2 FMA units execute natively.
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
// default | simd | auto (case-insensitive; empty means default).
func ParseKernel(s string) (Kernel, error) {
	switch strings.ToLower(s) {
	case "", "default":
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
// computed.
func luSolveRowSIMD(f *Matrix, rowI []float64, k0, k1 int, invs []float64) {
	n := f.C
	for k := k0; k < k1; k++ {
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

// solveForwardLUSIMD is the fused forward LU substitution: pivot columns
// consumed in pairs, each trailing panel row receiving chained FMA
// updates. Dense, deterministic for fixed operands, validated by residual.
func solveForwardLUSIMD(L *Matrix, npiv int, W *Matrix) {
	n, m := W.R, W.C
	k := 0
	for ; k+1 < npiv; k += 2 {
		va := W.A[k*m : k*m+m : k*m+m]
		vb := W.A[(k+1)*m : (k+1)*m+m : (k+1)*m+m]
		fnmaSpan1(vb, va, L.At(k+1, k))
		for i := k + 2; i < n; i++ {
			fnmaSpan2(W.A[i*m:i*m+m:i*m+m], va, vb, L.At(i, k), L.At(i, k+1))
		}
	}
	for ; k < npiv; k++ {
		vk := W.A[k*m : k*m+m : k*m+m]
		for i := k + 1; i < n; i++ {
			fnmaSpan1(W.A[i*m:i*m+m:i*m+m], vk, L.At(i, k))
		}
	}
}

// solveForwardCholeskySIMD folds the stored-diagonal scaling into the
// fused pair head: vb[c] = fma(-lba, va[c], vb[c]) / db keeps one rounding
// for the multiply-add (matching the span primitives) plus the division.
func solveForwardCholeskySIMD(L *Matrix, npiv int, W *Matrix) {
	n, m := W.R, W.C
	k := 0
	for ; k+1 < npiv; k += 2 {
		da, db := L.At(k, k), L.At(k+1, k+1)
		va := W.A[k*m : k*m+m : k*m+m]
		vb := W.A[(k+1)*m : (k+1)*m+m : (k+1)*m+m]
		lba := L.At(k+1, k)
		for c := range va {
			va[c] /= da
			vb[c] = math.FMA(-lba, va[c], vb[c]) / db
		}
		for i := k + 2; i < n; i++ {
			fnmaSpan2(W.A[i*m:i*m+m:i*m+m], va, vb, L.At(i, k), L.At(i, k+1))
		}
	}
	for ; k < npiv; k++ {
		d := L.At(k, k)
		vk := W.A[k*m : k*m+m : k*m+m]
		for c := range vk {
			vk[c] /= d
		}
		for i := k + 1; i < n; i++ {
			fnmaSpan1(W.A[i*m:i*m+m:i*m+m], vk, L.At(i, k))
		}
	}
}

// solveBackwardLUSIMD pairs the solved source rows of each backward
// accumulation into fused chains, then divides by the pivot.
func solveBackwardLUSIMD(U *Matrix, npiv int, W *Matrix) {
	n, m := W.R, W.C
	for k := npiv - 1; k >= 0; k-- {
		wk := W.A[k*m : k*m+m : k*m+m]
		uk := U.Row(k)
		j := k + 1
		for ; j+1 < n; j += 2 {
			fnmaSpan2(wk, W.A[j*m:j*m+m:j*m+m], W.A[(j+1)*m:(j+1)*m+m:(j+1)*m+m], uk[j], uk[j+1])
		}
		if j < n {
			fnmaSpan1(wk, W.A[j*m:j*m+m:j*m+m], uk[j])
		}
		d := uk[k]
		for c := range wk {
			wk[c] /= d
		}
	}
}

// solveBackwardCholeskySIMD is solveBackwardLUSIMD over column k of L.
func solveBackwardCholeskySIMD(L *Matrix, npiv int, W *Matrix) {
	n, m := W.R, W.C
	for k := npiv - 1; k >= 0; k-- {
		wk := W.A[k*m : k*m+m : k*m+m]
		i := k + 1
		for ; i+1 < n; i += 2 {
			fnmaSpan2(wk, W.A[i*m:i*m+m:i*m+m], W.A[(i+1)*m:(i+1)*m+m:(i+1)*m+m], L.At(i, k), L.At(i+1, k))
		}
		if i < n {
			fnmaSpan1(wk, W.A[i*m:i*m+m:i*m+m], L.At(i, k))
		}
		d := L.At(k, k)
		for c := range wk {
			wk[c] /= d
		}
	}
}
