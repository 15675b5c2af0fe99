// Panel kernels of the blocked partial factorizations (see kernels.go for
// the families that run them). Pivots are processed in panels and the
// trailing rows in row blocks, so a panel of pivot rows is reused across a
// whole block of trailing rows instead of the element-wise kernels' one
// full sweep of the trailing matrix per pivot. The row blocks are exactly
// the unit of work the within-front parallel executor (internal/nodepar)
// hands to slave tasks.
//
// Kernel split, mirroring the paper's type-2 master/slave structure:
//
//	Kernel.PanelLU / PanelCholesky master: eliminate a panel of pivots
//	                               within the panel's own rows
//	Kernel.LUApplyRows             slave: apply a panel to a row block
//	                               (scale + full trailing sweep, one phase)
//	CholeskyScaleRows              slave phase 1: scaled panel columns of a
//	                               row block (needs only the master panel)
//	Kernel.CholeskyUpdateRows      slave phase 2: trailing update of a row
//	                               block (needs phase 1 of *all* blocks)
//
// The symmetric kernel needs two slave phases because the trailing update
// of row i reads the scaled panel columns of every row j <= i, which may
// live in another slave's block; the unsymmetric update only reads the
// master's pivot rows. The functions in this file perform the same
// floating-point operations in the same per-element order as the
// element-wise PartialLU/PartialCholesky — including the zero-skip
// short-circuits — so they compute identical bits under every family
// that runs them: PanelCholesky, CholeskyScaleRows and the diagonal LU
// tile (PanelLUTile) under both, the full-row panelLU as the default
// family's LU master (KernelSIMD sweeps the panel rows' trailing columns
// with its own fused kernel, see Kernel.PanelLU).
package dense

import "math"

// DefaultBlockRows is the default panel width and row-block height of the
// blocked kernels and of the within-front 1D partition built on them.
const DefaultBlockRows = 64

// panelLU eliminates pivots [k0,k1) within rows [k0,k1) in the
// element-wise kernel's order, updating columns up to (not including) n:
// f.C for the default family's Kernel.PanelLU, k1 for PanelLUTile.
func panelLU(f *Matrix, k0, k1, n int, tol float64) error {
	for k := k0; k < k1; k++ {
		pk := f.At(k, k)
		if math.Abs(pk) <= tol {
			return errSmallPivotAt(k, pk)
		}
		inv := 1 / pk
		rowK := f.Row(k)[k+1 : n]
		for i := k + 1; i < k1; i++ {
			rowI := f.Row(i)
			l := rowI[k] * inv
			if l == 0 {
				continue
			}
			rowI[k] = l
			rank1Sub(rowI[k+1:n], rowK, l)
		}
	}
	return nil
}

// PanelCholesky factors the diagonal block [k0,k1) of the symmetric front
// f (lower triangle), assuming all earlier panels have been applied.
func PanelCholesky(f *Matrix, k0, k1 int) error {
	for k := k0; k < k1; k++ {
		d := f.At(k, k)
		if d <= 0 {
			return errNonPositiveDiag(k, d)
		}
		d = math.Sqrt(d)
		f.Set(k, k, d)
		inv := 1 / d
		for i := k + 1; i < k1; i++ {
			f.Set(i, k, f.At(i, k)*inv)
		}
		for j := k + 1; j < k1; j++ {
			ljk := f.At(j, k)
			if ljk == 0 {
				continue
			}
			for i := j; i < k1; i++ {
				f.Add(i, j, -f.At(i, k)*ljk)
			}
		}
	}
	return nil
}

// scaleStackPanel bounds the panel width for which CholeskyScaleRows
// keeps its hoisted zero pattern in stack arrays of
// scaleStackPanel*(scaleStackPanel-1)/2 entries (~24 KiB). They are
// declared — and therefore zeroed — per call, which only pays while they
// stay small; wider panels take heap scratch. DefaultBlockRows panels
// always fit, so the steady state never allocates.
const scaleStackPanel = 64

// CholeskyScaleRows computes the scaled panel columns [k0,k1) of rows
// [r0,r1) (r0 >= k1): each entry accumulates its within-panel updates
// against the master's L rows, then scales by the panel diagonal — the
// operations PartialCholesky performs on those entries at steps k0..k1-1,
// per element in the same order and with the same L(k,m)==0 skips. Rows
// are independent given the master panel. The panel's nonzero pattern
// (what the element-wise kernel's skips depend on) is hoisted out of the
// row loop, so the inner loop is branch-free while computing identical
// bits. Every kernel family runs this one function.
func CholeskyScaleRows(f *Matrix, k0, k1, r0, r1 int) {
	if r1 <= r0 || k1 <= k0 {
		return
	}
	const maxEnt = scaleStackPanel * (scaleStackPanel - 1) / 2
	n := f.C
	kw := k1 - k0
	var ivb [scaleStackPanel]float64
	var msb [maxEnt]int32
	var vsb [maxEnt]float64
	var stb [scaleStackPanel + 1]int32
	invs, msAll, vsAll, st := ivb[:], msb[:], vsb[:], stb[:]
	if kw > scaleStackPanel {
		ent := kw * (kw - 1) / 2
		invs, st = make([]float64, kw), make([]int32, kw+1)
		msAll, vsAll = make([]int32, ent), make([]float64, ent)
	}
	pos := 0
	for k := k0; k < k1; k++ {
		invs[k-k0] = 1 / f.A[k*n+k]
		rowK := f.A[k*n+k0 : k*n+k : k*n+k]
		st[k-k0] = int32(pos)
		for m, v := range rowK {
			if v != 0 {
				msAll[pos], vsAll[pos] = int32(m), v
				pos++
			}
		}
	}
	st[kw] = int32(pos)
	ms, vs := msAll[:pos:pos], vsAll[:pos:pos]
	for i := r0; i < r1; i++ {
		ri := f.A[i*n+k0 : i*n+k1 : i*n+k1]
		for k := 0; k < kw; k++ {
			s := ri[k]
			for p := st[k]; p < st[k+1]; p++ {
				s -= ri[ms[p]] * vs[p]
			}
			ri[k] = s * invs[k]
		}
	}
}
