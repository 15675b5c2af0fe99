// Tile-level variants of the partial factorization kernels — the numeric
// layer of the 2D (type-3) within-front decomposition. Where the 1D row
// kernels of kernels.go hand a slave a whole trailing row block
// (all columns), the tile kernels split one panel step of a front into the
// classic 2D pieces:
//
//	PanelLUTile            diagonal-tile factor: the panel pivots
//	                       eliminated within the panel's own rows *and*
//	                       columns only (shared by both families)
//	Kernel.LUPanelTrailing row-panel solve: the panel rows' trailing
//	                       columns (the U tiles), per column tile
//	LUSolveRows            column-panel solve: a trailing row block's
//	                       multipliers + within-panel updates (the L tile)
//	LUUpdateTile           rank-k update of one trailing rows x columns
//	                       tile from the already-solved L tile and U tiles
//	CholeskyUpdateTile     symmetric trailing update restricted to one
//	                       column tile of the lower triangle
//
// (The symmetric column-panel solve is CholeskyScaleRows unchanged — it is
// already restricted to the panel columns — and the symmetric diagonal
// tile is PanelCholesky, which never touched trailing columns.)
//
// Determinism discipline: the KernelDefault tile kernels perform the same
// floating-point operations in the same per-element order as the
// element-wise kernels — each element still receives
// its pivots in ascending order with the reference's exact zero-skips, and
// a tile boundary only changes which loop visits the element — so a 2D
// factorization is bitwise identical to the element-wise one at any tile
// grid. One caveat inherits from splitting the LU solve and update into
// separate tasks: the update skips a pivot by testing the *stored*
// multiplier, which matches the reference's computed-multiplier skip
// unless a nonzero entry's scaling underflowed to exactly zero — possible
// only for deeply subnormal front entries (|v| < ~1e-312), which the
// solver's numerical contract (static pivoting on well-scaled systems,
// see ErrSmallPivot) already excludes. The KernelSIMD tile kernels reuse
// the SIMD family's k-grouping restricted to the tile's columns — in the
// row-panel solve as much as in the update — and the SIMD 1D master
// (Kernel.PanelLU) is PanelLUTile plus that same row-panel solve over all
// trailing columns, so SIMD-2D is bitwise identical to SIMD-1D for a fixed
// panel width (see simd.go). In both families every element is written by
// exactly one task per phase: there are no cross-tile reductions to pin.
package dense

// PanelLUTile eliminates pivots [k0,k1) of f within rows *and columns*
// [k0,k1) only — the diagonal-tile factor of a 2D panel step. It computes
// the same multipliers and within-tile updates as Kernel.PanelLU, which
// additionally sweeps the panel rows' trailing columns; with the 2D
// decomposition those columns are applied per column tile by
// LUPanelTrailing instead.
func PanelLUTile(f *Matrix, k0, k1 int, tol float64) error {
	return panelLU(f, k0, k1, k1, tol)
}

// LUPanelTrailing applies the diagonal tile's within-panel multipliers to
// the panel rows' columns [c0,c1) (c0 >= k1) — the row-panel (U-tile)
// solve. Requires PanelLUTile to have finalized the multipliers. Row i
// receives pivots k0..i-1 ascending, and a pivot row's slice is final
// before any later row reads it; disjoint column tiles are independent.
// KernelDefault replays its full-row master's update order exactly (zero
// multipliers skipped, one multiply one subtract each), so PanelLUTile
// plus these tiles equals KernelDefault.PanelLU. KernelSIMD applies the
// pivots through the fused k-grouping of simdTrailingUpdate, which is
// what its own 1D master (Kernel.PanelLU) runs over the full trailing
// span.
func (kern Kernel) LUPanelTrailing(f *Matrix, k0, k1, c0, c1 int) {
	if c1 <= c0 || k1 <= k0 {
		return
	}
	if kern.Resolve() == KernelSIMD {
		luPanelTrailingSIMD(f, k0, k1, c0, c1)
		return
	}
	luPanelTrailingRB(f, k0, k1, c0, c1)
}

// luPanelTrailingRB is the register-blocked row-panel solve: per panel
// row, the nonzero multipliers in ascending pivot order, fused in pairs.
func luPanelTrailingRB(f *Matrix, k0, k1, c0, c1 int) {
	n := f.C
	var lb [kernStackPanel]float64
	var kb [kernStackPanel]int32
	ls, ki := lb[:], kb[:]
	if kw := k1 - k0; kw > kernStackPanel {
		ls, ki = make([]float64, kw), make([]int32, kw)
	}
	for i := k0 + 1; i < k1; i++ {
		rowI := f.A[i*n : i*n+n : i*n+n]
		nnz := 0
		for k := k0; k < i; k++ {
			if l := rowI[k]; l != 0 {
				ls[nnz], ki[nnz] = l, int32(k-k0)
				nnz++
			}
		}
		ri := rowI[c0:c1]
		t := 0
		for ; t+1 < nnz; t += 2 {
			ka, kb2 := int(ki[t])+k0, int(ki[t+1])+k0
			rank2Sub(ri, f.A[ka*n+c0:ka*n+c1:ka*n+c1], f.A[kb2*n+c0:kb2*n+c1:kb2*n+c1], ls[t], ls[t+1])
		}
		if t < nnz {
			ka := int(ki[t]) + k0
			rank1Sub(ri, f.A[ka*n+c0:ka*n+c1:ka*n+c1], ls[t])
		}
	}
}

// LUSolveRows computes the multipliers and within-panel updates of rows
// [r0,r1) (r0 >= k1) against the eliminated panel [k0,k1) — the
// column-panel (L-tile) solve, i.e. exactly the panel-column part of
// Kernel.LUApplyRows without the trailing sweep. After it, columns
// [k0,k1) of the rows hold the final multipliers LUUpdateTile reads. Rows
// are independent given the diagonal tile.
func (kern Kernel) LUSolveRows(f *Matrix, k0, k1, r0, r1 int) {
	if r1 <= r0 || k1 <= k0 {
		return
	}
	n := f.C
	kw := k1 - k0
	var ib [kernStackPanel]float64
	invs := ib[:]
	if kw > kernStackPanel {
		invs = make([]float64, kw)
	}
	for k := k0; k < k1; k++ {
		invs[k-k0] = 1 / f.A[k*n+k]
	}
	if kern.Resolve() == KernelSIMD {
		for i := r0; i < r1; i++ {
			luSolveRowSIMD(f, f.A[i*n:i*n+n:i*n+n], k0, k1, invs)
		}
		return
	}
	for i := r0; i < r1; i++ {
		rowI := f.A[i*n : i*n+n : i*n+n]
		for k := k0; k < k1; k++ {
			l := rowI[k] * invs[k-k0]
			if l == 0 {
				continue
			}
			rowI[k] = l
			rowK := f.A[k*n : k*n+n : k*n+n]
			for j := k + 1; j < k1; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
}

// LUUpdateTile applies the panel's rank-k update to the tile rows [r0,r1)
// x columns [c0,c1) (r0, c0 >= k1), reading the multipliers LUSolveRows
// left in columns [k0,k1) and the panel rows' columns [c0,c1) finalized by
// Kernel.LUPanelTrailing (or the 1D master's Kernel.PanelLU). Per element,
// KernelDefault replays the reference order — pivots ascending, skipping
// zero multipliers, one multiply one subtract each — and KernelSIMD
// replays the SIMD family's fused k-grouping, so each family computes the
// same bits as its 1D counterpart at any tile grid.
func (kern Kernel) LUUpdateTile(f *Matrix, k0, k1, r0, r1, c0, c1 int) {
	if r1 <= r0 || c1 <= c0 || k1 <= k0 {
		return
	}
	n := f.C
	kw := k1 - k0
	var rb [kernStackPanel][]float64
	rks := rb[:]
	if kw > kernStackPanel {
		rks = make([][]float64, kw)
	}
	for k := k0; k < k1; k++ {
		rks[k-k0] = f.A[k*n+c0 : k*n+c1 : k*n+c1]
	}
	if kern.Resolve() == KernelSIMD {
		for i := r0; i < r1; i++ {
			rowI := f.A[i*n : i*n+n : i*n+n]
			simdTrailingUpdate(rowI[c0:c1:c1], rowI, rks, k0, k1)
		}
		return
	}
	var lb [kernStackPanel]float64
	var kb [kernStackPanel]int32
	ls, ki := lb[:], kb[:]
	if kw > kernStackPanel {
		ls, ki = make([]float64, kw), make([]int32, kw)
	}
	for i := r0; i < r1; i++ {
		rowI := f.A[i*n : i*n+n : i*n+n]
		// Skip on the stored multiplier. The reference skips on the
		// *computed* multiplier; the two sets coincide unless a nonzero
		// entry's product with the pivot reciprocal underflowed to exactly
		// zero in the solve — then the reference skips while this applies
		// the unscaled entry. That needs a deeply subnormal front entry
		// (|v| < ~1e-312 given the pivot threshold), far outside the
		// well-scaled systems the no-pivoting solver requires anyway (see
		// ErrSmallPivot); the same caveat applies to the row-panel solve
		// (luPanelTrailingRB) against KernelDefault.PanelLU.
		nnz := 0
		for k := k0; k < k1; k++ {
			if l := rowI[k]; l != 0 {
				ls[nnz], ki[nnz] = l, int32(k-k0)
				nnz++
			}
		}
		ri := rowI[c0:c1]
		t := 0
		for ; t+1 < nnz; t += 2 {
			rank2Sub(ri, rks[ki[t]], rks[ki[t+1]], ls[t], ls[t+1])
		}
		if t < nnz {
			rank1Sub(ri, rks[ki[t]], ls[t])
		}
	}
}

// CholeskyUpdateTile applies the panel's symmetric trailing update to the
// lower-triangle part of the tile rows [r0,r1) x columns [c0,c1) (r0, c0
// >= k1): A(i,j) for j in [c0, min(c1, i+1)). It reads the scaled panel
// columns of the tile's rows and of the rows its columns index, so
// CholeskyScaleRows must have completed for all rows below r1 first. The
// 1D Kernel.CholeskyUpdateRows is this kernel over the full trailing
// column range.
func (kern Kernel) CholeskyUpdateTile(f *Matrix, k0, k1, r0, r1, c0, c1 int) {
	if c0 < k1 {
		c0 = k1
	}
	if c1 > r1 {
		c1 = r1 // columns j > i never occur in the lower triangle
	}
	if r1 <= r0 || c1 <= c0 || k1 <= k0 {
		return
	}
	if kern.Resolve() == KernelSIMD {
		choleskyUpdateTileSIMD(f, k0, k1, r0, r1, c0, c1)
		return
	}
	choleskyUpdateTileRB(f, k0, k1, r0, r1, c0, c1)
}

// choleskyUpdateTileRB is the register-blocked symmetric trailing update
// of columns [c0,c1): it walks the updated columns j outermost, gathers
// row j's nonzero panel entries (the element-wise kernel's skip pattern)
// once, and streams the tile's rows through 4x1 register tiles — four
// rows accumulate against the same hoisted column, each element receiving
// its pivots in ascending order, so the bits are identical to
// PartialCholesky's.
func choleskyUpdateTileRB(f *Matrix, k0, k1, r0, r1, c0, c1 int) {
	n := f.C
	kw := k1 - k0
	var lb [kernStackPanel]float64
	var kb [kernStackPanel]int32
	ls, ks := lb[:], kb[:]
	if kw > kernStackPanel {
		ls, ks = make([]float64, kw), make([]int32, kw)
	}
	for j := c0; j < c1; j++ {
		rowJ := f.A[j*n : j*n+n]
		nnz := 0
		for k := k0; k < k1; k++ {
			if v := rowJ[k]; v != 0 {
				ls[nnz], ks[nnz] = v, int32(k)
				nnz++
			}
		}
		if nnz == 0 {
			continue
		}
		lj, kj := ls[:nnz:nnz], ks[:nnz:nnz]
		lo := j
		if lo < r0 {
			lo = r0
		}
		i := lo
		for ; i+3 < r1; i += 4 {
			r0v := f.A[i*n : i*n+n : i*n+n]
			r1v := f.A[(i+1)*n : (i+1)*n+n : (i+1)*n+n]
			r2v := f.A[(i+2)*n : (i+2)*n+n : (i+2)*n+n]
			r3v := f.A[(i+3)*n : (i+3)*n+n : (i+3)*n+n]
			s0, s1, s2, s3 := r0v[j], r1v[j], r2v[j], r3v[j]
			for t, l := range lj {
				k := int(kj[t])
				s0 -= r0v[k] * l
				s1 -= r1v[k] * l
				s2 -= r2v[k] * l
				s3 -= r3v[k] * l
			}
			r0v[j], r1v[j], r2v[j], r3v[j] = s0, s1, s2, s3
		}
		for ; i < r1; i++ {
			rv := f.A[i*n : i*n+n : i*n+n]
			s := rv[j]
			for t, l := range lj {
				s -= rv[int(kj[t])] * l
			}
			rv[j] = s
		}
	}
}
