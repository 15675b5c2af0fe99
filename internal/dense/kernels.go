// Kernel dispatch for the update micro-kernels — the rank-k panel updates
// that dominate factorization time. The element-wise PartialLU /
// PartialCholesky of dense.go are the definitional oracle; two blocked
// families sit behind one selector (plus an auto policy):
//
//   - KernelDefault: register-blocked micro-kernels that perform the *same
//     floating-point operations in the same per-element order* as the
//     element-wise kernels, including the zero-skip short-circuits.
//     Factors are bitwise identical to the element-wise kernels at every
//     panel width, row partition, tile grid and worker count; only the
//     loop structure changes: column loops are 4x-unrolled over hoisted,
//     capacity-capped row slices (s = s[:n:n] re-slicing eliminates the
//     bounds checks), and trailing updates fuse pivot pairs so each
//     element is loaded once per pair instead of once per pivot.
//
//   - KernelSIMD: fused multiply-add kernels over the span/dot primitives
//     of simd_prims.go — AVX2/FMA assembly on capable amd64 hardware, a
//     bitwise-identical math.FMA fallback everywhere else (see simd.go).
//     Results are not bitwise comparable to the element-wise kernels and
//     are validated by residual tolerance instead. They are still
//     deterministic for a fixed panel width: every element's value is a
//     pure function of the front and the panel sequence, independent of
//     the row partition, the tile grid and which worker runs which block,
//     so a parallel SIMD factorization reproduces the sequential one.
//
//   - KernelAuto is a policy, not a family: Resolve() picks KernelSIMD
//     when the vector path is available and KernelDefault otherwise.
//
// The panel kernels (PanelLU, PanelCholesky) and the Cholesky scale phase
// (CholeskyScaleRows) are shared by both families; see blocked.go.
//
// The per-element operation-order discipline of KernelDefault deliberately
// keeps each update in the `x -= l * v` shape of the element-wise kernels
// (one multiply, one subtract, each rounded separately) so a compiler that
// fuses multiply-add does so identically in both loop structures.
package dense

// Kernel selects the implementation family of the update micro-kernels.
type Kernel int

const (
	// KernelDefault is the register-blocked family: bitwise identical to
	// the element-wise kernels (see the package comment above).
	KernelDefault Kernel = iota
	// KernelSIMD runs the fused-multiply-add family (AVX2/FMA assembly or
	// its bitwise-identical math.FMA fallback); validated by residual
	// tolerance, deterministic for a fixed panel width.
	KernelSIMD
	// KernelAuto resolves to KernelSIMD when the vector path is available
	// and to KernelDefault otherwise; see Kernel.Resolve.
	KernelAuto
)

func (k Kernel) String() string {
	switch k {
	case KernelDefault:
		return "default"
	case KernelSIMD:
		return "simd"
	case KernelAuto:
		return "auto"
	}
	return "unknown"
}

// kernStackPanel bounds the panel width for which the kernels' per-call
// scratch (reciprocals, nonzero multiplier lists, hoisted row slices)
// lives in stack arrays; wider panels fall back to heap scratch. Default
// panels (DefaultBlockRows) are far below it, so steady-state calls do
// not allocate.
const kernStackPanel = 256

// LUApplyRows applies the eliminated panel [k0,k1) to rows [r0,r1)
// (r0 >= k1) through the selected kernel family: for each row, the
// multiplier scaling and the trailing-row update of every panel pivot —
// the operations PartialLU performs on that row at steps k0..k1-1.
// KernelDefault computes those operations in PartialLU's per-element
// order (identical bits). Rows are independent: disjoint row ranges may
// run concurrently once the panel is final.
func (kern Kernel) LUApplyRows(f *Matrix, k0, k1, r0, r1 int) {
	if r1 <= r0 || k1 <= k0 {
		return
	}
	if kern.Resolve() == KernelSIMD {
		luApplyRowsSIMD(f, k0, k1, r0, r1)
		return
	}
	luApplyRowsRB(f, k0, k1, r0, r1)
}

// CholeskyUpdateRows applies the panel's trailing update to rows [r0,r1)
// (r0 >= k1), columns (k1, i] of the lower triangle: A(i,j) -=
// sum_k L(i,k)*L(j,k) over the panel. KernelDefault subtracts pivot by
// pivot in PartialCholesky's order (per element: ascending k, skipping k
// where L(j,k) == 0), so its bits are identical. It reads the scaled
// panel columns of every row j <= i, so CholeskyScaleRows must have
// completed for all rows up to r1 before this runs.
func (kern Kernel) CholeskyUpdateRows(f *Matrix, k0, k1, r0, r1 int) {
	kern.CholeskyUpdateTile(f, k0, k1, r0, r1, k1, r1)
}

// PartialLU is the sequential blocked partial LU through this kernel
// family: pivots in panels of `block` columns (block <= 0 uses
// DefaultBlockRows), each panel applied to all trailing rows at once.
// KernelDefault is bitwise identical to the element-wise PartialLU.
func (kern Kernel) PartialLU(f *Matrix, npiv int, tol float64, block int) error {
	if err := checkPartial(f, npiv); err != nil {
		return err
	}
	kern = kern.Resolve()
	if block <= 0 {
		block = DefaultBlockRows
	}
	if kern == KernelDefault && f.R <= block {
		// A single panel covers the whole front: the element-wise kernel
		// computes the same bits without the panel machinery.
		return PartialLU(f, npiv, tol)
	}
	for k0 := 0; k0 < npiv; k0 += block {
		k1 := min(k0+block, npiv)
		if err := PanelLU(f, k0, k1, tol); err != nil {
			return err
		}
		kern.LUApplyRows(f, k0, k1, k1, f.R)
	}
	return nil
}

// PartialCholesky is the sequential blocked partial Cholesky through this
// kernel family. KernelDefault is bitwise identical to the element-wise
// PartialCholesky.
func (kern Kernel) PartialCholesky(f *Matrix, npiv int, block int) error {
	if err := checkPartial(f, npiv); err != nil {
		return err
	}
	kern = kern.Resolve()
	if block <= 0 {
		block = DefaultBlockRows
	}
	if kern == KernelDefault && f.R <= block {
		return PartialCholesky(f, npiv)
	}
	for k0 := 0; k0 < npiv; k0 += block {
		k1 := min(k0+block, npiv)
		if err := PanelCholesky(f, k0, k1); err != nil {
			return err
		}
		CholeskyScaleRows(f, k0, k1, k1, f.R)
		kern.CholeskyUpdateRows(f, k0, k1, k1, f.R)
	}
	return nil
}

// loadPanel fills invs with the pivot reciprocals and rks with the
// trailing part [k1,n) of every panel row, re-sliced once with a capped
// capacity so the inner loops are bounds-check free. Callers pass
// stack-array-backed slices so the steady state does not allocate.
func loadPanel(f *Matrix, k0, k1 int, invs []float64, rks [][]float64) {
	n := f.C
	for k := k0; k < k1; k++ {
		invs[k-k0] = 1 / f.A[k*n+k]
		rks[k-k0] = f.A[k*n+k1 : k*n+n : k*n+n]
	}
}

// luApplyRowsRB is the register-blocked LUApplyRows: bitwise identical to
// the reference. Per row it first replays the reference's multiplier and
// within-panel updates (collecting the nonzero multipliers it commits),
// then applies the trailing update fused over pivot pairs with the column
// loop 4x-unrolled — per element the pivots still arrive in ascending
// order with the reference's exact zero skips.
func luApplyRowsRB(f *Matrix, k0, k1, r0, r1 int) {
	n := f.C
	kw := k1 - k0
	var ib [kernStackPanel]float64
	var rb [kernStackPanel][]float64
	var lb [kernStackPanel]float64
	var kb [kernStackPanel]int32
	invs, rks, ls, ki := ib[:], rb[:], lb[:], kb[:]
	if kw > kernStackPanel {
		invs, rks = make([]float64, kw), make([][]float64, kw)
		ls, ki = make([]float64, kw), make([]int32, kw)
	}
	loadPanel(f, k0, k1, invs, rks)

	for i := r0; i < r1; i++ {
		rowI := f.A[i*n : i*n+n : i*n+n]
		// Multipliers and within-panel updates, reference order and skips.
		nnz := 0
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
			ls[nnz], ki[nnz] = l, int32(k-k0)
			nnz++
		}
		// Trailing update, pivots fused in ascending pairs.
		ri := rowI[k1:]
		t := 0
		for ; t+1 < nnz; t += 2 {
			rank2Sub(ri, rks[ki[t]], rks[ki[t+1]], ls[t], ls[t+1])
		}
		if t < nnz {
			rank1Sub(ri, rks[ki[t]], ls[t])
		}
	}
}

// rank1Sub computes ri[j] -= l*ra[j] over the whole span, 4x-unrolled,
// keeping the reference's one-multiply-one-subtract shape per element.
func rank1Sub(ri, ra []float64, l float64) {
	n := len(ri)
	ri = ri[:n:n]
	ra = ra[:n:n]
	j := 0
	for ; j+3 < n; j += 4 {
		ri[j] -= l * ra[j]
		ri[j+1] -= l * ra[j+1]
		ri[j+2] -= l * ra[j+2]
		ri[j+3] -= l * ra[j+3]
	}
	for ; j < n; j++ {
		ri[j] -= l * ra[j]
	}
}

// rank2Sub fuses two pivots: per element the first pivot's update lands
// before the second's, exactly as the reference's ascending pivot order.
func rank2Sub(ri, ra, rb []float64, la, lb float64) {
	n := len(ri)
	ri = ri[:n:n]
	ra = ra[:n:n]
	rb = rb[:n:n]
	j := 0
	for ; j+3 < n; j += 4 {
		ri[j] -= la * ra[j]
		ri[j] -= lb * rb[j]
		ri[j+1] -= la * ra[j+1]
		ri[j+1] -= lb * rb[j+1]
		ri[j+2] -= la * ra[j+2]
		ri[j+2] -= lb * rb[j+2]
		ri[j+3] -= la * ra[j+3]
		ri[j+3] -= lb * rb[j+3]
	}
	for ; j < n; j++ {
		ri[j] -= la * ra[j]
		ri[j] -= lb * rb[j]
	}
}
