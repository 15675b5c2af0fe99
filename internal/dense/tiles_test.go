package dense

import (
	"fmt"
	"math/rand"
	"testing"
)

// tileBounds returns the tile boundaries of [lo,hi) at multiples of b
// measured from 0 — the pure-function geometry the 2D partition uses.
func tileBounds(lo, hi, b int) [][2]int {
	var out [][2]int
	for r0 := lo; r0 < hi; {
		r1 := (r0/b + 1) * b
		if r1 > hi {
			r1 = hi
		}
		out = append(out, [2]int{r0, r1})
		r0 = r1
	}
	return out
}

// tilePartialLU factors f through the full 2D tile path: per panel, the
// diagonal-tile factor, the row-panel (U) solves per column tile, the
// column-panel (L) solves per row block, then the rank-k tile updates.
func tilePartialLU(f *Matrix, npiv int, tol float64, b int, kern Kernel) error {
	n := f.R
	for k0 := 0; k0 < npiv; k0 += b {
		k1 := min(k0+b, npiv)
		if err := PanelLUTile(f, k0, k1, tol); err != nil {
			return err
		}
		for _, ct := range tileBounds(k1, n, b) {
			LUPanelTrailing(f, k0, k1, ct[0], ct[1])
		}
		for _, rt := range tileBounds(k1, n, b) {
			kern.LUSolveRows(f, k0, k1, rt[0], rt[1])
		}
		for _, rt := range tileBounds(k1, n, b) {
			for _, ct := range tileBounds(k1, n, b) {
				kern.LUUpdateTile(f, k0, k1, rt[0], rt[1], ct[0], ct[1])
			}
		}
	}
	return nil
}

// tilePartialCholesky is the symmetric counterpart: diagonal tile, scale
// per row block, then the trailing update per lower-triangle tile.
func tilePartialCholesky(f *Matrix, npiv int, b int, kern Kernel) error {
	n := f.R
	for k0 := 0; k0 < npiv; k0 += b {
		k1 := min(k0+b, npiv)
		if err := PanelCholesky(f, k0, k1); err != nil {
			return err
		}
		for _, rt := range tileBounds(k1, n, b) {
			CholeskyScaleRows(f, k0, k1, rt[0], rt[1])
		}
		for _, rt := range tileBounds(k1, n, b) {
			for _, ct := range tileBounds(k1, n, b) {
				if ct[0] > rt[1] {
					break // entirely above the diagonal
				}
				kern.CholeskyUpdateTile(f, k0, k1, rt[0], rt[1], ct[0], ct[1])
			}
		}
	}
	return nil
}

// TestTileLUBitwise pins the 2D guarantee for the default family: the
// composed tile path computes bitwise the element-wise PartialLU at every
// tile size, npiv (including npiv == n, the root-front case), and shape.
func TestTileLUBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 9, 40, 97} {
		for _, npiv := range []int{0, 1, n / 2, n} {
			a := randomDiagDominant(n, rng)
			sparsify(a, 0.35, false, rng)
			ref := cloneM(a)
			if err := PartialLU(ref, npiv, 1e-14); err != nil {
				t.Fatal(err)
			}
			for _, b := range []int{1, 5, 16, 64, n, 2 * n} {
				if b < 1 {
					continue
				}
				got := cloneM(a)
				if err := tilePartialLU(got, npiv, 1e-14, b, KernelDefault); err != nil {
					t.Fatalf("n=%d npiv=%d b=%d: %v", n, npiv, b, err)
				}
				bitsEqual(t, "tile LU", ref, got)
			}
		}
	}
}

// TestTileCholeskyBitwise is the symmetric pin: the tile path replays
// PartialCholesky bit for bit on the lower triangle.
func TestTileCholeskyBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 8, 33, 90} {
		for _, npiv := range []int{0, 1, n / 2, n} {
			a := randomSPD(n, rng)
			sparsify(a, 0.5, true, rng)
			ref := cloneM(a)
			if err := PartialCholesky(ref, npiv); err != nil {
				t.Fatal(err)
			}
			for _, b := range []int{1, 4, 16, 64, n, 2 * n} {
				got := cloneM(a)
				if err := tilePartialCholesky(got, npiv, b, KernelDefault); err != nil {
					t.Fatalf("n=%d npiv=%d b=%d: %v", n, npiv, b, err)
				}
				lowerBitsEqual(t, fmt.Sprintf("n=%d npiv=%d b=%d", n, npiv, b), ref, got)
			}
		}
	}
}

// TestTileGridIndependence pins that the tile size used for the *trailing*
// decomposition may differ per phase call without changing bits, as long
// as the panel sequence is fixed: update tiles of mixed widths produce the
// same factors. This is the freedom the scheduler relies on when a grid
// shape changes the tile-to-worker assignment but never the arithmetic.
func TestTileGridIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n, npiv, b := 71, 71, 16
	a := randomDiagDominant(n, rng)
	sparsify(a, 0.3, false, rng)
	ref := cloneM(a)
	if err := tilePartialLU(ref, npiv, 1e-14, b, KernelDefault); err != nil {
		t.Fatal(err)
	}
	// Same panels, but trailing rows/columns cut at irregular boundaries.
	got := cloneM(a)
	for k0 := 0; k0 < npiv; k0 += b {
		k1 := min(k0+b, npiv)
		if err := PanelLUTile(got, k0, k1, 1e-14); err != nil {
			t.Fatal(err)
		}
		for c0 := k1; c0 < n; {
			c1 := min(c0+7, n)
			LUPanelTrailing(got, k0, k1, c0, c1)
			c0 = c1
		}
		for r0 := k1; r0 < n; {
			r1 := min(r0+11, n)
			KernelDefault.LUSolveRows(got, k0, k1, r0, r1)
			r0 = r1
		}
		for r0 := k1; r0 < n; {
			r1 := min(r0+13, n)
			for c0 := k1; c0 < n; {
				c1 := min(c0+9, n)
				KernelDefault.LUUpdateTile(got, k0, k1, r0, r1, c0, c1)
				c0 = c1
			}
			r0 = r1
		}
	}
	bitsEqual(t, "irregular tiles", ref, got)
}
