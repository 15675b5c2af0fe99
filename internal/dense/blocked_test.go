package dense

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBlockedLUMatchesNaiveExactly checks the headline guarantee of the
// blocked partial LU (panel kernels driven by KernelDefault): it performs
// the same operations in the same per-element order as PartialLU, so for
// the same elimination order the result is bitwise identical — at every
// panel width, including ones that do not divide npiv or n.
func TestBlockedLUMatchesNaiveExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 5, 17, 40, 73} {
		for _, npiv := range []int{0, 1, n / 3, n - 1, n} {
			if npiv < 0 {
				continue
			}
			a := randomDiagDominant(n, rng)
			sparsify(a, 0.4, false, rng)
			ref := cloneM(a)
			if err := PartialLU(ref, npiv, 1e-14); err != nil {
				t.Fatal(err)
			}
			for _, block := range []int{1, 3, 8, n, 2 * n} {
				got := cloneM(a)
				if err := KernelDefault.PartialLU(got, npiv, 1e-14, block); err != nil {
					t.Fatalf("n=%d npiv=%d block=%d: %v", n, npiv, block, err)
				}
				bitsEqual(t, "LU", ref, got)
			}
		}
	}
}

// TestBlockedCholeskyMatchesNaiveExactly is the symmetric counterpart:
// panel factorization + two slave phases (scale, trailing update) replay
// PartialCholesky bit for bit.
func TestBlockedCholeskyMatchesNaiveExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 6, 19, 33, 50} {
		for _, npiv := range []int{0, 1, n / 2, n} {
			a := randomSPD(n, rng)
			sparsify(a, 0.5, true, rng)
			ref := cloneM(a)
			if err := PartialCholesky(ref, npiv); err != nil {
				t.Fatal(err)
			}
			for _, block := range []int{1, 4, 7, n, 3 * n} {
				got := cloneM(a)
				if err := KernelDefault.PartialCholesky(got, npiv, block); err != nil {
					t.Fatalf("n=%d npiv=%d block=%d: %v", n, npiv, block, err)
				}
				lowerBitsEqual(t, fmt.Sprintf("n=%d npiv=%d block=%d", n, npiv, block), ref, got)
			}
		}
	}
}
