package dense

import (
	"math"
	"math/rand"
	"testing"
)

// solveProblem builds one front's trapezoids (f x npiv lower L with
// either unit or stored diagonal, npiv x f upper U) and an f x nrhs
// panel, with a sprinkling of exact zeros so the forward zero-skip path
// is exercised.
func solveProblem(rng *rand.Rand, f, npiv, nrhs int) (L, U, W *Matrix) {
	L = New(f, npiv)
	U = New(npiv, f)
	W = New(f, nrhs)
	for i := 0; i < f; i++ {
		for k := 0; k < npiv && k <= i; k++ {
			L.Set(i, k, rng.NormFloat64())
		}
	}
	for k := 0; k < npiv; k++ {
		L.Set(k, k, 1+rng.Float64()) // safe divisor for the Cholesky paths
		for j := k; j < f; j++ {
			U.Set(k, j, rng.NormFloat64())
		}
		U.Set(k, k, 1+rng.Float64())
	}
	for p := range W.A {
		if rng.Intn(4) == 0 {
			continue // exact zero
		}
		W.A[p] = rng.NormFloat64()
	}
	return L, U, W
}

// Scalar references: the historical per-element solve loops, one column
// at a time, exactly as the pre-blocked solver ran them.

func refForwardLU(L *Matrix, npiv int, x []float64) {
	for k := 0; k < npiv; k++ {
		v := x[k]
		if v == 0 {
			continue
		}
		for i := k + 1; i < len(x); i++ {
			x[i] -= L.At(i, k) * v
		}
	}
}

func refForwardCholesky(L *Matrix, npiv int, x []float64) {
	for k := 0; k < npiv; k++ {
		x[k] /= L.At(k, k)
		v := x[k]
		if v == 0 {
			continue
		}
		for i := k + 1; i < len(x); i++ {
			x[i] -= L.At(i, k) * v
		}
	}
}

func refBackwardLU(U *Matrix, npiv int, x []float64) {
	for k := npiv - 1; k >= 0; k-- {
		s := x[k]
		for j := k + 1; j < len(x); j++ {
			s -= U.At(k, j) * x[j]
		}
		x[k] = s / U.At(k, k)
	}
}

func refBackwardCholesky(L *Matrix, npiv int, x []float64) {
	for k := npiv - 1; k >= 0; k-- {
		s := x[k]
		for i := k + 1; i < len(x); i++ {
			s -= L.At(i, k) * x[i]
		}
		x[k] = s / L.At(k, k)
	}
}

// column extracts column c of the panel.
func column(W *Matrix, c int) []float64 {
	x := make([]float64, W.R)
	for i := 0; i < W.R; i++ {
		x[i] = W.At(i, c)
	}
	return x
}

// TestSolveKernelsDefaultBitwise pins the KernelDefault panel solves to
// the scalar reference: every column of the blocked result must carry
// the exact bits of a per-column scalar run, for any nrhs.
func TestSolveKernelsDefaultBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sz := range []struct{ f, npiv, nrhs int }{
		{1, 1, 1}, {5, 5, 1}, {7, 3, 1}, {8, 3, 4}, {16, 16, 3},
		{23, 9, 8}, {40, 17, 5}, {12, 1, 7},
	} {
		for trial := 0; trial < 4; trial++ {
			L, U, W0 := solveProblem(rng, sz.f, sz.npiv, sz.nrhs)
			kinds := []struct {
				name string
				run  func(W *Matrix)
				ref  func(x []float64)
			}{
				{"fwdLU", func(W *Matrix) { KernelDefault.SolveForwardLU(L, sz.npiv, W) },
					func(x []float64) { refForwardLU(L, sz.npiv, x) }},
				{"fwdChol", func(W *Matrix) { KernelDefault.SolveForwardCholesky(L, sz.npiv, W) },
					func(x []float64) { refForwardCholesky(L, sz.npiv, x) }},
				{"bwdLU", func(W *Matrix) { KernelDefault.SolveBackwardLU(U, sz.npiv, W) },
					func(x []float64) { refBackwardLU(U, sz.npiv, x) }},
				{"bwdChol", func(W *Matrix) { KernelDefault.SolveBackwardCholesky(L, sz.npiv, W) },
					func(x []float64) { refBackwardCholesky(L, sz.npiv, x) }},
			}
			for _, k := range kinds {
				W := New(sz.f, sz.nrhs)
				copy(W.A, W0.A)
				k.run(W)
				for c := 0; c < sz.nrhs; c++ {
					x := column(W0, c)
					k.ref(x)
					for i := range x {
						if got := W.At(i, c); math.Float64bits(got) != math.Float64bits(x[i]) {
							t.Fatalf("%s f=%d npiv=%d nrhs=%d: row %d col %d: blocked %v != scalar %v",
								k.name, sz.f, sz.npiv, sz.nrhs, i, c, got, x[i])
						}
					}
				}
			}
		}
	}
}
