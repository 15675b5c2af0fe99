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

// spread lays the f x m front panel W out the way the solve finds a
// front's rows: the npiv pivot rows at the top of a larger block x, the
// CB rows at rows — runs of 1-9 consecutive rows with gaps between —
// and every other word of x NaN.
func spread(rng *rand.Rand, W *Matrix, npiv int) (x []float64, rows []int) {
	m, ncb := W.C, W.R-npiv
	rows = make([]int, 0, ncb)
	g := npiv + rng.Intn(3)
	for len(rows) < ncb {
		for run := 1 + rng.Intn(9); run > 0 && len(rows) < ncb; run-- {
			rows = append(rows, g)
			g++
		}
		g += 1 + rng.Intn(3)
	}
	x = make([]float64, g*m)
	for i := range x {
		x[i] = math.NaN()
	}
	copy(x, W.A[:npiv*m])
	for k, r := range rows {
		copy(x[r*m:r*m+m], W.Row(npiv+k))
	}
	return x, rows
}

// forwardInPlace runs a forward kernel on W laid out by spread — the
// pivot panel and the CB rows by index — and reads the front's rows back
// into W. A word of x outside the front's rows must keep its NaN.
func forwardInPlace(t *testing.T, rng *rand.Rand, W *Matrix, npiv int, run func(P *Matrix, x []float64, rows []int)) {
	t.Helper()
	m := W.C
	x, rows := spread(rng, W, npiv)
	run(&Matrix{R: npiv, C: m, A: x[:npiv*m]}, x, rows)
	front := make([]bool, len(x)/m)
	for i := 0; i < npiv; i++ {
		front[i] = true
	}
	for k, r := range rows {
		front[r] = true
		copy(W.Row(npiv+k), x[r*m:r*m+m])
	}
	copy(W.A, x[:npiv*m])
	for i, in := range front {
		for c := 0; c < m && !in; c++ {
			if v := x[i*m+c]; !math.IsNaN(v) {
				t.Fatalf("forward kernel wrote %v to row %d, not a row of the front", v, i)
			}
		}
	}
}

// backwardInPlace runs a backward kernel on W cut into its pivot panel
// and its (gathered) CB rows, which must come back unchanged.
func backwardInPlace(t *testing.T, W *Matrix, npiv int, run func(P, C *Matrix)) {
	t.Helper()
	m := W.C
	C := &Matrix{R: W.R - npiv, C: m, A: W.A[npiv*m:]}
	cb := append([]float64(nil), C.A...)
	run(&Matrix{R: npiv, C: m, A: W.A[:npiv*m]}, C)
	for i, v := range cb {
		if math.Float64bits(C.A[i]) != math.Float64bits(v) {
			t.Fatalf("backward kernel wrote CB element %d: %v, was %v", i, C.A[i], v)
		}
	}
}

// solveKernel runs one of the four solve kernels of family kern — named
// fwdLU, fwdChol, bwdLU or bwdChol, M its factor piece — over the f x m
// front panel W through the in-place signatures.
func solveKernel(t *testing.T, rng *rand.Rand, kern Kernel, name string, M *Matrix, npiv int, W *Matrix) {
	t.Helper()
	switch name {
	case "fwdLU":
		forwardInPlace(t, rng, W, npiv, func(P *Matrix, x []float64, rows []int) { kern.SolveForwardLU(M, P, x, rows) })
	case "fwdChol":
		forwardInPlace(t, rng, W, npiv, func(P *Matrix, x []float64, rows []int) { kern.SolveForwardCholesky(M, P, x, rows) })
	case "bwdLU":
		backwardInPlace(t, W, npiv, func(P, C *Matrix) { kern.SolveBackwardLU(M, P, C) })
	case "bwdChol":
		backwardInPlace(t, W, npiv, func(P, C *Matrix) { kern.SolveBackwardCholesky(M, P, C) })
	default:
		t.Fatalf("unknown solve kernel %q", name)
	}
}

// TestSolveKernelsDefaultBitwise pins the KernelDefault solves to the
// scalar reference: every column of the front, its CB rows updated in
// place by index (forward) or read from a gathered panel (backward),
// must carry the exact bits of a per-column scalar run, for any nrhs.
func TestSolveKernelsDefaultBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sz := range []struct{ f, npiv, nrhs int }{
		{1, 1, 1}, {5, 5, 1}, {7, 3, 1}, {8, 3, 4}, {16, 16, 3},
		{23, 9, 8}, {40, 17, 5}, {12, 1, 7}, {9, 0, 2},
	} {
		for trial := 0; trial < 4; trial++ {
			L, U, W0 := solveProblem(rng, sz.f, sz.npiv, sz.nrhs)
			kinds := []struct {
				name string
				m    *Matrix
				ref  func(x []float64)
			}{
				{"fwdLU", L, func(x []float64) { refForwardLU(L, sz.npiv, x) }},
				{"fwdChol", L, func(x []float64) { refForwardCholesky(L, sz.npiv, x) }},
				{"bwdLU", U, func(x []float64) { refBackwardLU(U, sz.npiv, x) }},
				{"bwdChol", L, func(x []float64) { refBackwardCholesky(L, sz.npiv, x) }},
			}
			for _, k := range kinds {
				W := cloneM(W0)
				solveKernel(t, rng, KernelDefault, k.name, k.m, sz.npiv, W)
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
