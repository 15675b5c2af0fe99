package dense

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestKernelSIMDResidual validates the fused family the way it is
// specified: a full SIMD LU solves a random system to machine-level
// residual, and SIMD Cholesky factors agree with the default ones to
// tight relative tolerance.
func TestKernelSIMDResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n := 96
	a := randomDiagDominant(n, rng)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	MatVec(a, x, b, 1)
	lu := cloneM(a)
	if err := KernelSIMD.PartialLU(lu, n, 1e-14, 16); err != nil {
		t.Fatal(err)
	}
	y := append([]float64(nil), b...)
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			y[i] -= lu.At(i, k) * y[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			y[i] -= lu.At(i, k) * y[k]
		}
		y[i] /= lu.At(i, i)
	}
	for i := range x {
		if math.Abs(y[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
			t.Fatalf("simd LU solve off at %d: %g vs %g", i, y[i], x[i])
		}
	}

	s := randomSPD(n, rng)
	sparsify(s, 0.4, true, rng)
	def := cloneM(s)
	if err := KernelDefault.PartialCholesky(def, n/2, 16); err != nil {
		t.Fatal(err)
	}
	simd := cloneM(s)
	if err := KernelSIMD.PartialCholesky(simd, n/2, 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := math.Abs(def.At(i, j) - simd.At(i, j))
			if d > 1e-8*(1+math.Abs(def.At(i, j))) {
				t.Fatalf("simd cholesky (%d,%d): %g vs %g", i, j, simd.At(i, j), def.At(i, j))
			}
		}
	}
}

// TestKernelSIMDPartitionInvariance pins the determinism the parallel
// executor relies on in SIMD mode: the SIMD row kernels compute identical
// bits however the trailing rows are grouped into blocks.
func TestKernelSIMDPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, npiv := 47, 18

	lu := randomDiagDominant(n, rng)
	sparsify(lu, 0.3, false, rng)
	if err := PanelLU(lu, 0, npiv, 1e-14); err != nil {
		t.Fatal(err)
	}
	apply := func(parts [][2]int) *Matrix {
		f := cloneM(lu)
		for _, r := range parts {
			KernelSIMD.LUApplyRows(f, 0, npiv, r[0], r[1])
		}
		return f
	}
	ref := apply([][2]int{{npiv, n}})
	bitsEqual(t, "simd LU ragged", ref, apply([][2]int{{npiv, npiv + 3}, {npiv + 3, 30}, {30, n}}))

	ch := randomSPD(n, rng)
	sparsify(ch, 0.4, true, rng)
	if err := PanelCholesky(ch, 0, npiv); err != nil {
		t.Fatal(err)
	}
	CholeskyScaleRows(ch, 0, npiv, npiv, n)
	update := func(parts [][2]int) *Matrix {
		f := cloneM(ch)
		for _, r := range parts {
			KernelSIMD.CholeskyUpdateRows(f, 0, npiv, r[0], r[1])
		}
		return f
	}
	refC := update([][2]int{{npiv, n}})
	gotC := update([][2]int{{npiv, npiv + 1}, {npiv + 1, 33}, {33, n}})
	lowerBitsEqual(t, "simd cholesky partition", refC, gotC)
}

// TestKernelSIMDTileInvariance pins SIMD-2D == SIMD-1D: splitting a panel
// step into the L-tile solve plus update tiles over any grid reproduces
// the 1D row kernel bit for bit, for both LU and the symmetric update.
func TestKernelSIMDTileInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n, npiv := 61, 20

	lu := randomDiagDominant(n, rng)
	sparsify(lu, 0.3, false, rng)
	if err := PanelLU(lu, 0, npiv, 1e-14); err != nil {
		t.Fatal(err)
	}
	ref := cloneM(lu)
	KernelSIMD.LUApplyRows(ref, 0, npiv, npiv, n)
	got := cloneM(lu)
	for _, r := range [][2]int{{npiv, 33}, {33, n}} {
		KernelSIMD.LUSolveRows(got, 0, npiv, r[0], r[1])
	}
	for _, r := range [][2]int{{npiv, 40}, {40, n}} {
		for _, c := range [][2]int{{npiv, npiv + 5}, {npiv + 5, 44}, {44, n}} {
			KernelSIMD.LUUpdateTile(got, 0, npiv, r[0], r[1], c[0], c[1])
		}
	}
	bitsEqual(t, "simd LU tiles", ref, got)

	ch := randomSPD(n, rng)
	sparsify(ch, 0.4, true, rng)
	if err := PanelCholesky(ch, 0, npiv); err != nil {
		t.Fatal(err)
	}
	CholeskyScaleRows(ch, 0, npiv, npiv, n)
	refC := cloneM(ch)
	KernelSIMD.CholeskyUpdateRows(refC, 0, npiv, npiv, n)
	gotC := cloneM(ch)
	for _, r := range [][2]int{{npiv, 30}, {30, n}} {
		for _, c := range [][2]int{{npiv, 37}, {37, n}} {
			KernelSIMD.CholeskyUpdateTile(gotC, 0, npiv, r[0], r[1], c[0], c[1])
		}
	}
	lowerBitsEqual(t, "simd cholesky tiles", refC, gotC)
}

// TestKernelSIMDPortableBitwise pins the fallback guarantee at the
// factorization level: a full SIMD factorization through the assembly
// path is bitwise identical to the same factorization through the
// portable math.FMA path (what non-amd64 builds and REPRO_SIMD=off run).
func TestKernelSIMDPortableBitwise(t *testing.T) {
	if !simdHW {
		t.Skip("no AVX2/FMA hardware path on this machine")
	}
	rng := rand.New(rand.NewSource(23))
	n := 83
	a := randomDiagDominant(n, rng)
	sparsify(a, 0.3, false, rng)
	s := randomSPD(n, rng)
	sparsify(s, 0.4, true, rng)

	run := func(vector bool) (*Matrix, *Matrix) {
		was := simdEnabled
		simdEnabled = vector
		defer func() { simdEnabled = was }()
		lu := cloneM(a)
		if err := KernelSIMD.PartialLU(lu, n-7, 1e-14, 16); err != nil {
			t.Fatal(err)
		}
		ch := cloneM(s)
		if err := KernelSIMD.PartialCholesky(ch, n/2, 16); err != nil {
			t.Fatal(err)
		}
		return lu, ch
	}
	luVec, chVec := run(true)
	luGo, chGo := run(false)
	bitsEqual(t, "simd LU asm-vs-portable", luVec, luGo)
	bitsEqual(t, "simd cholesky asm-vs-portable", chVec, chGo)
}

// TestKernelSIMDSolveKernels validates the fused triangular solves against
// the default solve kernels to tight tolerance, and pins their
// column-count independence: each RHS column of a multi-RHS SIMD solve is
// bitwise identical to solving that column alone.
func TestKernelSIMDSolveKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f, npiv, nrhs := 37, 21, 5

	L := New(f, f)
	U := New(f, f)
	for i := 0; i < f; i++ {
		for j := 0; j < f; j++ {
			L.Set(i, j, rng.NormFloat64())
			U.Set(i, j, rng.NormFloat64())
		}
		L.Set(i, i, 4+rng.Float64())
		U.Set(i, i, 4+rng.Float64())
	}
	W0 := New(f, nrhs)
	for i := range W0.A {
		W0.A[i] = rng.NormFloat64()
	}

	type solveFn func(kern Kernel, M *Matrix, W *Matrix)
	kernels := []struct {
		name string
		m    *Matrix
		run  solveFn
	}{
		{"fwdLU", L, func(k Kernel, M, W *Matrix) { k.SolveForwardLU(M, npiv, W) }},
		{"fwdChol", L, func(k Kernel, M, W *Matrix) { k.SolveForwardCholesky(M, npiv, W) }},
		{"bwdLU", U, func(k Kernel, M, W *Matrix) { k.SolveBackwardLU(M, npiv, W) }},
		{"bwdChol", L, func(k Kernel, M, W *Matrix) { k.SolveBackwardCholesky(M, npiv, W) }},
	}
	for _, kc := range kernels {
		def := cloneM(W0)
		kc.run(KernelDefault, kc.m, def)
		simd := cloneM(W0)
		kc.run(KernelSIMD, kc.m, simd)
		for i := range def.A {
			if d := math.Abs(def.A[i] - simd.A[i]); d > 1e-9*(1+math.Abs(def.A[i])) {
				t.Fatalf("%s: element %d: simd %g default %g", kc.name, i, simd.A[i], def.A[i])
			}
		}
		// Column independence: each column solved alone matches the batch.
		for c := 0; c < nrhs; c++ {
			w1 := New(f, 1)
			for i := 0; i < f; i++ {
				w1.A[i] = W0.At(i, c)
			}
			kc.run(KernelSIMD, kc.m, w1)
			for i := 0; i < f; i++ {
				if math.Float64bits(w1.A[i]) != math.Float64bits(simd.At(i, c)) {
					t.Fatalf("%s: col %d row %d differs single-RHS vs batch", kc.name, c, i)
				}
			}
		}
	}
}

// TestKernelSIMDZeroAlloc pins the SIMD kernels' steady-state stack
// discipline: default-width panels run without a single heap allocation.
func TestKernelSIMDZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n, npiv := 160, 32
	lu := randomDiagDominant(n, rng)
	if err := PanelLU(lu, 0, npiv, 1e-14); err != nil {
		t.Fatal(err)
	}
	ch := randomSPD(n, rng)
	if err := PanelCholesky(ch, 0, npiv); err != nil {
		t.Fatal(err)
	}
	CholeskyScaleRows(ch, 0, npiv, npiv, n)
	allocs := testing.AllocsPerRun(10, func() {
		KernelSIMD.LUApplyRows(lu, 0, npiv, npiv, n)
		KernelSIMD.LUSolveRows(lu, 0, npiv, npiv, n)
		KernelSIMD.LUUpdateTile(lu, 0, npiv, npiv, n, npiv, n)
		KernelSIMD.CholeskyUpdateRows(ch, 0, npiv, npiv, n)
		KernelSIMD.CholeskyUpdateTile(ch, 0, npiv, npiv, n, npiv+4, n-4)
	})
	if allocs != 0 {
		t.Fatalf("SIMD kernels allocate %v per run, want 0", allocs)
	}
}

// TestKernelResolveAndParse covers the auto policy and the -kernel
// grammar.
func TestKernelResolveAndParse(t *testing.T) {
	for _, k := range []Kernel{KernelDefault, KernelSIMD} {
		if got := k.Resolve(); got != k {
			t.Fatalf("%v.Resolve() = %v, want itself", k, got)
		}
	}
	auto := KernelAuto.Resolve()
	if simdEnabled && auto != KernelSIMD {
		t.Fatalf("auto resolved to %v with SIMD available", auto)
	}
	if !simdEnabled && auto != KernelDefault {
		t.Fatalf("auto resolved to %v without SIMD", auto)
	}

	good := map[string]Kernel{
		"": KernelDefault, "default": KernelDefault, "DEFAULT": KernelDefault,
		"simd": KernelSIMD, "SIMD": KernelSIMD,
		"auto": KernelAuto, "Auto": KernelAuto,
	}
	for s, want := range good {
		got, err := ParseKernel(s)
		if err != nil || got != want {
			t.Fatalf("ParseKernel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"fast", "Fast", "turbo", "simd2", "none", "fastest"} {
		if _, err := ParseKernel(s); err == nil {
			t.Fatalf("ParseKernel(%q) accepted", s)
		} else if !strings.Contains(err.Error(), "default, simd, auto") {
			t.Fatalf("ParseKernel(%q): error does not name the accepted values: %v", s, err)
		}
	}
	if KernelSIMD.String() != "simd" || KernelAuto.String() != "auto" {
		t.Fatalf("String(): %q %q", KernelSIMD.String(), KernelAuto.String())
	}
}
