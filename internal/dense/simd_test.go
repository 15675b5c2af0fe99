package dense

import (
	"fmt"
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
	if err := KernelDefault.PanelLU(lu, 0, npiv, 1e-14); err != nil {
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
	if err := KernelDefault.PanelLU(lu, 0, npiv, 1e-14); err != nil {
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

// TestKernelSIMDMasterPanel pins the SIMD LU master panel on a front of
// several panels whose order is not a multiple of the vector width: the
// 1D factorization (Kernel.PanelLU, then LUApplyRows) equals the 2D one
// (PanelLUTile, Kernel.LUPanelTrailing over ragged column tiles, then
// LUSolveRows and LUUpdateTile) bit for bit, the assembly path equals the
// portable one, and the factors reproduce the front to the residual
// tolerance of TestKernelSIMDResidual.
func TestKernelSIMDMasterPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const n, npiv, b = 83, 57, 16 // four panels, the last one ragged
	a := randomDiagDominant(n, rng)
	sparsify(a, 0.3, false, rng)

	oneD := cloneM(a)
	if err := KernelSIMD.PartialLU(oneD, npiv, 1e-14, b); err != nil {
		t.Fatal(err)
	}
	twoD := cloneM(a)
	for k0 := 0; k0 < npiv; k0 += b {
		k1 := min(k0+b, npiv)
		if err := PanelLUTile(twoD, k0, k1, 1e-14); err != nil {
			t.Fatal(err)
		}
		for c0 := k1; c0 < n; c0 += 7 {
			KernelSIMD.LUPanelTrailing(twoD, k0, k1, c0, min(c0+7, n))
		}
		for r0 := k1; r0 < n; r0 += 11 {
			KernelSIMD.LUSolveRows(twoD, k0, k1, r0, min(r0+11, n))
		}
		for r0 := k1; r0 < n; r0 += 13 {
			for c0 := k1; c0 < n; c0 += 9 {
				KernelSIMD.LUUpdateTile(twoD, k0, k1, r0, min(r0+13, n), c0, min(c0+9, n))
			}
		}
	}
	bitsEqual(t, "simd LU 1D vs 2D", oneD, twoD)

	if simdHW {
		was := simdEnabled
		simdEnabled = !was
		other := cloneM(a)
		err := KernelSIMD.PartialLU(other, npiv, 1e-14, b)
		simdEnabled = was
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "simd LU asm-vs-portable", oneD, other)
	}

	// Residual: unit-lower L times U over the pivots, plus the Schur
	// complement in the trailing block, reproduces the front.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < min(npiv, i+1, j+1); k++ {
				l := oneD.At(i, k)
				if k == i {
					l = 1
				}
				s += l * oneD.At(k, j)
			}
			if i >= npiv && j >= npiv {
				s += oneD.At(i, j)
			}
			if d := math.Abs(s - a.At(i, j)); d > 1e-9*(1+math.Abs(a.At(i, j))) {
				t.Fatalf("simd LU reconstruction (%d,%d): %g vs %g", i, j, s, a.At(i, j))
			}
		}
	}
}

// TestKernelSIMDSolveRowsGrouping pins the L-tile solve's pivot grouping
// as bit-neutral: at every panel width (four-pivot groups plus every tail
// length), LUSolveRows equals a pivot-by-pivot sweep of single FMAs.
func TestKernelSIMDSolveRowsGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const n = 40
	for kw := 1; kw <= 11; kw++ {
		a := randomDiagDominant(n, rng)
		if err := KernelDefault.PanelLU(a, 0, kw, 1e-14); err != nil {
			t.Fatal(err)
		}
		want := cloneM(a)
		for i := kw; i < n; i++ {
			for k := 0; k < kw; k++ {
				l := want.At(i, k) * (1 / want.At(k, k))
				want.Set(i, k, l)
				for j := k + 1; j < kw; j++ {
					want.Set(i, j, math.FMA(-l, want.At(k, j), want.At(i, j)))
				}
			}
		}
		got := cloneM(a)
		KernelSIMD.LUSolveRows(got, 0, kw, kw, n)
		bitsEqual(t, fmt.Sprintf("simd L-tile solve, panel width %d", kw), want, got)
	}
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

	kernels := []struct {
		name string
		m    *Matrix
	}{{"fwdLU", L}, {"fwdChol", L}, {"bwdLU", U}, {"bwdChol", L}}
	for _, kc := range kernels {
		def := cloneM(W0)
		solveKernel(t, rng, KernelDefault, kc.name, kc.m, npiv, def)
		simd := cloneM(W0)
		solveKernel(t, rng, KernelSIMD, kc.name, kc.m, npiv, simd)
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
			solveKernel(t, rng, KernelSIMD, kc.name, kc.m, npiv, w1)
			for i := 0; i < f; i++ {
				if math.Float64bits(w1.A[i]) != math.Float64bits(simd.At(i, c)) {
					t.Fatalf("%s: col %d row %d differs single-RHS vs batch", kc.name, c, i)
				}
			}
		}
	}
}

// chainSolveRef is the per-element specification of the SIMD solves:
// every element (i, c) is one math.FMA chain over its sources in
// ascending order, then the division by the stored diagonal where there
// is one. coef(i, k) is the coefficient of source row k in row i's chain.
func chainSolveRef(W *Matrix, npiv int, forward, divide bool, coef func(i, k int) float64) {
	n, m := W.R, W.C
	solveRow := func(i, k0, k1 int, divide bool) {
		for c := 0; c < m; c++ {
			w := W.At(i, c)
			for k := k0; k < k1; k++ {
				w = math.FMA(-coef(i, k), W.At(k, c), w)
			}
			if divide {
				w /= coef(i, i)
			}
			W.Set(i, c, w)
		}
	}
	if forward {
		for i := 0; i < n; i++ {
			solveRow(i, 0, min(i, npiv), divide && i < npiv)
		}
		return
	}
	for k := npiv - 1; k >= 0; k-- {
		solveRow(k, k+1, n, divide)
	}
}

// TestKernelSIMDSolveChains pins the four SIMD solve kernels bit for bit
// against chainSolveRef on both the vector and the portable path, over
// front orders below and above the 4-row group, npiv from 0 to f, and
// nrhs 1-17 (every 16/8/4 column block of the chain primitives and
// every scalar tail width).
func TestKernelSIMDSolveChains(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	paths := []struct {
		name  string
		force func(*testing.T)
	}{{"vector", forceVector}, {"portable", forcePortable}}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			path.force(t)
			for _, f := range []int{1, 2, 3, 5, 9, 14} {
				for _, npiv := range []int{0, 1, f / 2, f - 1, f} {
					checkSolveChains(t, rng, f, npiv)
				}
			}
		})
	}
}

// checkSolveChains runs the four SIMD solves of one f x npiv front at
// nrhs 1-17 against chainSolveRef.
func checkSolveChains(t *testing.T, rng *rand.Rand, f, npiv int) {
	t.Helper()
	// Factor pieces in the store's shapes: L is f x npiv, U is npiv x f;
	// zeros exercise the dense (no skip) chains.
	L, U := New(f, npiv), New(npiv, f)
	for _, m := range []*Matrix{L, U} {
		for i := range m.A {
			if rng.Float64() > 0.2 {
				m.A[i] = rng.NormFloat64()
			}
		}
	}
	for k := 0; k < npiv; k++ {
		L.Set(k, k, 2+rng.Float64())
		U.Set(k, k, 2+rng.Float64())
	}
	cases := []struct {
		name            string
		m               *Matrix
		forward, divide bool
		coef            func(i, k int) float64
	}{
		{"fwdLU", L, true, false, L.At},
		{"fwdChol", L, true, true, L.At},
		{"bwdLU", U, false, true, U.At},
		{"bwdChol", L, false, true, func(i, k int) float64 { return L.At(k, i) }},
	}
	for nrhs := 1; nrhs <= 17; nrhs++ {
		W0 := New(f, nrhs)
		for i := range W0.A {
			W0.A[i] = rng.NormFloat64()
		}
		for _, kc := range cases {
			got, want := cloneM(W0), cloneM(W0)
			solveKernel(t, rng, KernelSIMD, kc.name, kc.m, npiv, got)
			chainSolveRef(want, npiv, kc.forward, kc.divide, kc.coef)
			for i := range got.A {
				if math.Float64bits(got.A[i]) != math.Float64bits(want.A[i]) {
					t.Fatalf("%s f=%d npiv=%d nrhs=%d: element (%d,%d) = %v, reference %v",
						kc.name, f, npiv, nrhs, i/nrhs, i%nrhs, got.A[i], want.A[i])
				}
			}
		}
	}
}

// TestKernelSIMDZeroAlloc pins the SIMD kernels' steady-state stack
// discipline: default-width panels, and the four solve kernels at 1, 8
// and 16 right-hand sides, run without a single heap allocation.
func TestKernelSIMDZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n, npiv := 160, 32
	lu := randomDiagDominant(n, rng)
	// The master panel at DefaultBlockRows re-eliminates a fresh copy of
	// the front each run, so its pivots never drift.
	front, master := cloneM(lu), cloneM(lu)
	if err := KernelDefault.PanelLU(lu, 0, npiv, 1e-14); err != nil {
		t.Fatal(err)
	}
	ch := randomSPD(n, rng)
	if err := PanelCholesky(ch, 0, npiv); err != nil {
		t.Fatal(err)
	}
	CholeskyScaleRows(ch, 0, npiv, npiv, n)
	// Each panel in the solve's layout: the pivot rows on top of a block
	// whose CB rows lie in runs with gaps, and the CB rows gathered.
	type solvePanel struct {
		P, C Matrix
		x    []float64
		rows []int
	}
	var panels []solvePanel
	for _, nrhs := range []int{1, 8, 16} {
		W := New(n, nrhs)
		for i := range W.A {
			W.A[i] = rng.NormFloat64()
		}
		x, rows := spread(rng, W, npiv)
		panels = append(panels, solvePanel{
			P: Matrix{R: npiv, C: nrhs, A: x[:npiv*nrhs]}, C: Matrix{R: n - npiv, C: nrhs, A: W.A[npiv*nrhs:]},
			x: x, rows: rows,
		})
	}
	allocs := testing.AllocsPerRun(10, func() {
		copy(master.A, front.A)
		if err := KernelSIMD.PanelLU(master, 0, DefaultBlockRows, 1e-14); err != nil {
			t.Fatal(err)
		}
		copy(master.A, front.A)
		if err := PanelLUTile(master, 0, DefaultBlockRows, 1e-14); err != nil {
			t.Fatal(err)
		}
		KernelSIMD.LUPanelTrailing(master, 0, DefaultBlockRows, DefaultBlockRows, n)
		KernelSIMD.LUApplyRows(lu, 0, npiv, npiv, n)
		KernelSIMD.LUSolveRows(lu, 0, npiv, npiv, n)
		KernelSIMD.LUUpdateTile(lu, 0, npiv, npiv, n, npiv, n)
		KernelSIMD.CholeskyUpdateRows(ch, 0, npiv, npiv, n)
		KernelSIMD.CholeskyUpdateTile(ch, 0, npiv, npiv, n, npiv+4, n-4)
		for i := range panels {
			sp := &panels[i]
			KernelSIMD.SolveForwardLU(lu, &sp.P, sp.x, sp.rows)
			KernelSIMD.SolveBackwardLU(lu, &sp.P, &sp.C)
			KernelSIMD.SolveForwardCholesky(ch, &sp.P, sp.x, sp.rows)
			KernelSIMD.SolveBackwardCholesky(ch, &sp.P, &sp.C)
		}
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
		"default": KernelDefault, "DEFAULT": KernelDefault,
		"simd": KernelSIMD, "SIMD": KernelSIMD,
		"auto": KernelAuto, "Auto": KernelAuto,
	}
	for s, want := range good {
		got, err := ParseKernel(s)
		if err != nil || got != want {
			t.Fatalf("ParseKernel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "fast", "Fast", "turbo", "simd2", "none", "fastest"} {
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
