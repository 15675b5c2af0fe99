package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sparsify zeroes a fraction of the off-diagonal entries (symmetrically for
// SPD inputs) so the kernels' zero-skip short-circuits are exercised — an
// assembled front is full of structural zeros, and the default kernels must
// replicate the element-wise kernels' skips bit for bit.
func sparsify(m *Matrix, frac float64, sym bool, rng *rand.Rand) {
	for i := 0; i < m.R; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < frac {
				m.Set(i, j, 0)
				if sym {
					m.Set(j, i, 0)
				}
			}
		}
	}
	if sym {
		// Restore diagonal dominance so the matrix stays SPD.
		for i := 0; i < m.R; i++ {
			var s float64
			for j := 0; j < m.R; j++ {
				if j != i {
					s += math.Abs(m.At(i, j))
				}
			}
			m.Set(i, i, s+1)
		}
	}
}

func bitsEqual(t *testing.T, name string, a, b *Matrix) {
	t.Helper()
	for p := range a.A {
		if math.Float64bits(a.A[p]) != math.Float64bits(b.A[p]) {
			t.Fatalf("%s: entry %d differs bitwise: %g (%#x) vs %g (%#x)",
				name, p, a.A[p], math.Float64bits(a.A[p]), b.A[p], math.Float64bits(b.A[p]))
		}
	}
}

// lowerBitsEqual compares the lower triangle (the part a symmetric partial
// factorization defines) bit for bit.
func lowerBitsEqual(t *testing.T, name string, a, b *Matrix) {
	t.Helper()
	for i := 0; i < a.R; i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				t.Fatalf("%s: (%d,%d) %g vs %g", name, i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

// TestKernelDefaultLUBitwise pins the dispatch layer's headline guarantee:
// the register-blocked default kernels perform the reference per-element
// operation order, so Kernel.PartialLU is bitwise identical to the
// element-wise PartialLU at every panel width.
func TestKernelDefaultLUBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 17, 40, 73, 129} {
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
			for _, block := range []int{1, 3, 8, 64, n, 2 * n} {
				got := cloneM(a)
				if err := KernelDefault.PartialLU(got, npiv, 1e-14, block); err != nil {
					t.Fatalf("n=%d npiv=%d block=%d: %v", n, npiv, block, err)
				}
				bitsEqual(t, "KernelDefault LU", ref, got)
			}
		}
	}
}

// TestKernelDefaultCholeskyBitwise is the symmetric counterpart: the
// register-blocked trailing update (gathered skip pattern, 4x1 row tiles)
// replays PartialCholesky bit for bit.
func TestKernelDefaultCholeskyBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 6, 19, 33, 50, 90} {
		for _, npiv := range []int{0, 1, n / 2, n} {
			a := randomSPD(n, rng)
			sparsify(a, 0.5, true, rng)
			ref := cloneM(a)
			if err := PartialCholesky(ref, npiv); err != nil {
				t.Fatal(err)
			}
			for _, block := range []int{1, 4, 7, 64, n, 3 * n} {
				got := cloneM(a)
				if err := KernelDefault.PartialCholesky(got, npiv, block); err != nil {
					t.Fatalf("n=%d npiv=%d block=%d: %v", n, npiv, block, err)
				}
				lowerBitsEqual(t, fmt.Sprintf("n=%d npiv=%d block=%d", n, npiv, block), ref, got)
			}
		}
	}
}

// TestKernelDefaultRowKernelsBitwise exercises the default row kernels
// directly over ragged row partitions — the unit the within-front
// executor schedules — against the element-wise kernels run with the
// same npiv pivots.
func TestKernelDefaultRowKernelsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, npiv := 61, 24
	lu := randomDiagDominant(n, rng)
	sparsify(lu, 0.3, false, rng)
	ref := cloneM(lu)
	if err := PartialLU(ref, npiv, 1e-14); err != nil {
		t.Fatal(err)
	}
	got := cloneM(lu)
	if err := KernelDefault.PanelLU(got, 0, npiv, 1e-14); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{npiv, npiv + 1}, {npiv + 1, 40}, {40, 40}, {40, n}} {
		KernelDefault.LUApplyRows(got, 0, npiv, r[0], r[1])
	}
	bitsEqual(t, "LUApplyRows RB", ref, got)

	ch := randomSPD(n, rng)
	sparsify(ch, 0.5, true, rng)
	refC := cloneM(ch)
	if err := PartialCholesky(refC, npiv); err != nil {
		t.Fatal(err)
	}
	gotC := cloneM(ch)
	if err := PanelCholesky(gotC, 0, npiv); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{npiv, 33}, {33, n}} {
		CholeskyScaleRows(gotC, 0, npiv, r[0], r[1])
	}
	for _, r := range [][2]int{{npiv, 30}, {30, 31}, {31, n}} {
		KernelDefault.CholeskyUpdateRows(gotC, 0, npiv, r[0], r[1])
	}
	lowerBitsEqual(t, "cholesky RB", refC, gotC)
}

// TestCholeskyScaleRowsBitwise pins the one scale-phase kernel against the
// element-wise PartialCholesky at panel widths on both sides of the
// stack-scratch bound (scaleStackPanel): a single panel of width kw,
// scaled over two row blocks and then updated, reproduces the element-wise
// factorization with kw pivots bit for bit.
func TestCholeskyScaleRowsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, kw := range []int{1, 16, scaleStackPanel, scaleStackPanel + 1, 200} {
		n := kw + 29
		a := randomSPD(n, rng)
		sparsify(a, 0.5, true, rng)
		ref := cloneM(a)
		if err := PartialCholesky(ref, kw); err != nil {
			t.Fatal(err)
		}
		got := cloneM(a)
		if err := PanelCholesky(got, 0, kw); err != nil {
			t.Fatal(err)
		}
		CholeskyScaleRows(got, 0, kw, kw, kw+11)
		CholeskyScaleRows(got, 0, kw, kw+11, n)
		KernelDefault.CholeskyUpdateRows(got, 0, kw, kw, n)
		lowerBitsEqual(t, fmt.Sprintf("scale rows kw=%d", kw), ref, got)
	}
}

// TestBlockedPartitionInvariance checks that the row grouping does not
// affect the bits: applying a panel row by row, in one big block, or in
// ragged blocks gives identical trailing matrices, equal to the
// element-wise kernel's. This is the property the within-front parallel
// executor relies on for determinism across worker counts.
func TestBlockedPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n, npiv := 31, 12
	a := randomDiagDominant(n, rng)
	sparsify(a, 0.3, false, rng)

	factor := func(rowBlocks []int) *Matrix { // rowBlocks: boundaries after npiv
		f := cloneM(a)
		if err := KernelDefault.PanelLU(f, 0, npiv, 1e-14); err != nil {
			t.Fatal(err)
		}
		prev := npiv
		for _, b := range rowBlocks {
			KernelDefault.LUApplyRows(f, 0, npiv, prev, b)
			prev = b
		}
		KernelDefault.LUApplyRows(f, 0, npiv, prev, n)
		return f
	}
	ref := factor(nil)
	bitsEqual(t, "ragged", ref, factor([]int{npiv + 1, npiv + 2, 20, 27}))
	perRow := make([]int, 0, n-npiv)
	for r := npiv + 1; r < n; r++ {
		perRow = append(perRow, r)
	}
	bitsEqual(t, "per-row", ref, factor(perRow))

	naive := cloneM(a)
	if err := PartialLU(naive, npiv, 1e-14); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "vs-naive", naive, ref)
}

// TestBlockedResidual validates the numerics end to end: a full blocked LU
// through the default family solves a random system to machine-level
// residual.
func TestBlockedResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n := 48
	a := randomDiagDominant(n, rng)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	MatVec(a, x, b, 1)
	lu := cloneM(a)
	if err := KernelDefault.PartialLU(lu, n, 1e-14, 8); err != nil {
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
			t.Fatalf("solve off at %d: %g vs %g", i, y[i], x[i])
		}
	}
}

// TestBlockedErrors covers the validation and failure paths of the
// blocked PartialLU/PartialCholesky of both families.
func TestBlockedErrors(t *testing.T) {
	for _, kern := range []Kernel{KernelDefault, KernelSIMD} {
		if err := kern.PartialLU(&Matrix{R: 2, C: 3, A: make([]float64, 6)}, 1, 0, 4); err == nil {
			t.Errorf("%v: non-square accepted", kern)
		}
		if err := kern.PartialLU(New(3, 3), 5, 0, 4); err == nil {
			t.Errorf("%v: npiv out of range accepted", kern)
		}
		if err := kern.PartialLU(New(2, 2), 2, 1e-14, 4); err == nil {
			t.Errorf("%v: zero pivot accepted", kern)
		}
		f := New(2, 2)
		f.Set(0, 0, -1)
		if err := kern.PartialCholesky(f, 2, 4); err == nil {
			t.Errorf("%v: negative diagonal accepted", kern)
		}
		if err := kern.PartialCholesky(New(3, 3), -1, 4); err == nil {
			t.Errorf("%v: negative npiv accepted", kern)
		}
	}
}

// TestBlockedKernelsZeroAlloc pins the default row kernels' stack
// discipline: at the default panel width, the row kernels and the shared
// scale phase — what the 1D executor calls per row block — run without a
// single heap allocation.
func TestBlockedKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n, npiv := 192, DefaultBlockRows
	lu := randomDiagDominant(n, rng)
	if err := KernelDefault.PanelLU(lu, 0, npiv, 1e-14); err != nil {
		t.Fatal(err)
	}
	ch := randomSPD(n, rng)
	if err := PanelCholesky(ch, 0, npiv); err != nil {
		t.Fatal(err)
	}
	CholeskyScaleRows(ch, 0, npiv, npiv, n)
	allocs := testing.AllocsPerRun(10, func() {
		KernelDefault.LUApplyRows(lu, 0, npiv, npiv, n)
		CholeskyScaleRows(ch, 0, npiv, npiv, n)
		KernelDefault.CholeskyUpdateRows(ch, 0, npiv, npiv, n)
	})
	if allocs != 0 {
		t.Fatalf("default row kernels allocate %v per run, want 0", allocs)
	}
}

// referenceExtendAdd is the pre-run-merge element-wise scatter, kept as
// the oracle for the run-merged implementation.
func referenceExtendAdd(f *Matrix, cb *Matrix, map_ []int, lower bool) {
	for i := 0; i < cb.R; i++ {
		fRow := f.Row(map_[i])
		cbRow := cb.Row(i)
		jmax := cb.C
		if lower {
			jmax = i + 1
		}
		for j := 0; j < jmax; j++ {
			fRow[map_[j]] += cbRow[j]
		}
	}
}

// TestExtendAddRunsMatchesScatter checks the run-merged extend-add against
// the element-wise oracle over maps with every run shape: singletons, long
// consecutive stretches, and mixes, for both the full and the lower
// scatter.
func TestExtendAddRunsMatchesScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		nf := 8 + rng.Intn(40)
		// Build an increasing map with random run structure.
		var map_ []int
		next := rng.Intn(3)
		for next < nf {
			map_ = append(map_, next)
			if rng.Float64() < 0.6 {
				next++ // extend the run
			} else {
				next += 2 + rng.Intn(3) // break it
			}
		}
		if len(map_) == 0 {
			continue
		}
		cb := New(len(map_), len(map_))
		for i := range cb.A {
			cb.A[i] = rng.NormFloat64()
		}
		for _, lower := range []bool{false, true} {
			want := New(nf, nf)
			got := New(nf, nf)
			for i := range want.A {
				v := rng.NormFloat64()
				want.A[i], got.A[i] = v, v
			}
			referenceExtendAdd(want, cb, map_, lower)
			if lower {
				ExtendAddLower(got, cb, map_)
			} else {
				ExtendAdd(got, cb, map_)
			}
			bitsEqual(t, "extend-add runs", want, got)
		}
	}
}

// TestAppendRuns covers the run detector's edge shapes directly.
func TestAppendRuns(t *testing.T) {
	cases := []struct {
		map_ []int
		want []IndexRun
	}{
		{nil, nil},
		{[]int{4}, []IndexRun{{0, 4, 1}}},
		{[]int{1, 2, 3}, []IndexRun{{0, 1, 3}}},
		{[]int{0, 2, 4}, []IndexRun{{0, 0, 1}, {1, 2, 1}, {2, 4, 1}}},
		{[]int{3, 4, 8, 9, 10, 12}, []IndexRun{{0, 3, 2}, {2, 8, 3}, {5, 12, 1}}},
	}
	for _, c := range cases {
		got := AppendRuns(nil, c.map_)
		if len(got) != len(c.want) {
			t.Fatalf("map %v: runs %v, want %v", c.map_, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("map %v: run %d = %v, want %v", c.map_, i, got[i], c.want[i])
			}
		}
	}
}
