package seqmf

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/assembly"
	"repro/internal/front"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// elementWise runs the walk on the element-wise reference kernels.
var elementWise = front.Options{BlockRows: -1}

func residual(a *sparse.CSC, x, b []float64) float64 {
	ax := a.MulVec(x)
	var rn, bn float64
	for i := range b {
		d := ax[i] - b[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	if bn == 0 {
		return math.Sqrt(rn)
	}
	return math.Sqrt(rn / bn)
}

func solveAndCheck(t *testing.T, a *sparse.CSC, m order.Method, tol float64) *Factors {
	t.Helper()
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(m))
	assembly.SortChildrenLiu(tree)
	f, err := Factorize(context.Background(), pa, tree, elementWise, nil)
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	rng := rand.New(rand.NewSource(99))
	b := make([]float64, a.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := f.SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); !(r <= tol) {
		t.Fatalf("%v: residual %g > %g", m, r, tol)
	}
	return f
}

func TestSolveSPDGridAllOrderings(t *testing.T) {
	a := sparse.Grid2D(12, 12)
	for _, m := range order.Methods {
		solveAndCheck(t, a, m, 1e-8)
	}
}

func TestSolveSPD3D(t *testing.T) {
	solveAndCheck(t, sparse.Grid3D(6, 6, 6), order.ND, 1e-8)
}

func TestSolveUnsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := sparse.Grid3DUnsym(5, 5, 5, rng)
	for _, m := range order.Methods {
		solveAndCheck(t, a, m, 1e-8)
	}
}

func TestSolveCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := sparse.CircuitUnsym(200, 150, 2, rng)
	solveAndCheck(t, a, order.AMD, 1e-7)
}

func TestSolveShell(t *testing.T) {
	solveAndCheck(t, sparse.Shell(6, 6, 3), order.PORD, 1e-8)
}

func TestMeasuredPeakMatchesModel(t *testing.T) {
	// The factorization's measured stack peak must equal the sequential
	// peak predicted by the assembly cost model with the same child order.
	for _, m := range []order.Method{order.AMD, order.ND} {
		a := sparse.Grid2D(10, 10)
		tree, pa := assembly.Analyze(a, assembly.DefaultOptions(m))
		peaks := assembly.SortChildrenLiu(tree)
		want := assembly.TreePeak(peaks, tree)
		f, err := Factorize(context.Background(), pa, tree, elementWise, nil)
		if err != nil {
			t.Fatal(err)
		}
		if f.Stats.PeakStack != want {
			t.Errorf("%v: measured peak %d != model %d", m, f.Stats.PeakStack, want)
		}
		if f.Stats.FinalStack != 0 {
			t.Errorf("%v: %d entries left on stack", m, f.Stats.FinalStack)
		}
	}
}

func TestFactorEntriesMatchModel(t *testing.T) {
	a := sparse.Grid2D(9, 9)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
	f, err := Factorize(context.Background(), pa, tree, elementWise, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.FactorEntries != assembly.TotalFactorEntries(tree) {
		t.Errorf("factor entries %d != model %d", f.Stats.FactorEntries, assembly.TotalFactorEntries(tree))
	}
	if f.Stats.Fronts != tree.Len() {
		t.Errorf("fronts %d != nodes %d", f.Stats.Fronts, tree.Len())
	}
}

func TestLiuOrderingReducesMeasuredPeak(t *testing.T) {
	// On a tree where Liu reordering helps, the *measured* peak must drop
	// accordingly (model and measurement move together).
	a := sparse.Grid3D(5, 5, 5)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMF))
	f1, err := Factorize(context.Background(), pa, tree, elementWise, nil)
	if err != nil {
		t.Fatal(err)
	}
	assembly.SortChildrenLiu(tree)
	f2, err := Factorize(context.Background(), pa, tree, elementWise, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Stats.PeakStack > f1.Stats.PeakStack {
		t.Errorf("Liu ordering increased measured peak: %d -> %d",
			f1.Stats.PeakStack, f2.Stats.PeakStack)
	}
}

func TestSolvePermutedVsOriginal(t *testing.T) {
	a := sparse.Grid2D(8, 8)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
	f, err := Factorize(context.Background(), pa, tree, elementWise, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	x, err := f.SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); !(r <= 1e-9) {
		t.Errorf("residual %g", r)
	}
}

func TestFactorizeErrors(t *testing.T) {
	a := sparse.Grid2D(4, 4)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
	pat := pa.Clone()
	pat.Val = nil
	if _, err := Factorize(context.Background(), pat, tree, elementWise, nil); err == nil {
		t.Error("pattern-only matrix accepted")
	}
	small, _ := assembly.Analyze(sparse.Grid2D(2, 2), assembly.DefaultOptions(order.AMD))
	if _, err := Factorize(context.Background(), pa, small, elementWise, nil); err == nil {
		t.Error("mismatched tree accepted")
	}
	f, err := Factorize(context.Background(), pa, tree, elementWise, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveOriginalMulti(make([]float64, 3), 1); err == nil {
		t.Error("short rhs accepted")
	}
}

func TestSolveOnSplitTree(t *testing.T) {
	// Numeric factorization must remain correct on a split tree (chain
	// links tile the same pivots).
	a := sparse.Grid2D(14, 14)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	nt, count := assembly.Split(tree, assembly.SplitOptions{MaxMasterEntries: 300, MinPiv: 3})
	if count == 0 {
		t.Skip("nothing split at this size")
	}
	f, err := Factorize(context.Background(), pa, nt, elementWise, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	x, err := f.SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); !(r <= 1e-8) {
		t.Errorf("split-tree residual %g", r)
	}
}

func TestSolvePropertyRandomSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(80)
		a := sparse.RandomSPDPattern(n, 3, rng)
		tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
		fac, err := Factorize(context.Background(), pa, tree, elementWise, nil)
		if err != nil {
			return false
		}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		b := a.MulVec(x0)
		x, err := fac.SolveOriginalMulti(b, 1)
		if err != nil {
			return false
		}
		for i := range x {
			if !(math.Abs(x[i]-x0[i]) <= 1e-6*(1+math.Abs(x0[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestFactorizeAllocsPerFront pins what the in-core store's one slab
// saves: before it, each front allocated a row list (Begin) and its L —
// and U when unsymmetric — as a matrix header plus its entries
// (ExtractFactor). parent is Factorize's allocation count on the same
// input then (go1.24, amd64); the slab must take at least perFront
// allocations per front off it.
func TestFactorizeAllocsPerFront(t *testing.T) {
	for _, c := range []struct {
		name     string
		parent   float64
		perFront float64
	}{{"SHIP_003", 862, 2}, {"PRE2", 2159, 3}} {
		p, err := workload.ByName(workload.SmallSuite(), c.name)
		if err != nil {
			t.Fatal(err)
		}
		tree, pa := assembly.Analyze(p.NumericMatrix(), assembly.DefaultOptions(order.ND))
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Factorize(context.Background(), pa, tree, front.Options{}, nil); err != nil {
				t.Fatal(err)
			}
		})
		if want := c.parent - c.perFront*float64(tree.Len()); allocs > want {
			t.Errorf("%s: %.0f allocations over %d fronts, want at most %.0f (%.0f before, less %.0f per front)",
				c.name, allocs, tree.Len(), want, c.parent, c.perFront)
		}
		t.Logf("%s: %.0f allocations over %d fronts (%.0f before)", c.name, allocs, tree.Len(), c.parent)
	}
}
