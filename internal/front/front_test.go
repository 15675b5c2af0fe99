package front

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/order"
	"repro/internal/sparse"
)

// walk factors the whole tree with the package primitives (the minimal
// sequential executor) and returns the completed Factors.
func walk(t *testing.T, pa *sparse.CSC, tree *assembly.Tree) *Factors {
	t.Helper()
	sh, err := NewShared(pa, tree)
	if err != nil {
		t.Fatal(err)
	}
	asm := NewAssembler(sh)
	fs := NewFactors(NewLayout(tree, pa.Kind))
	cbs := make([]*dense.Matrix, tree.Len())
	for _, ni := range tree.Postorder() {
		nd := &tree.Nodes[ni]
		asm.Begin(ni)
		fr := dense.New(nd.NFront(), nd.NFront())
		if err := asm.Scatter(ni, fr); err != nil {
			t.Fatal(err)
		}
		for _, c := range nd.Children {
			if _, err := asm.ExtendAdd(ni, fr, c, cbs[c]); err != nil {
				t.Fatal(err)
			}
			cbs[c] = nil
		}
		if err := Eliminate(fr, nd.NPiv(), pa.Kind, 1e-12); err != nil {
			t.Fatal(err)
		}
		var U []float64
		if pa.Kind == sparse.Unsymmetric {
			U = fs.Block(ni, PartU)
		}
		extract(fr, nd.NPiv(), pa.Kind, fs.Block(ni, PartL), U)
		cbs[ni] = ExtractCB(nil, fr, nd.NPiv(), nd.NCB(), pa.Kind)
	}
	return fs
}

func solveCheck(t *testing.T, a *sparse.CSC, m order.Method) {
	t.Helper()
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(m))
	assembly.SortChildrenLiu(tree)
	fs := walk(t, pa, tree)
	x0 := make([]float64, a.N)
	for i := range x0 {
		x0[i] = float64(i%5) - 2
	}
	b := a.MulVec(x0)
	x, err := solverOf(fs).SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-x0[i]) > 1e-7*(1+math.Abs(x0[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], x0[i])
		}
	}
}

func TestWalkSymmetric(t *testing.T) { solveCheck(t, sparse.Grid2D(9, 9), order.AMD) }

func TestWalkUnsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	solveCheck(t, sparse.Grid3DUnsym(4, 4, 4, rng), order.ND)
}

func TestNewSharedErrors(t *testing.T) {
	a := sparse.Grid2D(4, 4)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
	pat := pa.Clone()
	pat.Val = nil
	if _, err := NewShared(pat, tree); err == nil {
		t.Error("pattern-only matrix accepted")
	}
	small, _ := assembly.Analyze(sparse.Grid2D(2, 2), assembly.DefaultOptions(order.AMD))
	if _, err := NewShared(pa, small); err == nil {
		t.Error("mismatched tree accepted")
	}
}

// extract writes the factor block of f, both parts for kind, into L and
// U.
func extract(f *dense.Matrix, npiv int, kind sparse.Type, L, U []float64) {
	for p, dst := range [][]float64{L, U}[:Parts(kind)] {
		ExtractFactor(f, npiv, Part(p), 0, dst[:f.R*npiv])
	}
}

// TestExtractFactorMatchesElementwise pins the row-copy extraction
// against an element-by-element reference on random unsymmetric and
// symmetric fronts: L is the nf x npiv lower trapezoid, U the npiv x nf
// upper one, and every entry outside them is zero — written as zero, so
// a block extracted into a recycled buffer holds nothing of its past.
func TestExtractFactorMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const nf, npiv = 23, 9
	for _, kind := range []sparse.Type{sparse.Unsymmetric, sparse.Symmetric} {
		f := dense.New(nf, nf)
		for p := range f.A {
			f.A[p] = rng.NormFloat64()
		}
		blk := make([]float64, PartWords(nf, npiv)*int64(Parts(kind)))
		for p := range blk {
			blk[p] = math.NaN()
		}
		extract(f, npiv, kind, blk[:nf*npiv], blk[nf*npiv:])
		nd := &assembly.Node{End: npiv, Rows: make([]int, nf-npiv)}
		L, U := partView(nd, PartL, blk), dense.Matrix{}
		if kind == sparse.Unsymmetric {
			U = partView(nd, PartU, blk[nf*npiv:])
		}
		for i := 0; i < nf; i++ {
			for k := 0; k < npiv; k++ {
				want := 0.0
				if k <= i {
					want = f.At(i, k)
				}
				if math.Float64bits(L.At(i, k)) != math.Float64bits(want) {
					t.Fatalf("%v: L(%d,%d) = %g, want %g", kind, i, k, L.At(i, k), want)
				}
			}
		}
		if kind == sparse.Symmetric {
			if len(blk) != nf*npiv {
				t.Fatalf("symmetric front extracted a U factor")
			}
			continue
		}
		if U.R != npiv || U.C != nf {
			t.Fatalf("unsymmetric front: U %dx%d", U.R, U.C)
		}
		for k := 0; k < npiv; k++ {
			for j := 0; j < nf; j++ {
				want := 0.0
				if j >= k {
					want = f.At(k, j)
				}
				if math.Float64bits(U.At(k, j)) != math.Float64bits(want) {
					t.Fatalf("U(%d,%d) = %g, want %g", k, j, U.At(k, j), want)
				}
			}
		}
	}
}

// TestExtractFactorPiecewise: a part extracted piece by piece, cut
// anywhere (inside a row, on a row edge, one word at a time), has
// exactly the words of the part extracted in one call, over fronts whose
// pivots fill none, some or all of the rows.
func TestExtractFactorPiecewise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		nf := 1 + rng.Intn(12)
		npiv := []int{1, nf, 1 + rng.Intn(nf)}[trial%3]
		f := dense.New(nf, nf)
		for p := range f.A {
			f.A[p] = rng.NormFloat64()
		}
		n := nf * npiv
		whole := make([]float64, 2*n)
		extract(f, npiv, sparse.Unsymmetric, whole[:n], whole[n:])
		for p, want := range [][]float64{whole[:n], whole[n:]} {
			got := make([]float64, n)
			for i := range got {
				got[i] = math.NaN()
			}
			for lo := 0; lo < n; {
				hi := min(n, lo+1+rng.Intn([]int{1, 3, n}[rng.Intn(3)]))
				ExtractFactor(f, npiv, Part(p), lo, got[lo:hi])
				lo = hi
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("nf %d npiv %d part %v: word %d is %g, want %g", nf, npiv, Part(p), i, got[i], want[i])
				}
			}
		}
	}
}

// TestExtractFullFront checks that a front with npiv == n reproduces the
// plain dense factorization (L, and U for LU).
func TestExtractFullFront(t *testing.T) {
	n := 5
	f := dense.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 1.0 / float64(1+i+j)
			if i == j {
				v += float64(n)
			}
			f.Set(i, j, v)
		}
	}
	orig := dense.New(n, n)
	copy(orig.A, f.A)
	if err := Eliminate(f, n, sparse.Unsymmetric, 1e-12); err != nil {
		t.Fatal(err)
	}
	blk := make([]float64, 2*PartWords(n, n))
	extract(f, n, sparse.Unsymmetric, blk[:n*n], blk[n*n:])
	nd := &assembly.Node{End: n}
	L, U := partView(nd, PartL, blk), partView(nd, PartU, blk[n*n:])
	if U.A == nil {
		t.Fatal("LU extraction lost U")
	}
	// Recompose L*U (unit diagonal L) and compare with the original.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k <= i && k <= j; k++ {
				l := L.At(i, k)
				if k == i {
					l = 1
				}
				s += l * U.At(k, j)
			}
			if math.Abs(s-orig.At(i, j)) > 1e-12 {
				t.Fatalf("LU(%d,%d) = %g, want %g", i, j, s, orig.At(i, j))
			}
		}
	}
	if ExtractCB(nil, f, n, 0, sparse.Unsymmetric) != nil {
		t.Error("empty CB not nil")
	}
}
