package front

import (
	"math"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// Direct tests of the forward/backward solve walk on hand-crafted fronts:
// no executor, no assembly — the factor blocks are written down
// explicitly and the results checked against pencil-and-paper (or dense
// reference) substitution. This pins the solve semantics the executors
// rely on: Cholesky fronts divide by the stored diagonal in both passes,
// LU fronts use the unit-lower L forward and U (with its diagonal)
// backward, and each front touches exactly its tree rows.

// mat builds a dense matrix from rows.
func mat(rows [][]float64) *dense.Matrix {
	m := dense.New(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// solverOf is the default-family Solver over the in-core store fs.
func solverOf(fs *Factors) *Solver {
	return NewSolver(fs, fs.Layout.Tree, fs.Layout.Kind, dense.KernelDefault)
}

// setNode writes node ni's factor parts: L, and U when non-nil.
func setNode(fs *Factors, ni int, L, U *dense.Matrix) {
	copy(fs.Block(ni, PartL), L.A)
	if U != nil {
		copy(fs.Block(ni, PartU), U.A)
	}
}

// oneNodeTree is a single front owning all n pivots.
func oneNodeTree(n int, kind sparse.Type) *assembly.Tree {
	return &assembly.Tree{
		Nodes: []assembly.Node{{ID: 0, Parent: -1, Begin: 0, End: n}},
		Roots: []int{0},
		N:     n,
		Kind:  kind,
	}
}

// TestSolveCraftedCholeskySingleFront: L = [[2,0],[1,1]], so A = L·Lᵀ =
// [[4,2],[2,2]]. For b = (4,2): forward y = L⁻¹b = (2,0), backward
// x = L⁻ᵀy = (1,0) — exactly representable, so the comparison is exact.
func TestSolveCraftedCholeskySingleFront(t *testing.T) {
	tree := oneNodeTree(2, sparse.Symmetric)
	fs := NewFactors(NewLayout(tree, sparse.Symmetric))
	setNode(fs, 0, mat([][]float64{{2, 0}, {1, 1}}), nil)
	x, err := solverOf(fs).SolveOriginalMulti([]float64{4, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || x[1] != 0 {
		t.Fatalf("x = %v, want [1 0]", x)
	}
}

// TestSolveCraftedLUSingleFront: unit-lower L (multipliers stored in the
// strict lower part of the L block, diagonal holds U's diagonal as the
// executors extract it) and upper U. A = L·U with
// L = [[1,0],[0.5,1]], U = [[2,4],[0,3]] → A = [[2,4],[1,5]].
// b = (2,4): y = L⁻¹b = (2,3), x = U⁻¹y = (-1,1). Exact.
func TestSolveCraftedLUSingleFront(t *testing.T) {
	tree := oneNodeTree(2, sparse.Unsymmetric)
	fs := NewFactors(NewLayout(tree, sparse.Unsymmetric))
	setNode(fs, 0, mat([][]float64{{2, 0}, {0.5, 3}}), mat([][]float64{{2, 4}, {0, 3}}))
	x, err := solverOf(fs).SolveOriginalMulti([]float64{2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != -1 || x[1] != 1 {
		t.Fatalf("x = %v, want [-1 1]", x)
	}
}

// twoNodeTree: node 0 owns pivot 0 with CB rows {1,2}; node 1 (root)
// owns pivots 1,2. The multifrontal L of a 3x3 matrix split across two
// fronts.
func twoNodeTree(kind sparse.Type) *assembly.Tree {
	return &assembly.Tree{
		Nodes: []assembly.Node{
			{ID: 0, Parent: 1, Begin: 0, End: 1, Rows: []int{1, 2}},
			{ID: 1, Parent: -1, Children: []int{0}, Begin: 1, End: 3},
		},
		Roots: []int{1},
		N:     3,
		Kind:  kind,
	}
}

// denseSolveLower solves L y = b (unit diagonal when unit is true).
func denseSolveLower(L *dense.Matrix, b []float64, unit bool) []float64 {
	y := append([]float64(nil), b...)
	for i := 0; i < L.R; i++ {
		for j := 0; j < i; j++ {
			y[i] -= L.At(i, j) * y[j]
		}
		if !unit {
			y[i] /= L.At(i, i)
		}
	}
	return y
}

// denseSolveUpper solves U x = y.
func denseSolveUpper(U *dense.Matrix, y []float64) []float64 {
	x := append([]float64(nil), y...)
	for i := U.R - 1; i >= 0; i-- {
		for j := i + 1; j < U.C; j++ {
			x[i] -= U.At(i, j) * x[j]
		}
		x[i] /= U.At(i, i)
	}
	return x
}

func transpose(m *dense.Matrix) *dense.Matrix {
	out := dense.New(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// TestSolveCraftedCholeskyTwoFronts scatters a global 3x3 lower factor
// across two fronts (pivot column 0 with its CB rows in the leaf, the
// 2x2 trailing block in the root) and checks the walk against dense
// forward/backward substitution with the assembled L.
func TestSolveCraftedCholeskyTwoFronts(t *testing.T) {
	tree := twoNodeTree(sparse.Symmetric)
	// Global L (lower):
	L := mat([][]float64{
		{2, 0, 0},
		{0.5, 3, 0},
		{-1, 0.25, 1.5},
	})
	fs := NewFactors(NewLayout(tree, sparse.Symmetric))
	setNode(fs, 0, mat([][]float64{{2}, {0.5}, {-1}}), nil)
	setNode(fs, 1, mat([][]float64{{3, 0}, {0.25, 1.5}}), nil)
	b := []float64{3, -1, 4}
	x, err := solverOf(fs).SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := denseSolveUpper(transpose(L), denseSolveLower(L, b, false))
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-14*(1+math.Abs(want[i])) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

// TestSolveCraftedLUTwoFronts is the unsymmetric version: unit-lower
// multipliers and an upper factor with diagonal, split the same way.
func TestSolveCraftedLUTwoFronts(t *testing.T) {
	tree := twoNodeTree(sparse.Unsymmetric)
	L := mat([][]float64{ // unit diagonal implied
		{1, 0, 0},
		{0.5, 1, 0},
		{-0.25, 0.4, 1},
	})
	U := mat([][]float64{
		{2, 1, -1},
		{0, 3, 0.5},
		{0, 0, 1.25},
	})
	fs := NewFactors(NewLayout(tree, sparse.Unsymmetric))
	// L diagonal holds U(0,0), as ExtractFactor stores it; the
	// unsymmetric walk never reads it.
	setNode(fs, 0, mat([][]float64{{2}, {0.5}, {-0.25}}), mat([][]float64{{2, 1, -1}}))
	setNode(fs, 1, mat([][]float64{{3, 0}, {0.4, 1.25}}), mat([][]float64{{3, 0.5}, {0, 1.25}}))
	b := []float64{1, 2, -1}
	x, err := solverOf(fs).SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := denseSolveUpper(U, denseSolveLower(L, b, true))
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-14*(1+math.Abs(want[i])) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

// TestSolveOriginalCraftedPermutation checks the permutation plumbing of
// SolveOriginalMulti on a crafted front: with Perm = [2,0,1]
// (new -> old), a right-hand side in original order must round-trip
// through the permuted solve — the solve of the tree without Perm — and
// come back in original order.
func TestSolveOriginalCraftedPermutation(t *testing.T) {
	tree := oneNodeTree(3, sparse.Symmetric)
	L := mat([][]float64{
		{1.5, 0, 0},
		{0.5, 2, 0},
		{0, -1, 1},
	})
	fs := NewFactors(NewLayout(tree, sparse.Symmetric))
	setNode(fs, 0, L, nil)

	pb := []float64{2, -3, 1} // permuted-space rhs
	px, err := solverOf(fs).SolveOriginalMulti(pb, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Scatter to original order and solve through the permutation.
	tree.Perm = []int{2, 0, 1}
	b := make([]float64, 3)
	wantX := make([]float64, 3)
	for newI, oldI := range tree.Perm {
		b[oldI] = pb[newI]
		wantX[oldI] = px[newI]
	}
	x, err := solverOf(fs).SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != wantX[i] {
			t.Fatalf("x = %v, want %v", x, wantX)
		}
	}
}

// TestSolveStoreErrors covers the argument-validation paths of the
// store-backed solves.
func TestSolveStoreErrors(t *testing.T) {
	tree := oneNodeTree(2, sparse.Symmetric)
	fs := NewFactors(NewLayout(tree, sparse.Symmetric))
	setNode(fs, 0, mat([][]float64{{1, 0}, {0, 1}}), nil)
	if _, err := NewSolver(nil, tree, sparse.Symmetric, dense.KernelDefault).SolveOriginalMulti([]float64{1, 2}, 1); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := solverOf(fs).SolveOriginalMulti([]float64{1}, 1); err == nil {
		t.Error("short rhs accepted")
	}
	if _, err := solverOf(fs).SolveOriginalMulti([]float64{1, 2, 3}, 1); err == nil {
		t.Error("long rhs accepted")
	}
}
