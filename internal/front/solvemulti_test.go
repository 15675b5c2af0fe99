package front

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// chainFactors builds a k-front chain tree (each node one pivot, CB row
// = next pivot) with well-conditioned Cholesky blocks — many small
// fronts, the shape that made the per-front gather allocations of the
// old scalar solve O(fronts) per pass.
func chainFactors(k int) (*assembly.Tree, *Factors) {
	nodes := make([]assembly.Node, k)
	for i := range nodes {
		nodes[i] = assembly.Node{ID: i, Parent: i + 1, Begin: i, End: i + 1, Rows: []int{i + 1}}
		if i > 0 {
			nodes[i].Children = []int{i - 1}
		}
	}
	nodes[k-1].Parent = -1
	nodes[k-1].Rows = nil
	tree := &assembly.Tree{Nodes: nodes, Roots: []int{k - 1}, N: k, Kind: sparse.Symmetric}
	fs := NewFactors(NewLayout(tree, sparse.Symmetric))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < k; i++ {
		if i == k-1 {
			setNode(fs, i, mat([][]float64{{2 + rng.Float64()}}), nil)
			continue
		}
		setNode(fs, i, mat([][]float64{{2 + rng.Float64()}, {rng.NormFloat64()}}), nil)
	}
	return tree, fs
}

// TestSolveMultiMatchesRepeatedSingle pins the tentpole contract at the
// front layer: a blocked nrhs-column solve equals nrhs independent
// single-RHS solves bit for bit (default kernels replay the scalar
// operation order per column).
func TestSolveMultiMatchesRepeatedSingle(t *testing.T) {
	_, fs := chainFactors(40)
	const n, nrhs = 40, 5
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, n*nrhs)
	for i := range b {
		if rng.Intn(5) == 0 {
			continue // exercise the forward zero-skip
		}
		b[i] = rng.NormFloat64()
	}
	x, err := solverOf(fs).SolveOriginalMulti(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < nrhs; c++ {
		bc := make([]float64, n)
		for i := 0; i < n; i++ {
			bc[i] = b[i*nrhs+c]
		}
		xc, err := solverOf(fs).SolveOriginalMulti(bc, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(x[i*nrhs+c]) != math.Float64bits(xc[i]) {
				t.Fatalf("col %d row %d: multi %v != single %v", c, i, x[i*nrhs+c], xc[i])
			}
		}
	}
}

// TestSolverAllocs pins the allocation profile of a warm Solver: the old
// walk allocated two gathers per front per pass plus the reverse-order
// slice every call; the Solver must allocate only the result block
// (O(1) allocations however many fronts).
func TestSolverAllocs(t *testing.T) {
	tree, fs := chainFactors(200)
	s := NewSolver(fs, tree, sparse.Symmetric, dense.KernelDefault)
	b := make([]float64, 200*2)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	if _, err := s.SolveOriginalMulti(b, 2); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.SolveOriginalMulti(b, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm solve allocates %.1f objects/op over 200 fronts; want <= 2 (result only, no per-front churn)", allocs)
	}
}

// TestSolveEntryPointValidation audits the package's solve entry point:
// wrong-length, nil and zero-nrhs right-hand sides must come back as
// descriptive errors, never reach a gather loop.
func TestSolveEntryPointValidation(t *testing.T) {
	tree, fs := chainFactors(4)
	s := NewSolver(fs, tree, sparse.Symmetric, dense.KernelDefault)
	good := make([]float64, 4)
	cases := []struct {
		name string
		run  func() error
	}{
		{"short", func() error { _, err := s.SolveOriginalMulti(good[:3], 1); return err }},
		{"long", func() error { _, err := s.SolveOriginalMulti(make([]float64, 9), 1); return err }},
		{"nil", func() error { _, err := s.SolveOriginalMulti(nil, 1); return err }},
		{"nil block", func() error { _, err := s.SolveOriginalMulti(nil, 2); return err }},
		{"zero nrhs", func() error { _, err := s.SolveOriginalMulti(good, 0); return err }},
		{"negative nrhs", func() error { _, err := s.SolveOriginalMulti(good, -1); return err }},
		{"bad block len", func() error { _, err := s.SolveOriginalMulti(good, 3); return err }},
		{"nil store", func() error {
			_, err := NewSolver(nil, tree, sparse.Symmetric, dense.KernelDefault).SolveOriginalMulti(good, 1)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: want descriptive error, got nil", tc.name)
		}
	}
}
