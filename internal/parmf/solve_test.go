package parmf_test

import (
	"context"
	"testing"

	"repro/internal/assembly"
	"repro/internal/difftest"
	"repro/internal/front"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/seqmf"
)

// TestTreeSolverBitwiseRandom checks the tree-parallel solve's core
// guarantee over random SPD and unsymmetric trees: at 1, 2 and 8
// workers, for 1 and several right-hand sides, the result is bitwise
// identical to the sequential single-RHS reference solve of every
// column (per-row postorder chains make the parallel update order exact,
// not just race-free).
func TestTreeSolverBitwiseRandom(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		a := randomProblem(seed)
		tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
		assembly.SortChildrenLiu(tree)
		sf, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{BlockRows: -1}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, nrhs := range []int{1, 4} {
			b := difftest.RHSBlock(a.N, nrhs, 100+seed)
			// Sequential reference: one single-RHS solve per column.
			want := make([][]float64, nrhs)
			for c := 0; c < nrhs; c++ {
				want[c], err = sf.SolveOriginalMulti(difftest.Col(b, a.N, nrhs, c), 1)
				if err != nil {
					t.Fatalf("seed %d: reference solve: %v", seed, err)
				}
			}
			for _, workers := range []int{1, 2, 8} {
				ts := parmf.NewTreeSolver(sf.Store(), tree, pa.Kind, workers, 0)
				x, err := ts.SolveOriginalMulti(b, nrhs)
				if err != nil {
					t.Fatalf("seed %d, %d workers, nrhs %d: %v", seed, workers, nrhs, err)
				}
				for c := 0; c < nrhs; c++ {
					if err := difftest.SameBits("parallel vs sequential column", difftest.Col(x, a.N, nrhs, c), want[c]); err != nil {
						t.Fatalf("seed %d, %d workers, nrhs %d: %v", seed, workers, nrhs, err)
					}
				}
			}
		}
	}
}

// TestFactorsSolveMulti covers the executor-level multi-RHS solve:
// parmf.Factors.SolveOriginalMulti against seqmf's, and seqmf's block
// against repeated single-column solves (the ordering round-trip
// included).
func TestFactorsSolveMulti(t *testing.T) {
	a := randomProblem(3)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
	assembly.SortChildrenLiu(tree)
	sf, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{BlockRows: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := parmf.Factorize(context.Background(), pa, tree, parmf.DefaultConfig(4), front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const nrhs = 5
	b := difftest.RHSBlock(a.N, nrhs, 17)
	want := make([][]float64, nrhs)
	for c := 0; c < nrhs; c++ {
		want[c], err = sf.SolveOriginalMulti(difftest.Col(b, a.N, nrhs, c), 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	xs, err := sf.SolveOriginalMulti(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	xp, err := pf.SolveOriginalMulti(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < nrhs; c++ {
		if err := difftest.SameBits("seqmf multi column", difftest.Col(xs, a.N, nrhs, c), want[c]); err != nil {
			t.Fatal(err)
		}
	}
	if err := difftest.SameBits("parmf vs seqmf block", xp, xs); err != nil {
		t.Fatal(err)
	}
}

// TestTreeSolverValidation checks the tree-parallel solve rejects
// malformed RHS blocks with a descriptive error, through the factors and
// through a solver of its own.
func TestTreeSolverValidation(t *testing.T) {
	a := randomProblem(2)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
	assembly.SortChildrenLiu(tree)
	pf, err := parmf.Factorize(context.Background(), pa, tree, parmf.DefaultConfig(2), front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := make([]float64, a.N)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"short rhs", func() error { _, err := pf.SolveOriginalMulti(good[:a.N-1], 1); return err }},
		{"nil rhs", func() error { _, err := pf.SolveOriginalMulti(nil, 1); return err }},
		{"zero nrhs", func() error { _, err := pf.SolveOriginalMulti(good, 0); return err }},
		{"wrong block len", func() error { _, err := pf.SolveOriginalMulti(good, 2); return err }},
		{"negative nrhs", func() error { _, err := pf.SolveOriginalMulti(good, -3); return err }},
		{"solver nil rhs", func() error { _, err := pf.Solver(2).SolveOriginalMulti(nil, 2); return err }},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}
