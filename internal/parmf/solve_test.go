package parmf_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/assembly"
	"repro/internal/front"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/seqmf"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// rhsBlock builds a deterministic n x nrhs row-major RHS block.
func rhsBlock(n, nrhs int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n*nrhs)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// col extracts column c of a row-major n x nrhs block.
func col(b []float64, n, nrhs, c int) []float64 {
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[i*nrhs+c]
	}
	return x
}

// assertBitsEqual fails on the first position where the two vectors
// differ in float bits.
func assertBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: bits differ at %d: %v != %v", what, i, got[i], want[i])
		}
	}
}

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
		sf, err := seqmf.Factorize(pa, tree, front.Options{BlockRows: -1}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, nrhs := range []int{1, 4} {
			b := rhsBlock(a.N, nrhs, 100+seed)
			// Sequential reference: one single-RHS solve per column.
			want := make([][]float64, nrhs)
			for c := 0; c < nrhs; c++ {
				want[c], err = sf.Solve(col(b, a.N, nrhs, c))
				if err != nil {
					t.Fatalf("seed %d: reference solve: %v", seed, err)
				}
			}
			for _, workers := range []int{1, 2, 8} {
				ts := parmf.NewTreeSolver(sf.Store(), tree, pa.Kind, workers, 0)
				x, err := ts.SolveMulti(b, nrhs)
				if err != nil {
					t.Fatalf("seed %d, %d workers, nrhs %d: %v", seed, workers, nrhs, err)
				}
				for c := 0; c < nrhs; c++ {
					assertBitsEqual(t, "parallel vs sequential column", col(x, a.N, nrhs, c), want[c])
				}
			}
		}
	}
}

// TestPropertySolveMultiSuite is the solve-phase acceptance property on
// every workload problem: the blocked multi-RHS solve equals nrhs
// repeated single-RHS solves bit-for-bit, tree-parallel solves at 1, 2
// and 8 workers equal the sequential one bit-for-bit, the same holds
// out-of-core (where the factors also round-trip disk exactly), and a
// k-RHS OOC solve streams the factor file exactly twice — one forward
// and one backward pass — instead of 2k times.
func TestPropertySolveMultiSuite(t *testing.T) {
	suite := workload.Suite()
	if testing.Short() {
		suite = workload.SmallSuite()
	}
	const nrhs = 3
	for _, p := range suite {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			a := p.Matrix()
			if !a.HasValues() {
				if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
					t.Fatal(err)
				}
			}
			tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
			assembly.SortChildrenLiu(tree)
			sf, err := seqmf.Factorize(pa, tree, front.Options{BlockRows: -1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			b := rhsBlock(a.N, nrhs, 99)
			want := make([][]float64, nrhs)
			for c := 0; c < nrhs; c++ {
				want[c], err = sf.Solve(col(b, a.N, nrhs, c))
				if err != nil {
					t.Fatal(err)
				}
			}
			// Blocked multi-RHS == repeated single-RHS, bit for bit.
			xm, err := sf.SolveMulti(b, nrhs)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < nrhs; c++ {
				assertBitsEqual(t, "multi vs single column", col(xm, a.N, nrhs, c), want[c])
			}
			// Tree-parallel at 1/2/8 workers == sequential, bit for bit.
			for _, workers := range []int{1, 2, 8} {
				ts := parmf.NewTreeSolver(sf.Store(), tree, pa.Kind, workers, 0)
				x, err := ts.SolveMulti(b, nrhs)
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				assertBitsEqual(t, "parallel vs sequential block", x, xm)
			}

			// Out-of-core: same bits, and one forward + one backward
			// block stream total for the whole k-RHS block.
			st, err := ooc.NewFileStore(ooc.Options{BufferEntries: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			of, err := seqmf.Factorize(pa, tree, front.Options{BlockRows: -1}, st)
			if err != nil {
				t.Fatal(err)
			}
			before := st.Stats()
			xo, err := of.SolveMulti(b, nrhs)
			if err != nil {
				t.Fatal(err)
			}
			after := st.Stats()
			assertBitsEqual(t, "ooc vs in-core block", xo, xm)
			reads := after.BlocksRead - before.BlocksRead
			direct := after.DirectReads - before.DirectReads
			blocks := int64(after.Blocks)
			if reads < 2*blocks {
				t.Fatalf("k-RHS solve read %d blocks, want at least 2 passes over %d", reads, blocks)
			}
			if reads > 2*blocks+direct {
				t.Fatalf("k-RHS solve read %d blocks over %d spilled (+%d direct): re-streaming per RHS?",
					reads, blocks, direct)
			}
			// Tree-parallel against the file store too.
			for _, workers := range []int{2, 8} {
				x, err := parmf.NewTreeSolver(st, tree, pa.Kind, workers, 0).SolveMulti(b, nrhs)
				if err != nil {
					t.Fatalf("ooc %d workers: %v", workers, err)
				}
				assertBitsEqual(t, "ooc parallel block", x, xm)
			}
		})
	}
}

// TestFactorsSolveMulti covers the executor-level multi-RHS entry
// points: parmf.Factors.SolveMulti/SolveOriginalMulti against seqmf's,
// and both against repeated single-RHS SolveOriginal (the ordering
// round-trip included).
func TestFactorsSolveMulti(t *testing.T) {
	a := randomProblem(3)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
	assembly.SortChildrenLiu(tree)
	sf, err := seqmf.Factorize(pa, tree, front.Options{BlockRows: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := parmf.Factorize(pa, tree, parmf.DefaultConfig(4), front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const nrhs = 5
	b := rhsBlock(a.N, nrhs, 17)
	want := make([][]float64, nrhs)
	for c := 0; c < nrhs; c++ {
		want[c], err = sf.SolveOriginal(col(b, a.N, nrhs, c))
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
		assertBitsEqual(t, "seqmf multi column", col(xs, a.N, nrhs, c), want[c])
	}
	assertBitsEqual(t, "parmf vs seqmf block", xp, xs)
}

// TestTreeSolverValidation checks every tree-parallel entry point
// rejects malformed RHS blocks with a descriptive error.
func TestTreeSolverValidation(t *testing.T) {
	a := randomProblem(2)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
	assembly.SortChildrenLiu(tree)
	pf, err := parmf.Factorize(pa, tree, parmf.DefaultConfig(2), front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := make([]float64, a.N)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"short rhs", func() error { _, err := pf.Solve(good[:a.N-1]); return err }},
		{"nil rhs", func() error { _, err := pf.SolveMulti(nil, 1); return err }},
		{"zero nrhs", func() error { _, err := pf.SolveMulti(good, 0); return err }},
		{"wrong block len", func() error { _, err := pf.SolveMulti(good, 2); return err }},
		{"original short", func() error { _, err := pf.SolveOriginal(good[:1]); return err }},
		{"original zero nrhs", func() error { _, err := pf.SolveOriginalMulti(good, -3); return err }},
		{"solver nil rhs", func() error { _, err := pf.Solver(2).SolveMulti(nil, 2); return err }},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}
