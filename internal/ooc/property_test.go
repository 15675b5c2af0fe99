package ooc_test

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

// problemMatrix generates a suite problem and gives pattern-only analogues
// (GUPTA3's AAᵀ) deterministic diagonally dominant values.
func problemMatrix(t *testing.T, p workload.Problem) *sparse.CSC {
	t.Helper()
	a := p.Matrix()
	if !a.HasValues() {
		if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// TestOOCPropertySuite is the out-of-core acceptance property on every
// workload problem at 1, 2 and 8 workers:
//
//  1. the measured OOC resident peak never exceeds the in-core one (the
//     whole point of spilling factors), and
//  2. the OOC solve matches the in-core solve to 1e-12 — in fact the
//     factors round-trip disk bit-for-bit, so the comparison is strict.
func TestOOCPropertySuite(t *testing.T) {
	suite := workload.Suite()
	if testing.Short() {
		suite = workload.SmallSuite() // same 8 problems, test scale
	}
	for _, p := range suite {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			a := problemMatrix(t, p)
			tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
			assembly.SortChildrenLiu(tree)

			rng := rand.New(rand.NewSource(99))
			b := make([]float64, a.N)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			// Budget well below the factors area so spilling must matter.
			budget := assembly.TotalFactorEntries(tree) / 16
			if budget < 256 {
				budget = 256
			}

			for _, workers := range []int{1, 2, 8} {
				inc, err := parmf.Factorize(pa, tree, parmf.DefaultConfig(workers), front.Options{})
				if err != nil {
					t.Fatalf("%d workers in-core: %v", workers, err)
				}
				st, err := ooc.NewFileStore(ooc.Options{Dir: t.TempDir(), BufferEntries: budget})
				if err != nil {
					t.Fatal(err)
				}
				cfg := parmf.DefaultConfig(workers)
				cfg.Store = st
				of, err := parmf.Factorize(pa, tree, cfg, front.Options{})
				if err != nil {
					t.Fatalf("%d workers OOC: %v", workers, err)
				}

				if of.Stats.ResidentPeak > inc.Stats.ResidentPeak {
					t.Errorf("%d workers: OOC resident peak %d > in-core %d",
						workers, of.Stats.ResidentPeak, inc.Stats.ResidentPeak)
				}
				if of.Stats.FactorEntries != inc.Stats.FactorEntries {
					t.Errorf("%d workers: factor entries %d vs %d",
						workers, of.Stats.FactorEntries, inc.Stats.FactorEntries)
				}
				if got, want := st.Stats().Blocks, tree.Len(); got != want {
					t.Errorf("%d workers: spilled %d blocks, want %d", workers, got, want)
				}

				xi, err := inc.SolveOriginal(b)
				if err != nil {
					t.Fatalf("%d workers in-core solve: %v", workers, err)
				}
				xo, err := of.SolveOriginal(b)
				if err != nil {
					t.Fatalf("%d workers OOC solve: %v", workers, err)
				}
				for i := range xi {
					if d := math.Abs(xi[i] - xo[i]); d > 1e-12*(1+math.Abs(xi[i])) {
						t.Fatalf("%d workers: x[%d] = %g in-core vs %g OOC",
							workers, i, xi[i], xo[i])
					}
				}
				if err := of.Close(); err != nil {
					t.Errorf("%d workers: close: %v", workers, err)
				}
			}

			// Sequential executor through the file store: every factor
			// block on disk must be bitwise identical to the in-core one.
			sInc, err := seqmf.Factorize(pa, tree, front.Options{BlockRows: -1}, nil)
			if err != nil {
				t.Fatalf("seqmf in-core: %v", err)
			}
			st, err := ooc.NewFileStore(ooc.Options{Dir: t.TempDir(), BufferEntries: budget})
			if err != nil {
				t.Fatal(err)
			}
			sOOC, err := seqmf.Factorize(pa, tree, front.Options{BlockRows: -1}, st)
			if err != nil {
				t.Fatalf("seqmf OOC: %v", err)
			}
			defer sOOC.Close()
			if sOOC.Stats.ResidentPeak > sInc.Stats.ResidentPeak {
				t.Errorf("seq OOC resident peak %d > in-core %d",
					sOOC.Stats.ResidentPeak, sInc.Stats.ResidentPeak)
			}
			for ni := range tree.Nodes {
				want := sInc.Front().Node(ni)
				got, err := st.Fetch(ni)
				if err != nil {
					t.Fatalf("fetch node %d: %v", ni, err)
				}
				if got.NPiv != want.NPiv || len(got.Rows) != len(want.Rows) {
					t.Fatalf("node %d: shape mismatch", ni)
				}
				for p, v := range want.L.A {
					if got.L.A[p] != v {
						t.Fatalf("node %d: L[%d] %g vs %g (not bitwise identical)",
							ni, p, got.L.A[p], v)
					}
				}
				if want.U != nil {
					for p, v := range want.U.A {
						if got.U.A[p] != v {
							t.Fatalf("node %d: U[%d] %g vs %g", ni, p, got.U.A[p], v)
						}
					}
				}
				st.Release(ni)
			}
		})
	}
}
