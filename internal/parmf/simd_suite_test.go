package parmf_test

import (
	"math/rand"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/seqmf"
	"repro/internal/workload"
)

// TestPropertySIMDSuite validates the SIMD kernel family the way it is
// specified, over every small-suite problem: (a) residual within
// 10x of the default factorization, (b) deterministic — the parallel SIMD
// factors are bitwise identical to the sequential SIMD ones at every
// worker count with both within-front paths enabled (type-2 row split and
// the type-3 2D root grid; the fused FMA chains compute the same bits
// whatever the partition), and (c) the out-of-core runs — sequential and
// parallel — produce solves bitwise identical to the in-core SIMD solve.
// On amd64 this runs the AVX2/FMA assembly when the CPU has it; the
// portable fallback computing the same bits is pinned separately by
// dense.TestKernelSIMDPortableBitwise.
func TestPropertySIMDSuite(t *testing.T) {
	suite := workload.SmallSuite()
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

			def, err := seqmf.Factorize(pa, tree, seqmf.DefaultOptions())
			if err != nil {
				t.Fatalf("seqmf default: %v", err)
			}
			xDef, err := def.SolveOriginal(b)
			if err != nil {
				t.Fatal(err)
			}
			rDef := residual(a, xDef, b)

			sopt := seqmf.DefaultOptions()
			sopt.Kernel = dense.KernelSIMD
			simd, err := seqmf.Factorize(pa, tree, sopt)
			if err != nil {
				t.Fatalf("seqmf simd: %v", err)
			}
			if simd.Stats.Kernel != "simd" {
				t.Fatalf("kernel stat %q, want simd", simd.Stats.Kernel)
			}
			xSIMD, err := simd.SolveOriginal(b)
			if err != nil {
				t.Fatal(err)
			}
			if rSIMD := residual(a, xSIMD, b); rSIMD > 10*rDef+1e-13 {
				t.Errorf("simd residual %g vs default %g (over 10x)", rSIMD, rDef)
			}

			// With no subtree roots configured every node is an individual
			// task, so at >1 worker the fronts of at least FrontSplit rows
			// (spanning more than one row block) run the master/slave split
			// path, and qualifying root fronts run the 2D tile grid.
			const frontSplit = 128
			wantSplit, wantRoot2D := false, false
			for i := range tree.Nodes {
				nf := tree.Nodes[i].NFront()
				if nf >= frontSplit && nf > dense.DefaultBlockRows {
					wantSplit = true
					if tree.Nodes[i].Parent < 0 {
						wantRoot2D = true
					}
				}
			}
			for _, workers := range []int{1, 2, 8} {
				cfg := parmf.DefaultConfig(workers)
				cfg.Kernel = dense.KernelSIMD
				cfg.FrontSplit = frontSplit // exercise the split paths through the SIMD kernels
				if workers > 1 {
					cfg.RootGrid = 2 // force a real 2-row type-3 grid on qualifying roots
				}
				pf, err := parmf.Factorize(pa, tree, cfg)
				if err != nil {
					t.Fatalf("parmf simd %d workers: %v", workers, err)
				}
				compareFactors(t, tree, simd.Front(), pf.Front(), 0) // bitwise
				if pf.Stats.Kernel != "simd" {
					t.Errorf("%d workers: kernel stat %q", workers, pf.Stats.Kernel)
				}
				if workers > 1 && wantSplit && pf.Stats.SplitFronts+pf.Stats.Root2DFronts == 0 {
					t.Errorf("%d workers: split path did not run (want SplitFronts+Root2DFronts > 0)", workers)
				}
				if workers > 1 && wantRoot2D && pf.Stats.Root2DFronts == 0 {
					t.Errorf("%d workers: 2D root path did not run (want Root2DFronts > 0)", workers)
				}
				xp, err := pf.SolveOriginal(b)
				if err != nil {
					t.Fatalf("parmf simd solve %d workers: %v", workers, err)
				}
				assertBitsEqual(t, "parallel simd solve", xp, xSIMD)
			}

			// Out-of-core: the factors stream through a spill store and the
			// solve reads them back off disk — the spill format round-trips
			// float bits, so the SIMD solves stay bitwise identical.
			st, err := ooc.NewFileStore(ooc.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			oopt := seqmf.DefaultOptions()
			oopt.Kernel = dense.KernelSIMD
			oopt.Store = st
			of, err := seqmf.Factorize(pa, tree, oopt)
			if err != nil {
				t.Fatalf("seqmf simd ooc: %v", err)
			}
			xo, err := of.SolveOriginal(b)
			if err != nil {
				t.Fatal(err)
			}
			assertBitsEqual(t, "ooc simd solve", xo, xSIMD)

			pst, err := ooc.NewFileStore(ooc.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer pst.Close()
			cfg := parmf.DefaultConfig(2)
			cfg.Kernel = dense.KernelSIMD
			cfg.FrontSplit = frontSplit
			cfg.Store = pst
			opf, err := parmf.Factorize(pa, tree, cfg)
			if err != nil {
				t.Fatalf("parmf simd ooc: %v", err)
			}
			if opf.Stats.Kernel != "simd" {
				t.Errorf("ooc parallel kernel stat %q", opf.Stats.Kernel)
			}
			xop, err := opf.SolveOriginal(b)
			if err != nil {
				t.Fatal(err)
			}
			assertBitsEqual(t, "ooc parallel simd solve", xop, xSIMD)
		})
	}
}
