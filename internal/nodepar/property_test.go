package nodepar_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/front"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/seqmf"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// TestPropertyHybridSuite is the suite-wide invariant of the within-front
// parallel path, checked on every Table-1 problem:
//
//   - with front splitting forced on (the mapping's type-2 threshold), the
//     hybrid executor's factors are *bitwise identical* at 1, 2 and 8
//     workers for a fixed block size — the row partition is a pure
//     function of the front, and the blocked kernels compute the same
//     bits wherever a row block runs;
//   - they are bitwise identical to the sequential executor through the
//     same blocked kernels, and solve the system to residual tolerance
//     (the "matches seqmf" guarantee, which here is exact because the
//     blocked kernels replicate the element-wise operation order);
//   - the multi-worker runs actually exercised the master/slave path
//     (SplitFronts > 0) and executed slave row-block tasks.
func TestPropertyHybridSuite(t *testing.T) {
	suite := workload.Suite()
	if testing.Short() {
		suite = workload.SmallSuite()
	}
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

			maxFront := 0
			for i := range tree.Nodes {
				if f := tree.Nodes[i].NFront(); f > maxFront {
					maxFront = f
				}
			}
			split := assembly.DefaultType2MinFront(maxFront)

			sf, err := seqmf.Factorize(pa, tree, front.Options{}, nil)
			if err != nil {
				t.Fatalf("seqmf: %v", err)
			}

			var last *parmf.Factors
			for _, workers := range []int{1, 2, 8} {
				cfg := parmf.DefaultConfig(workers)
				cfg.FrontSplit = split
				cfg.RootGrid = -1 // pure type-2: every split front on the 1D partition
				pf, err := parmf.Factorize(pa, tree, cfg, front.Options{})
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				if workers > 1 {
					if pf.Stats.SplitFronts == 0 {
						t.Errorf("%d workers: no front split (threshold %d, max front %d)",
							workers, split, maxFront)
					}
					if pf.Stats.SlaveTasks == 0 {
						t.Errorf("%d workers: no slave row-block tasks ran", workers)
					}
				}
				compareBits(t, tree, sf.Front(), pf.Front())
				if last != nil {
					compareBits(t, tree, last.Front(), pf.Front())
				}
				last = pf
			}

			rng := rand.New(rand.NewSource(3))
			b := make([]float64, a.N)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x, err := last.SolveOriginal(b)
			if err != nil {
				t.Fatal(err)
			}
			ax := a.MulVec(x)
			var rn, bn float64
			for i := range b {
				d := ax[i] - b[i]
				rn += d * d
				bn += b[i] * b[i]
			}
			if r := math.Sqrt(rn / bn); r > 1e-7 {
				t.Errorf("residual %g", r)
			}
		})
	}
}

// TestPropertyType3Suite is the suite-wide invariant of the 2D (type-3)
// root-front path, checked on every Table-1 problem:
//
//   - with the type-3 tile decomposition enabled, the factors are *bitwise
//     identical* to the sequential executor at 1, 2 and 8 workers and
//     across grid shapes (the auto grid and a forced flat 1xW grid): tile
//     boundaries are a pure function of the front and the panel width, and
//     the grid only stamps preferred owners;
//   - whenever a root front reaches the split threshold, the multi-worker
//     runs actually took the 2D path (Stats.Root2DFronts > 0).
func TestPropertyType3Suite(t *testing.T) {
	suite := workload.Suite()
	if testing.Short() {
		suite = workload.SmallSuite()
	}
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

			maxFront := 0
			rootFront := 0
			for i := range tree.Nodes {
				f := tree.Nodes[i].NFront()
				if f > maxFront {
					maxFront = f
				}
				if tree.Nodes[i].Parent < 0 && f > rootFront {
					rootFront = f
				}
			}
			split := assembly.DefaultType2MinFront(maxFront)
			rootSplits := rootFront >= split && rootFront > dense.DefaultBlockRows

			sf, err := seqmf.Factorize(pa, tree, front.Options{}, nil)
			if err != nil {
				t.Fatalf("seqmf: %v", err)
			}

			for _, workers := range []int{1, 2, 8} {
				grids := []int{0} // auto
				if workers > 1 {
					grids = []int{0, 1} // auto and the flat 1 x W grid
				}
				for _, grid := range grids {
					cfg := parmf.DefaultConfig(workers)
					cfg.FrontSplit = split
					cfg.RootGrid = grid
					pf, err := parmf.Factorize(pa, tree, cfg, front.Options{})
					if err != nil {
						t.Fatalf("%d workers grid %d: %v", workers, grid, err)
					}
					if workers > 1 && rootSplits && pf.Stats.Root2DFronts == 0 {
						t.Errorf("%d workers grid %d: root front %d >= split %d but no 2D root",
							workers, grid, rootFront, split)
					}
					if workers > 1 && pf.Stats.Root2DFronts > 0 && pf.Stats.RootFrontNs == 0 {
						t.Errorf("%d workers grid %d: 2D root ran but RootFrontNs not recorded",
							workers, grid)
					}
					compareBits(t, tree, sf.Front(), pf.Front())
				}
			}
		})
	}
}

// compareBits asserts two factorizations are bitwise identical on every
// node's L (and U) block.
func compareBits(t *testing.T, tree *assembly.Tree, a, b *front.Factors) {
	t.Helper()
	for ni := range tree.Nodes {
		na, nb := a.Node(ni), b.Node(ni)
		for p, v := range na.L.A {
			if math.Float64bits(v) != math.Float64bits(nb.L.A[p]) {
				t.Fatalf("node %d: L entry %d differs bitwise: %g vs %g", ni, p, v, nb.L.A[p])
			}
		}
		if na.U != nil {
			for p, v := range na.U.A {
				if math.Float64bits(v) != math.Float64bits(nb.U.A[p]) {
					t.Fatalf("node %d: U entry %d differs bitwise: %g vs %g", ni, p, v, nb.U.A[p])
				}
			}
		}
	}
}
