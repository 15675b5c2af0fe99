package parmf_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/assembly"
	"repro/internal/difftest"
	"repro/internal/front"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/seqmf"
	"repro/internal/sparse"
)

// randomProblem draws a small random matrix, alternating the SPD and the
// unsymmetric generator so both elimination kernels are exercised.
func randomProblem(seed int64) *sparse.CSC {
	rng := rand.New(rand.NewSource(seed))
	if seed%2 == 0 {
		return sparse.RandomSPDPattern(20+rng.Intn(120), 2+rng.Intn(4), rng)
	}
	d := func() int { return 3 + rng.Intn(5) }
	return sparse.Grid3DUnsym(d(), d(), d(), rng)
}

// TestPropertyPeakBoundAndSeqEquivalence is the paper-level invariant of
// the executor, checked over random matrices:
//
//   - the scheduler's bound defaults to the sequential stack peak predicted
//     by the memory model for the tree's current child order, and whenever
//     no activation was forced over it (Stats.Forced == 0), no worker's
//     measured stack+front peak exceeds it;
//   - a 1-worker run replays the sequential traversal: identical
//     seqmf.Stats, no deviations, no forced activations;
//   - the factors match seqmf bit for bit at every worker count (static
//     pivoting, deterministic assembly order).
func TestPropertyPeakBoundAndSeqEquivalence(t *testing.T) {
	seeds := int64(24)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		a := randomProblem(seed)
		tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
		peaks := assembly.SortChildrenLiu(tree)
		bound := assembly.TreePeak(peaks, tree)
		sf, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{BlockRows: -1}, nil)
		if err != nil {
			t.Fatalf("seed %d: seqmf: %v", seed, err)
		}
		for _, workers := range []int{1, 2, 4} {
			pf, err := parmf.Factorize(context.Background(), pa, tree, parmf.DefaultConfig(workers), front.Options{})
			if err != nil {
				t.Fatalf("seed %d, %d workers: %v", seed, workers, err)
			}
			if pf.Stats.PeakBound != bound {
				t.Fatalf("seed %d: scheduler bound %d, model %d", seed, pf.Stats.PeakBound, bound)
			}
			if pf.Stats.Forced == 0 {
				for w, p := range pf.Stats.WorkerPeaks {
					if p > bound {
						t.Errorf("seed %d, %d workers: worker %d peak %d > bound %d",
							seed, workers, w, p, bound)
					}
				}
			}
			for w, p := range pf.Stats.WorkerStackPeaks {
				if p > pf.Stats.WorkerPeaks[w] {
					t.Errorf("seed %d: worker %d stack peak %d > active peak %d",
						seed, w, p, pf.Stats.WorkerPeaks[w])
				}
			}
			if pf.Stats.FactorEntries != assembly.TotalFactorEntries(tree) {
				t.Errorf("seed %d: factor entries %d != model %d",
					seed, pf.Stats.FactorEntries, assembly.TotalFactorEntries(tree))
			}
			if pf.Stats.Fronts != tree.Len() {
				t.Errorf("seed %d: fronts %d != nodes %d", seed, pf.Stats.Fronts, tree.Len())
			}
			if err := difftest.CompareFactors(tree, sf.Store(), pf.Store()); err != nil {
				t.Fatalf("seed %d, %d workers: %v", seed, workers, err)
			}
			if workers == 1 {
				if got, want := pf.Stats.Seq(), sf.Stats; got != want {
					t.Errorf("seed %d: 1-worker stats %+v != seq %+v", seed, got, want)
				}
				if pf.Stats.Deviations != 0 || pf.Stats.Forced != 0 || pf.Stats.Waits != 0 || pf.Stats.PeakStack > bound {
					t.Errorf("seed %d: 1-worker run deviated: %+v", seed, pf.Stats)
				}
			}
		}
	}
}

// TestPropertyDepthFirstCountersZero: depth-first selection has no bound,
// so at any worker count and in any goroutine schedule it never deviates
// from the top, never waits on memory (an empty pool is no wait) and never
// forces an activation over a bound.
func TestPropertyDepthFirstCountersZero(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		a := randomProblem(seed)
		tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
		assembly.SortChildrenLiu(tree)
		for _, workers := range []int{2, 4} {
			cfg := parmf.DefaultConfig(workers)
			cfg.Policy = parmf.DepthFirst
			pf, err := parmf.Factorize(context.Background(), pa, tree, cfg, front.Options{})
			if err != nil {
				t.Fatalf("seed %d, %d workers: %v", seed, workers, err)
			}
			if s := pf.Stats; s.Deviations != 0 || s.Waits != 0 || s.Forced != 0 {
				t.Errorf("seed %d, %d workers: depth-first run reports %d deviations, %d waits, %d forced",
					seed, workers, s.Deviations, s.Waits, s.Forced)
			}
		}
	}
}
