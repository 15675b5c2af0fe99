package parmf_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/difftest"
	"repro/internal/front"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/seqmf"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// TestDepthFirstPolicy cross-validates the plain LIFO policy as well.
func TestDepthFirstPolicy(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	assembly.SortChildrenLiu(tree)
	sf, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{BlockRows: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parmf.DefaultConfig(4)
	cfg.Policy = parmf.DepthFirst
	pf, err := parmf.Factorize(context.Background(), pa, tree, cfg, front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := difftest.CompareFactors(tree, sf.Store(), pf.Store()); err != nil {
		t.Fatal(err)
	}
}

// TestSubtreeShortcut runs with leaf-subtree information (as core wires it
// from the static mapping) and checks correctness is unaffected.
func TestSubtreeShortcut(t *testing.T) {
	a := sparse.Grid3D(7, 7, 7)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	assembly.SortChildrenLiu(tree)
	mp := assembly.Map(tree, assembly.DefaultMapOptions(4))
	sf, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{BlockRows: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parmf.DefaultConfig(4)
	cfg.SubtreeRoots = mp.SubRoot
	pf, err := parmf.Factorize(context.Background(), pa, tree, cfg, front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := difftest.CompareFactors(tree, sf.Store(), pf.Store()); err != nil {
		t.Fatal(err)
	}
}

// TestSplitTree checks the parallel executor on a statically split tree
// (chain links tile the same pivots; dependencies serialize each chain).
func TestSplitTree(t *testing.T) {
	a := sparse.Grid2D(14, 14)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	nt, count := assembly.Split(tree, assembly.SplitOptions{MaxMasterEntries: 300, MinPiv: 3})
	if count == 0 {
		t.Skip("nothing split at this size")
	}
	assembly.SortChildrenLiu(nt)
	sf, err := seqmf.Factorize(context.Background(), pa, nt, front.Options{BlockRows: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := parmf.Factorize(context.Background(), pa, nt, parmf.DefaultConfig(4), front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := difftest.CompareFactors(nt, sf.Store(), pf.Store()); err != nil {
		t.Fatal(err)
	}
}

// TestErrors covers the input-validation paths.
func TestErrors(t *testing.T) {
	a := sparse.Grid2D(4, 4)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
	pat := pa.Clone()
	pat.Val = nil
	if _, err := parmf.Factorize(context.Background(), pat, tree, parmf.DefaultConfig(2), front.Options{}); err == nil {
		t.Error("pattern-only matrix accepted")
	}
	small, _ := assembly.Analyze(sparse.Grid2D(2, 2), assembly.DefaultOptions(order.AMD))
	if _, err := parmf.Factorize(context.Background(), pa, small, parmf.DefaultConfig(2), front.Options{}); err == nil {
		t.Error("mismatched tree accepted")
	}
	f, err := parmf.Factorize(context.Background(), pa, tree, parmf.DefaultConfig(2), front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveOriginalMulti(make([]float64, 3), 1); err == nil {
		t.Error("short rhs accepted")
	}
}

// TestSecondBindFails: a store holds one factorization. Handing a file
// store that already holds blocks (or an in-core store that already
// holds factors) to a second factorization fails with an error naming
// the store, before any block moves, and the first factorization still
// solves to the same bits.
func TestSecondBindFails(t *testing.T) {
	a := sparse.Grid3D(5, 5, 5)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	fs, err := ooc.NewFileStore(ooc.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cfg := parmf.DefaultConfig(2)
	cfg.Store = fs
	f, err := parmf.Factorize(context.Background(), pa, tree, cfg, front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := difftest.RHSBlock(a.N, 1, 3)
	want, err := f.SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parmf.Factorize(context.Background(), pa, tree, cfg, front.Options{}); err == nil || !strings.Contains(err.Error(), fs.Path()) {
		t.Errorf("second parallel factorization into one file store: %v, want an error naming %s", err, fs.Path())
	}
	if _, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{}, fs); err == nil || !strings.Contains(err.Error(), fs.Path()) {
		t.Errorf("second sequential factorization into one file store: %v, want an error naming %s", err, fs.Path())
	}
	x, err := f.SolveOriginalMulti(b, 1)
	if err == nil {
		err = difftest.SameBits("x after the refused binds", x, want)
	}
	if err != nil {
		t.Error(err)
	}

	in, err := parmf.Factorize(context.Background(), pa, tree, parmf.DefaultConfig(2), front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = in.Front()
	if _, err := parmf.Factorize(context.Background(), pa, tree, cfg, front.Options{}); err == nil || !strings.Contains(err.Error(), "in-core store") {
		t.Errorf("second factorization into one in-core store: %v", err)
	}
}

// TestSmallPivotPropagates makes sure a numeric failure inside a worker is
// reported (and does not deadlock the pool).
func TestSmallPivotPropagates(t *testing.T) {
	// An indefinite symmetric matrix fails partial Cholesky.
	b := sparse.NewBuilder(2, sparse.Symmetric)
	b.Add(0, 0, -1)
	b.Add(1, 0, 1)
	b.Add(1, 1, -1)
	a := b.Build()
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.Natural))
	if _, err := parmf.Factorize(context.Background(), pa, tree, parmf.DefaultConfig(4), front.Options{}); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

// TestZeroOptionsSameAcrossExecutors pins the one meaning of the zero
// front.Options: both executors resolve it to dense.DefaultBlockRows
// panels of the default family, so the sequential executor and the
// parallel one at 1 and 4 workers (split fronts included) produce factors
// bitwise identical to the element-wise oracle, and the parallel work —
// whose row partitions depend on the block rows — equals that of an
// explicit DefaultBlockRows run.
func TestZeroOptionsSameAcrossExecutors(t *testing.T) {
	if br, k := (front.Options{}).Resolve(); br != dense.DefaultBlockRows || k != dense.KernelDefault {
		t.Fatalf("zero options resolve to %d block rows, kernel %v", br, k)
	}
	pre2, err := workload.ByName(workload.SmallSuite(), "PRE2")
	if err != nil {
		t.Fatal(err)
	}
	problems := []struct {
		name string
		a    *sparse.CSC
	}{
		{"grid3d-spd", sparse.Grid3D(10, 10, 10)},
		{"pre2-unsym", pre2.NumericMatrix()},
	}
	explicit := front.Options{BlockRows: dense.DefaultBlockRows}
	for _, p := range problems {
		tree, pa := assembly.Analyze(p.a, assembly.DefaultOptions(order.ND))
		assembly.SortChildrenLiu(tree)
		oracle, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{BlockRows: -1}, nil)
		if err != nil {
			t.Fatalf("%s: oracle: %v", p.name, err)
		}
		sf, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{}, nil)
		if err != nil {
			t.Fatalf("%s: seqmf: %v", p.name, err)
		}
		if err := difftest.CompareFactors(tree, oracle.Store(), sf.Store()); err != nil {
			t.Fatalf("%s: seqmf: %v", p.name, err)
		}
		if sf.Stats != oracle.Stats {
			t.Errorf("%s: seqmf stats %+v, oracle %+v", p.name, sf.Stats, oracle.Stats)
		}
		for _, workers := range []int{1, 4} {
			cfg := parmf.DefaultConfig(workers)
			cfg.FrontSplit = dense.DefaultBlockRows + 1 // split every front spanning two row blocks
			zero, err := parmf.Factorize(context.Background(), pa, tree, cfg, front.Options{})
			if err != nil {
				t.Fatalf("%s: parmf %d workers: %v", p.name, workers, err)
			}
			if err := difftest.CompareFactors(tree, oracle.Store(), zero.Store()); err != nil {
				t.Fatalf("%s: parmf %d workers: %v", p.name, workers, err)
			}
			ref, err := parmf.Factorize(context.Background(), pa, tree, cfg, explicit)
			if err != nil {
				t.Fatalf("%s: parmf %d workers, explicit block rows: %v", p.name, workers, err)
			}
			if !zero.Stats.WorkStats.Equal(ref.Stats.WorkStats) {
				t.Errorf("%s: %d workers: zero options did %+v, explicit %d block rows %+v",
					p.name, workers, zero.Stats.WorkStats, dense.DefaultBlockRows, ref.Stats.WorkStats)
			}
			if workers > 1 && zero.Stats.SplitFronts == 0 {
				t.Errorf("%s: %d workers: no front took the split path", p.name, workers)
			}
		}
	}
}
