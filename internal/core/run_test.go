package core_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/sparse"
)

// plans are Run's four plans: the sequential oracle and the parallel
// executor at the analysis processor count (Workers 0), each in memory
// and spilling to a file store.
var plans = []struct {
	name string
	plan core.Plan
}{
	{"seq-mem", core.Plan{}},
	{"seq-file", core.Plan{File: true}},
	{"par-mem", core.Plan{Parallel: &parAtProcs}},
	{"par-file", core.Plan{Parallel: &parAtProcs, File: true}},
}

var parAtProcs = parmf.DefaultConfig(0)

// TestRunPlans runs every plan on one symmetric and one unsymmetric
// problem and checks the facade's contract:
//   - the solutions of a 3-column block are bitwise equal across plans
//     (the first plan, the sequential in-core oracle, is the reference),
//     and so are the in-core slabs;
//   - every plan stores the same factor entries; a file store holds every
//     block, and the sequential one stays resident below the oracle;
//   - the sequential plans peak at the analysis' sequential peak, the
//     parallel ones at their largest worker peak, with the mapping's
//     subtrees batched into fewer tasks than fronts;
//   - Close deletes the spill file;
//   - a cancelled context fails both Run and Solve with an error
//     wrapping its cause, and leaves no spill file behind.
func TestRunPlans(t *testing.T) {
	const procs, nrhs = 4, 3
	cause := errors.New("test cancelled the run")
	cancelled, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	ctx := context.Background()
	for _, p := range []struct {
		name string
		a    *sparse.CSC
	}{
		{"sym", sparse.Grid3D(8, 8, 8)},
		{"unsym", sparse.Grid3DUnsym(6, 6, 6, rand.New(rand.NewSource(5)))},
	} {
		t.Run(p.name, func(t *testing.T) {
			an, err := core.Analyze(p.a, core.DefaultConfig(order.ND, procs))
			if err != nil {
				t.Fatal(err)
			}
			b := difftest.RHSBlock(p.a.N, nrhs, 7)
			var refX, refSlab []float64
			var refEntries, refResident int64
			for _, pl := range plans {
				run := *an
				dir := t.TempDir()
				run.Config.OOC.Dir = dir
				f, err := run.Run(ctx, pl.plan)
				if err != nil {
					t.Fatalf("%s: %v", pl.name, err)
				}
				x, err := f.Solve(ctx, b, nrhs)
				if err != nil {
					t.Fatalf("%s: %v", pl.name, err)
				}
				if refX == nil {
					refX, refSlab, refEntries = x, f.Front.Slab(), f.Stats.FactorEntries
				}
				if err := difftest.SameBits(pl.name+" x", x, refX); err != nil {
					t.Error(err)
				}
				if f.Stats.FactorEntries != refEntries {
					t.Errorf("%s: %d factor entries, oracle %d", pl.name, f.Stats.FactorEntries, refEntries)
				}
				if (f.Front == nil) != pl.plan.File || (f.Store == nil) == pl.plan.File {
					t.Errorf("%s: Front %v, Store %v", pl.name, f.Front != nil, f.Store != nil)
				}
				if f.Front != nil && !slices.Equal(f.Front.Slab(), refSlab) {
					t.Errorf("%s: in-core slab differs from the oracle's", pl.name)
				}
				if f.Store != nil && f.Store.Stats().Blocks != an.Tree.Len() {
					t.Errorf("%s: spilled %d blocks, want %d", pl.name, f.Store.Stats().Blocks, an.Tree.Len())
				}
				if pl.plan.Parallel == nil {
					// The oracle's resident peak, then the sequential
					// out-of-core run's, which leaves the factors on disk.
					if refResident == 0 {
						refResident = f.Stats.ResidentPeak
					} else if f.Stats.ResidentPeak >= refResident {
						t.Errorf("%s: resident peak %d not below the in-core %d", pl.name, f.Stats.ResidentPeak, refResident)
					}
				}
				if s := f.Sched; s == nil {
					if pl.plan.Parallel != nil || f.Stats.PeakStack != an.SeqPeak {
						t.Errorf("%s: sequential stats (Sched nil) with stack peak %d, analysis %d", pl.name, f.Stats.PeakStack, an.SeqPeak)
					}
				} else {
					if s.Workers != procs || s.Tasks >= s.Fronts {
						t.Errorf("%s: %d workers, %d tasks for %d fronts; want %d workers and subtrees batched", pl.name, s.Workers, s.Tasks, s.Fronts, procs)
					}
					if len(s.WorkerPeaks) != procs || f.Stats.PeakStack != slices.Max(s.WorkerPeaks) {
						t.Errorf("%s: stack peak %d, worker peaks %v", pl.name, f.Stats.PeakStack, s.WorkerPeaks)
					}
				}
				if _, err := f.Solve(cancelled, b, nrhs); !errors.Is(err, cause) {
					t.Errorf("%s: solve under a cancelled context: %v, want the cause", pl.name, err)
				}
				if f.Store != nil {
					if _, err := os.Stat(f.Store.Path()); err != nil {
						t.Errorf("%s: spill file: %v", pl.name, err)
					}
				}
				if err := f.Close(); err != nil {
					t.Errorf("%s: close: %v", pl.name, err)
				}
				assertEmpty(t, pl.name+" after Close", dir)

				if _, err := run.Run(cancelled, pl.plan); !errors.Is(err, cause) {
					t.Errorf("%s: cancelled run: %v, want an error wrapping the cause", pl.name, err)
				}
				assertEmpty(t, pl.name+" after a cancelled run", dir)
			}
		})
	}
}

// assertEmpty fails t unless dir holds no file.
func assertEmpty(t *testing.T, what, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) > 0 {
		t.Errorf("%s: %s holds %s", what, dir, ents[0].Name())
	}
}
