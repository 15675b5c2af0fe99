// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (Section 6), plus ablation benchmarks
// for the design choices called out in DESIGN.md Section 5.
//
// The benchmarks run the reduced suite so that -bench=. completes in
// minutes; cmd/experiments regenerates the tables at full scale. Custom
// metrics are attached with b.ReportMetric:
//
//	peak_entries    max over processors of the stack/active-memory peak
//	gain_pct        percentage decrease vs the workload baseline
//	makespan_ms     simulated factorization time
//	deviations      Algorithm 2 off-top pool selections
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/assembly"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/workload"
)

const benchProcs = 32

// analysisFor runs the symbolic phase once per (problem, ordering, split).
func analysisFor(b *testing.B, p workload.Problem, m order.Method, split bool) *core.Analysis {
	b.Helper()
	an, err := core.Analyze(p.Matrix(), core.DefaultConfig(m, benchProcs))
	if err != nil {
		b.Fatalf("analyze %s/%v: %v", p.Name, m, err)
	}
	if split {
		thr := an.LargestMaster() / 3
		if thr < experiments.SplitThreshold {
			thr = experiments.SplitThreshold
		}
		an, err = an.WithSplit(thr, 0)
		if err != nil {
			b.Fatalf("split %s/%v: %v", p.Name, m, err)
		}
	}
	return an
}

func simulate(b *testing.B, an *core.Analysis, st parsim.Strategy) *parsim.Result {
	b.Helper()
	res, err := an.Simulate(st)
	if err != nil {
		b.Fatalf("simulate: %v", err)
	}
	return res
}

// BenchmarkTable1Suite measures matrix generation + symbolic analysis for
// the whole Table 1 suite (the "workload generator" cost of every other
// table).
func BenchmarkTable1Suite(b *testing.B) {
	suite := workload.SmallSuite()
	for b.Loop() {
		for _, p := range suite {
			if _, err := core.Analyze(p.Matrix(), core.DefaultConfig(order.ND, benchProcs)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchGainGrid runs baseline-vs-memory over a problem set and reports the
// mean percentage decrease of the max stack peak (the cell statistic of
// Tables 2/3/5).
func benchGainGrid(b *testing.B, probs []workload.Problem, split, baseSplit bool) {
	type cell struct{ base, mem *core.Analysis }
	var cells []cell
	for _, p := range probs {
		for _, m := range order.Methods {
			cells = append(cells, cell{
				base: analysisFor(b, p, m, baseSplit),
				mem:  analysisFor(b, p, m, split),
			})
		}
	}
	b.ResetTimer()
	var gain float64
	for b.Loop() {
		gain = 0
		for _, c := range cells {
			w := simulate(b, c.base, parsim.Workload())
			mm := simulate(b, c.mem, parsim.MemoryBased())
			gain += metrics.PercentDecrease(w.MaxActivePeak, mm.MaxActivePeak)
		}
		gain /= float64(len(cells))
	}
	b.ReportMetric(gain, "mean_gain_pct")
}

// BenchmarkTable2 regenerates Table 2: dynamic memory strategies vs the
// workload baseline on unmodified trees, 8 problems x 4 orderings.
func BenchmarkTable2(b *testing.B) {
	benchGainGrid(b, workload.SmallSuite(), false, false)
}

// BenchmarkTable3 regenerates Table 3: the same comparison on statically
// split trees (4 unsymmetric problems x 4 orderings).
func BenchmarkTable3(b *testing.B) {
	benchGainGrid(b, workload.Unsymmetric(workload.SmallSuite()), true, true)
}

// BenchmarkTable5 regenerates Table 5: splitting + memory strategies
// combined against the original MUMPS configuration (no split, workload).
func BenchmarkTable5(b *testing.B) {
	benchGainGrid(b, workload.Unsymmetric(workload.SmallSuite()), true, false)
}

// BenchmarkTable4 regenerates Table 4's four columns: absolute max stack
// peaks for ULTRASOUND3/METIS and XENON2/AMF, split and unsplit, under
// both strategies.
func BenchmarkTable4(b *testing.B) {
	suite := workload.SmallSuite()
	cases := []struct {
		name string
		m    order.Method
	}{
		{"ULTRASOUND3", order.ND},
		{"XENON2", order.AMF},
	}
	for _, c := range cases {
		p, err := workload.ByName(suite, c.name)
		if err != nil {
			b.Fatal(err)
		}
		for _, split := range []bool{false, true} {
			for _, st := range []struct {
				name string
				s    parsim.Strategy
			}{{"workload", parsim.Workload()}, {"memory", parsim.MemoryBased()}} {
				b.Run(fmt.Sprintf("%s/%v/split=%v/%s", c.name, c.m, split, st.name), func(b *testing.B) {
					an := analysisFor(b, p, c.m, split)
					var peak int64
					b.ResetTimer()
					for b.Loop() {
						peak = simulate(b, an, st.s).MaxActivePeak
					}
					b.ReportMetric(float64(peak), "peak_entries")
				})
			}
		}
	}
}

// BenchmarkTable6 regenerates Table 6: the factorization-time cost of the
// memory-optimized strategy on three large problems.
func BenchmarkTable6(b *testing.B) {
	suite := workload.SmallSuite()
	for _, name := range []string{"SHIP_003", "PRE2", "ULTRASOUND3"} {
		p, err := workload.ByName(suite, name)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range order.Methods {
			b.Run(fmt.Sprintf("%s/%v", name, m), func(b *testing.B) {
				an := analysisFor(b, p, m, false)
				var loss float64
				b.ResetTimer()
				for b.Loop() {
					w := simulate(b, an, parsim.Workload())
					mm := simulate(b, an, parsim.MemoryBased())
					loss = metrics.PercentIncrease(int64(w.Makespan), int64(mm.Makespan))
				}
				b.ReportMetric(loss, "time_loss_pct")
			})
		}
	}
}

// ---- figure-level benchmarks ------------------------------------------

// BenchmarkFigure1Analysis benches the symbolic pipeline (matrix →
// elimination tree → assembly tree) that Figure 1 illustrates.
func BenchmarkFigure1Analysis(b *testing.B) {
	a := sparse.Grid2D(60, 60)
	cfg := core.DefaultConfig(order.AMD, 1)
	for b.Loop() {
		if _, err := core.Analyze(a, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Mapping benches the static distribution of a tree over
// processors (subtrees + layer types, Figure 2).
func BenchmarkFigure2Mapping(b *testing.B) {
	a := sparse.Grid3D(14, 14, 14)
	tree, _ := assembly.Analyze(a, assembly.Options{Ordering: order.ND})
	assembly.SortChildrenLiu(tree)
	opts := assembly.DefaultMapOptions(4)
	b.ResetTimer()
	for b.Loop() {
		mp := assembly.Map(tree, opts)
		if err := mp.Validate(tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Blocking benches the 1D row-blocking decision for one
// type-2 front under both strategies (Figure 3's partition shapes).
func BenchmarkFigure3Blocking(b *testing.B) {
	const P = 32
	cands := make([]int, P-1)
	loads := make([]int64, P)
	mems := make([]int64, P)
	for i := range cands {
		cands[i] = i + 1
	}
	for q := 0; q < P; q++ {
		loads[q] = int64(q) * 1e7
		mems[q] = int64((q*37)%P) * 1e5
	}
	metric := func(q int) int64 { return mems[q] }
	b.Run("workload", func(b *testing.B) {
		for b.Loop() {
			sched.SelectSlavesWorkload(cands, loads[0], loads, 4000, 1e9, 1e6)
		}
	})
	b.Run("memory", func(b *testing.B) {
		for b.Loop() {
			sched.SelectSlavesMemory(cands, metric, 5000, 4000, 0)
		}
	})
}

// BenchmarkFigure4SlaveSelection benches Algorithm 1 across candidate
// counts (the memory-levelling selection of Figure 4).
func BenchmarkFigure4SlaveSelection(b *testing.B) {
	for _, P := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("P=%d", P), func(b *testing.B) {
			cands := make([]int, P-1)
			mems := make([]int64, P)
			for i := range cands {
				cands[i] = i + 1
				mems[i+1] = int64((i*131)%P) * 1e5
			}
			metric := func(q int) int64 { return mems[q] }
			b.ResetTimer()
			for b.Loop() {
				sched.SelectSlavesMemory(cands, metric, 4000, 3000, 0)
			}
		})
	}
}

// BenchmarkFigure5Latency benches a full simulation at two message
// latencies; the stale-view hazard of Figure 5 is latency-induced.
func BenchmarkFigure5Latency(b *testing.B) {
	p, err := workload.ByName(workload.SmallSuite(), "ULTRASOUND3")
	if err != nil {
		b.Fatal(err)
	}
	for _, lat := range []des.Time{1_000, 1_000_000} { // 1µs, 1ms
		b.Run(fmt.Sprintf("latency=%dns", lat), func(b *testing.B) {
			cfg := core.DefaultConfig(order.ND, benchProcs)
			cfg.Params.Comm.Latency = lat
			an, err := core.Analyze(p.Matrix(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			var peak int64
			b.ResetTimer()
			for b.Loop() {
				peak = simulate(b, an, parsim.MemoryBased()).MaxActivePeak
			}
			b.ReportMetric(float64(peak), "peak_entries")
		})
	}
}

// BenchmarkFigure7Pool benches the ready-task pool operations (Figure 7).
func BenchmarkFigure7Pool(b *testing.B) {
	for b.Loop() {
		var p sched.Pool
		for i := 0; i < 1024; i++ {
			p.Push(i)
		}
		for !p.Empty() {
			p.PopAt(0)
		}
	}
}

// BenchmarkFigure8TaskSelection benches Algorithm 2's pool scan (the
// delay-the-large-node decision of Figure 8).
func BenchmarkFigure8TaskSelection(b *testing.B) {
	var p sched.Pool
	for i := 0; i < 256; i++ {
		p.Push(i)
	}
	info := sched.TaskInfo{
		InSubtree: func(n int) bool { return n%7 == 0 },
		MemCost:   func(n int) int64 { return int64(n) * 1e4 },
	}
	b.ResetTimer()
	for b.Loop() {
		sched.SelectTask(&p, info, 5e5, 1e6, true, false)
	}
}

// ---- ablation benchmarks (DESIGN.md Section 5) -------------------------

// ablationCase simulates one problem/ordering under a strategy variant and
// reports peak + gain vs the workload baseline.
func ablationCase(b *testing.B, an *core.Analysis, st parsim.Strategy) {
	b.Helper()
	base := simulate(b, an, parsim.Workload())
	var res *parsim.Result
	for b.Loop() {
		res = simulate(b, an, st)
	}
	b.ReportMetric(float64(res.MaxActivePeak), "peak_entries")
	b.ReportMetric(metrics.PercentDecrease(base.MaxActivePeak, res.MaxActivePeak), "gain_pct")
	b.ReportMetric(float64(res.Alg2Deviations), "deviations")
}

// BenchmarkAblationMetric ablates the slave-selection metric: bare
// instantaneous memory (Section 4) vs + subtree peaks vs + predictions
// (Section 5.1).
func BenchmarkAblationMetric(b *testing.B) {
	p, err := workload.ByName(workload.SmallSuite(), "PRE2")
	if err != nil {
		b.Fatal(err)
	}
	an := analysisFor(b, p, order.AMD, false)
	variants := []struct {
		name string
		st   parsim.Strategy
	}{
		{"instantaneous", parsim.Strategy{MemorySlaveSelection: true}},
		{"plus_subtree", parsim.Strategy{MemorySlaveSelection: true, UseSubtreeInfo: true}},
		{"plus_prediction", parsim.Strategy{MemorySlaveSelection: true, UseSubtreeInfo: true, UsePrediction: true}},
		{"full", parsim.MemoryBased()},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) { ablationCase(b, an, v.st) })
	}
}

// BenchmarkAblationSplitThreshold sweeps the static split threshold (the
// paper: "the choice of the threshold ... should be more matrix-dependent").
func BenchmarkAblationSplitThreshold(b *testing.B) {
	p, err := workload.ByName(workload.SmallSuite(), "PRE2")
	if err != nil {
		b.Fatal(err)
	}
	base := analysisFor(b, p, order.ND, false)
	for _, div := range []int64{0, 2, 4, 8} {
		name := "nosplit"
		if div > 0 {
			name = fmt.Sprintf("largest_over_%d", div)
		}
		b.Run(name, func(b *testing.B) {
			an := base
			if div > 0 {
				var err error
				an, err = base.WithSplit(base.LargestMaster()/div, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			ablationCase(b, an, parsim.MemoryBased())
		})
	}
}

// BenchmarkAblationPoolPolicy ablates Algorithm 2 against the plain stack
// pool, holding slave selection fixed.
func BenchmarkAblationPoolPolicy(b *testing.B) {
	p, err := workload.ByName(workload.SmallSuite(), "XENON2")
	if err != nil {
		b.Fatal(err)
	}
	an := analysisFor(b, p, order.AMF, false)
	with := parsim.MemoryBased()
	without := with
	without.MemoryTaskSelection = false
	b.Run("stack", func(b *testing.B) { ablationCase(b, an, without) })
	b.Run("algorithm2", func(b *testing.B) { ablationCase(b, an, with) })
}

// BenchmarkAblationHybrid compares the pure memory strategy against the
// hybrid (workload-filtered) strategy of the paper's conclusion, on peak
// and makespan.
func BenchmarkAblationHybrid(b *testing.B) {
	p, err := workload.ByName(workload.SmallSuite(), "PRE2")
	if err != nil {
		b.Fatal(err)
	}
	an := analysisFor(b, p, order.AMD, false)
	for _, v := range []struct {
		name string
		st   parsim.Strategy
	}{
		{"workload", parsim.Workload()},
		{"memory", parsim.MemoryBased()},
		{"hybrid", parsim.Hybrid()},
	} {
		b.Run(v.name, func(b *testing.B) {
			var res *parsim.Result
			for b.Loop() {
				res = simulate(b, an, v.st)
			}
			b.ReportMetric(float64(res.MaxActivePeak), "peak_entries")
			b.ReportMetric(float64(res.Makespan)/1e6, "makespan_ms")
		})
	}
}

// BenchmarkAblationSubtreeSplit toggles the memory-based subtree
// splitting (Section 5.1's recommended companion to the subtree
// broadcasts) to measure its effect on the full memory strategy.
func BenchmarkAblationSubtreeSplit(b *testing.B) {
	p, err := workload.ByName(workload.SmallSuite(), "TWOTONE")
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{0, 0.03125, 0.0625, 0.25} {
		b.Run(fmt.Sprintf("peakfrac=%g", frac), func(b *testing.B) {
			cfg := core.DefaultConfig(order.AMD, benchProcs)
			cfg.MapOptions = assembly.DefaultMapOptions(benchProcs)
			cfg.MapOptions.SubtreePeakFrac = frac
			an, err := core.Analyze(p.Matrix(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			ablationCase(b, an, parsim.MemoryBased())
		})
	}
}

// BenchmarkAblationSubtreeOrder compares the subtree treatment orders
// (postorder vs peak-descending — the reference-[11] heuristic the paper
// points to for the subtree-order question).
func BenchmarkAblationSubtreeOrder(b *testing.B) {
	p, err := workload.ByName(workload.SmallSuite(), "MSDOOR")
	if err != nil {
		b.Fatal(err)
	}
	an := analysisFor(b, p, order.AMD, false)
	for _, v := range []struct {
		name string
		so   parsim.SubtreeOrder
	}{
		{"postorder", parsim.SubtreePostorder},
		{"peak_descending", parsim.SubtreePeakDescending},
	} {
		b.Run(v.name, func(b *testing.B) {
			st := parsim.MemoryBased()
			st.SubtreeOrder = v.so
			ablationCase(b, an, st)
		})
	}
}

// BenchmarkAblationLatency sweeps message latency to expose the stale-view
// sensitivity (Figure 5) of the memory-based strategy.
func BenchmarkAblationLatency(b *testing.B) {
	p, err := workload.ByName(workload.SmallSuite(), "TWOTONE")
	if err != nil {
		b.Fatal(err)
	}
	for _, lat := range []des.Time{0, 1_000, 100_000, 10_000_000} {
		b.Run(fmt.Sprintf("latency=%dns", lat), func(b *testing.B) {
			cfg := core.DefaultConfig(order.AMD, benchProcs)
			cfg.Params.Comm.Latency = lat
			an, err := core.Analyze(p.Matrix(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			ablationCase(b, an, parsim.MemoryBased())
		})
	}
}

// BenchmarkSequentialFactorization benches the numeric kernel (real
// partial LU + extend-add) that validates the front machinery.
func BenchmarkSequentialFactorization(b *testing.B) {
	a := sparse.Grid2D(40, 40)
	an, err := core.Analyze(a, core.DefaultConfig(order.AMD, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		if _, err := an.Factorize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeParallel measures the within-front (type-2) parallel path:
// the hybrid executor (tree tasks + master/slave row-block tasks) against
// the sequential blocked baseline on the two largest-front problems of the
// suite, at 1, 2 and 8 workers. It reports speedup_x (hardware-dependent:
// ~1x on a single core, >1x at 8 workers on multicore where the big
// root-dominated fronts actually fan out), split_fronts and slave_tasks —
// the perf trajectory BENCH_*.json tracks for this subsystem. Factors are
// bitwise identical to the sequential ones at every worker count.
func BenchmarkNodeParallel(b *testing.B) {
	for _, name := range []string{"BMWCRA_1", "ULTRASOUND3"} {
		p, err := workload.ByName(workload.Suite(), name)
		if err != nil {
			b.Fatal(err)
		}
		an, err := core.Analyze(p.NumericMatrix(), core.DefaultConfig(order.ND, 8))
		if err != nil {
			b.Fatal(err)
		}
		// Sequential blocked baseline, amortized for stability.
		t0 := time.Now()
		reps := 0
		for time.Since(t0) < 500*time.Millisecond {
			if _, err := an.Factorize(); err != nil {
				b.Fatal(err)
			}
			reps++
		}
		seqPerOp := time.Since(t0) / time.Duration(reps)

		for _, workers := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				var splits int
				var slaves int64
				for b.Loop() {
					f, err := an.FactorizeParallel(parmf.DefaultConfig(workers))
					if err != nil {
						b.Fatal(err)
					}
					splits = f.Stats.SplitFronts
					slaves = f.Stats.SlaveTasks
				}
				perOp := b.Elapsed() / time.Duration(b.N)
				b.ReportMetric(float64(seqPerOp)/float64(perOp), "speedup_x")
				b.ReportMetric(float64(splits), "split_fronts")
				b.ReportMetric(float64(slaves), "slave_tasks")
			})
		}
	}
}

// BenchmarkParallelSpeedup measures the real shared-memory parallel
// executor (internal/parmf) against the sequential one on the largest
// symmetric problem at reproduction scale, reporting wall-clock speedup and
// the max per-worker memory peak. The speedup is hardware-dependent: ~1x on
// a single-core machine, >1.5x at 8 workers on multicore (the executor's
// scheduling overhead on one core is ~10%).
func BenchmarkParallelSpeedup(b *testing.B) {
	p, err := workload.ByName(workload.Suite(), "BMWCRA_1")
	if err != nil {
		b.Fatal(err)
	}
	an, err := core.Analyze(p.NumericMatrix(), core.DefaultConfig(order.ND, 8))
	if err != nil {
		b.Fatal(err)
	}
	// Sequential baseline, amortized over enough repetitions to be stable.
	t0 := time.Now()
	reps := 0
	for time.Since(t0) < 500*time.Millisecond {
		if _, err := an.Factorize(); err != nil {
			b.Fatal(err)
		}
		reps++
	}
	seqPerOp := time.Since(t0) / time.Duration(reps)

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var peak int64
			for b.Loop() {
				f, err := an.FactorizeParallel(parmf.DefaultConfig(workers))
				if err != nil {
					b.Fatal(err)
				}
				peak = f.Stats.PeakStack
			}
			perOp := b.Elapsed() / time.Duration(b.N)
			b.ReportMetric(float64(seqPerOp)/float64(perOp), "speedup_x")
			b.ReportMetric(float64(peak), "peak_entries")
		})
	}
}
