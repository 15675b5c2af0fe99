// Command parfactor runs the real shared-memory parallel numeric
// factorization of one matrix and reports wall-clock time, per-worker
// memory peaks and scheduling statistics, optionally cross-checked against
// the sequential executor.
//
// Usage:
//
//	parfactor -matrix NAME|-mm FILE [-ordering METIS|PORD|AMD|AMF|RCM]
//	          [-workers W] [-policy memory|depthfirst] [-split N]
//	          [-front-split N] [-block-rows N] [-root-grid N]
//	          [-slaves memory|workload] [-kernel FAMILY] [-bound ENTRIES]
//	          [-nrhs K] [-seq] [-small]
//	          [-trace FILE] [-metrics FILE] [-pprof PREFIX]
//	          [-listen HOST:PORT] [-listen-linger D]
//	          [-timeout D] [-faults SPEC]
//
// Fault tolerance: -timeout bounds the whole run with a context deadline
// (the worker pools drain deterministically and the tool exits nonzero
// with an error naming how far the run got), and -faults arms a
// deterministic fault-injection schedule (internal/faults grammar, e.g.
// 'task:error:5') for chaos testing — injected failures surface as
// descriptive errors, never hangs or leaked goroutines.
//
// Observability: -trace writes Chrome trace_event JSON of the run (task,
// front-phase and solve spans per worker plus exact memory counter
// tracks; load in chrome://tracing or Perfetto), -metrics writes the
// aggregated counters snapshot (Prometheus text format, or JSON with a
// .json path), and -pprof captures CPU and heap profiles. -listen serves
// all of it live while the run executes: /metrics (Prometheus scrape
// with progress, ETA and the resident gauge), /progress and /runs
// (JSON), /trace.json, /timeline.csv and /debug/pprof. -listen-linger
// keeps that server up after the run completes so scrapers can catch
// short runs.
//
// -matrix selects a problem from the paper's Table-1 suite by name
// (pattern-only analogues are given deterministic diagonally dominant
// values); -mm reads a MatrixMarket file instead. With -seq the sequential
// factorization also runs, and the tool prints the wall-clock speedup and
// the factor cross-validation result.
//
// -front-split and -block-rows control the within-front (type-2) parallel
// path: fronts of at least -front-split rows are factored as a master task
// plus slave row-block tasks of -block-rows rows each, with the slave set
// chosen by -slaves (Algorithm 1 of the paper, or the MUMPS workload
// baseline). -root-grid controls the 2D (type-3) decomposition of split
// root fronts: the trailing rows *and* columns become -block-rows tiles
// assigned block-cyclically over a worker grid (0 = auto-sized from the
// worker count, -1 = keep roots on the 1D partition). In the default
// kernel mode the factors never depend on these knobs — the partitions
// are pure functions of the front and the register-blocked kernels are
// bitwise identical to the element-wise ones — only wall-clock time and
// the per-worker memory shape do. -kernel selects the update kernel
// family: default (the bitwise one above), simd (the fused-multiply-add
// family: AVX2/FMA assembly with a bitwise identical portable fallback),
// or auto, which picks simd when the hardware path is available and
// default otherwise. simd keeps the factors deterministic for a fixed
// -block-rows (any worker count or grid shape) but is validated by
// residual rather than bit equality. Set -front-split larger than the
// largest front to disable splitting.
//
// The solve phase runs tree-parallel over the same workers and handles
// -nrhs right-hand sides as one blocked pass (one forward and one
// backward sweep over the factors in total); each column carries the
// exact bits of a sequential single-RHS solve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/parmf"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parfactor: ")
	var common cliflags.Common
	common.Register(flag.CommandLine, 8)
	policy := flag.String("policy", "memory", "task selection: memory (Algorithm 2) or depthfirst")
	bound := flag.Int64("bound", 0, "per-worker memory bound in entries (0 = sequential peak)")
	seq := flag.Bool("seq", false, "also run seqmf: report speedup and cross-validate factors")
	flag.Parse()

	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}
	a, err := common.Load()
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := common.CoreConfig()
	if err != nil {
		log.Fatal(err)
	}
	obs, err := common.Observability()
	if err != nil {
		log.Fatal(err)
	}
	cfg.Tracer = obs.Tracer
	inj, _ := common.Injector() // validated above
	cfg.Faults = inj
	obs.SetFaults(inj)
	ctx, cancel := common.Context()
	defer cancel()
	// fatal routes run failures through the observability plane first: the
	// registered run flips to "failed" (visible through -listen-linger) and
	// the trace/metrics/profile outputs still get written for post-mortem.
	fatal := func(err error) {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("run exceeded -timeout %v: %w", common.Timeout, err)
		}
		obs.Abort(err, memory.ExecStats{})
		log.Fatal(err)
	}
	an, err := core.Analyze(a, cfg)
	if err != nil {
		fatal(err)
	}
	st := an.Stats()
	fmt.Printf("matrix:    n=%d nnz=%d %v\n", st.N, st.NNZ, a.Kind)
	fmt.Printf("analysis:  %d fronts, max front %d, %d split; sequential peak %d entries\n",
		st.Fronts, st.MaxFront, st.SplitCount, st.SeqPeak)

	pcfg := parmf.DefaultConfig(common.Workers)
	pcfg.PeakBound = *bound
	switch strings.ToLower(*policy) {
	case "memory":
		pcfg.Policy = parmf.MemoryAware
	case "depthfirst":
		pcfg.Policy = parmf.DepthFirst
	default:
		log.Fatalf("unknown policy %q", *policy)
	}
	pcfg.SlavePolicy, _ = common.SlavePolicy() // validated above

	t0 := time.Now()
	pf, err := an.FactorizeParallelCtx(ctx, pcfg)
	if err != nil {
		fatal(err)
	}
	parT := time.Since(t0)
	s := pf.Stats
	fmt.Printf("parallel:  %d workers, policy %v, kernels %s, %.3fs wall\n",
		s.Workers, pcfg.Policy, s.Kernel, parT.Seconds())
	fmt.Printf("  factors          %d entries\n", s.FactorEntries)
	fmt.Printf("  max worker peak  %d entries (bound %d)\n", s.PeakStack, s.PeakBound)
	for w, p := range s.WorkerPeaks {
		fmt.Printf("  worker %-2d        peak %d entries (stack-only %d)\n", w, p, s.WorkerStackPeaks[w])
	}
	fmt.Printf("  deviations %d, waits %d, forced %d\n", s.Deviations, s.Waits, s.Forced)
	fmt.Printf("  within-front     %d split fronts, %d slave tasks (%d stolen), slaves=%v, block-rows=%d\n",
		s.SplitFronts, s.SlaveTasks, s.SlaveSteals, pcfg.SlavePolicy, common.BlockRows)
	if s.Root2DFronts > 0 {
		fmt.Printf("  type-3 root      %d front(s) on a 2D tile grid, %.3fs in the root front\n",
			s.Root2DFronts, float64(s.RootFrontNs)/1e9)
	} else if s.RootFrontNs > 0 {
		fmt.Printf("  root front       1D split, %.3fs\n", float64(s.RootFrontNs)/1e9)
	}

	rng := rand.New(rand.NewSource(1))
	b := make([]float64, a.N*common.NRHS)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	t0 = time.Now()
	x, err := pf.Solver(0).SolveOriginalMultiCtx(ctx, b, common.NRHS)
	if err != nil {
		fatal(err)
	}
	solveT := time.Since(t0)
	fmt.Printf("  solve            %.3fs wall for %d rhs (%.2f ms/rhs), residual %.3g\n",
		solveT.Seconds(), common.NRHS, solveT.Seconds()*1e3/float64(common.NRHS),
		residual(a, x, b, common.NRHS))

	if *seq {
		t0 = time.Now()
		sf, err := an.FactorizeCtx(ctx)
		if err != nil {
			fatal(err)
		}
		seqT := time.Since(t0)
		fmt.Printf("sequential: %.3fs wall, peak %d entries\n", seqT.Seconds(), sf.Stats.PeakStack)
		fmt.Printf("  speedup          %.2fx\n", seqT.Seconds()/parT.Seconds())
		var maxDiff float64
		for ni := 0; ni < an.Tree.Len(); ni++ {
			na, nb := sf.Front().Node(ni), pf.Front().Node(ni)
			for p, v := range na.L.A {
				if d := math.Abs(v - nb.L.A[p]); d > maxDiff {
					maxDiff = d
				}
			}
			if na.U != nil {
				for p, v := range na.U.A {
					if d := math.Abs(v - nb.U.A[p]); d > maxDiff {
						maxDiff = d
					}
				}
			}
		}
		fmt.Printf("  max factor diff  %.3g\n", maxDiff)
	}

	if err := obs.Finish(pf.Stats.ExecStats); err != nil {
		log.Fatalf("observability outputs: %v", err)
	}
}

// residual returns the worst relative residual over the nrhs columns of
// the row-major n x nrhs solution and right-hand-side blocks.
func residual(a *sparse.CSC, x, b []float64, nrhs int) float64 {
	xc := make([]float64, a.N)
	var worst float64
	for c := 0; c < nrhs; c++ {
		for i := 0; i < a.N; i++ {
			xc[i] = x[i*nrhs+c]
		}
		ax := a.MulVec(xc)
		var rn, bn float64
		for i := range ax {
			d := ax[i] - b[i*nrhs+c]
			rn += d * d
			bc := b[i*nrhs+c]
			bn += bc * bc
		}
		if r := math.Sqrt(rn / bn); r > worst {
			worst = r
		}
	}
	return worst
}
