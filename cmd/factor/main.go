// Command factor runs the numeric multifrontal factorization of one
// matrix, solves -nrhs right-hand sides against it, and reports
// wall-clock time, memory peaks and scheduling statistics.
//
// Usage:
//
//	factor -matrix NAME|-mm FILE [-ordering METIS|PORD|AMD|AMF|RCM|NATURAL]
//	       [-workers W] [-store mem|file] [-budget ENTRIES] [-dir DIR]
//	       [-policy memory|depthfirst] [-bound ENTRIES]
//	       [-split N] [-front-split N] [-block-rows N] [-root-grid N]
//	       [-slaves memory|workload] [-kernel FAMILY] [-nrhs K] [-seq]
//	       [-small] [-trace FILE] [-metrics FILE] [-pprof PREFIX]
//	       [-listen HOST:PORT] [-listen-linger D] [-timeout D] [-faults SPEC]
//
// -matrix picks a problem of the paper's Table-1 suite (pattern-only
// analogues get deterministic diagonally dominant values); -mm reads a
// MatrixMarket file. -workers 1 runs the sequential executor, more the
// shared-memory parallel one (Algorithm-2 task selection under -policy
// and -bound; fronts of at least -front-split rows split into
// -block-rows row blocks with the slaves picked by -slaves, Algorithm 1;
// split roots on a 2D tile grid of -root-grid rows). -kernel picks the
// update kernel family: default, simd or auto.
//
// -store mem keeps the factor blocks resident. -store file spills each
// block to disk as it is produced (-budget bounds the resident spill
// buffer and the solve's read-ahead, -dir places the spill file), then
// also factors in-core at the same worker count and prints both
// measured resident peaks next to the simulator's prediction and the
// solution difference between the two runs. -seq adds the
// sequential in-core reference: the speedup over it and the largest
// factor and solution differences. Every difference is exactly 0 for
// every kernel family, store and worker count: pivoting is static, the
// partitions are pure functions of the front, and the spill format
// round-trips float bits.
//
// -timeout bounds the run with a context deadline (the executors and the
// spill writer drain and the command exits nonzero); -faults arms a
// deterministic fault-injection schedule (internal/faults grammar, e.g.
// 'spill-write:error:2:3'); spill-write failures are retried, then
// degraded to resident blocks, with identical numerics. -trace writes a
// Chrome trace_event JSON of the run, -metrics the counters snapshot of
// the main run (Prometheus text, or JSON with a .json path), -pprof CPU
// and heap profiles, and -listen serves /metrics, /progress, /runs,
// /trace.json, /timeline.csv and /debug/pprof live during the run
// (-listen-linger keeps it up afterwards).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/ooc"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sparse"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "factor: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, analyze, factorize, solve and
// report to stdout. A failure after the observability plane is up goes
// through it first: the registered run flips to "failed" (visible
// through -listen-linger) and the trace/metrics/profile outputs are
// still written for post-mortem.
func run(args []string, stdout, stderr io.Writer) error {
	fl, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	a, err := fl.load()
	if err != nil {
		return err
	}
	o, err := fl.observability(stderr)
	if err != nil {
		return err
	}
	inj, _ := fl.injector() // validated above
	cfg := fl.coreConfig()
	cfg.Tracer, cfg.Faults = o.Tracer, inj
	o.SetFaults(inj)
	ctx, cancel := fl.context()
	defer cancel()

	stats, err := report(ctx, fl, a, cfg, fl.parmfConfig(), o, stdout)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("run exceeded -timeout %v: %w", fl.Timeout, err)
		}
		o.Abort(err, memory.ExecStats{})
		return err
	}
	if err := o.Finish(stats); err != nil {
		return fmt.Errorf("observability outputs: %w", err)
	}
	return nil
}

// runner factorizes and solves one analysis with the run's settings.
type runner struct {
	an   *core.Analysis
	pcfg parmf.Config
	obs  *Obs
	b    []float64 // n x nrhs right-hand sides, row-major, original ordering
	nrhs int
}

// result is one factorize + solve: the closed factors, whose
// statistics and in-memory slab stay readable, the solution, the spill
// statistics after the solve (nil in core) and the two wall times.
type result struct {
	*core.Factors
	spill   *ooc.Stats
	x       []float64
	factorT time.Duration
	solveT  time.Duration
}

// factorize factors with the given worker count (1 = the sequential
// executor), into a file store when file is set, solves the run's
// right-hand sides and releases the store.
func (r *runner) factorize(ctx context.Context, workers int, file bool) (*result, error) {
	plan := core.Plan{File: file}
	if workers > 1 {
		pcfg := r.pcfg
		pcfg.Workers = workers
		plan.Parallel = &pcfg
	}
	t0 := time.Now()
	f, err := r.an.Run(ctx, plan)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res := &result{Factors: f, factorT: time.Since(t0)}
	if f.Store != nil && r.obs.Run != nil {
		// /progress carries the spill-store counters from here on (the
		// solve phase still accrues reads, and the final numbers stay
		// visible through -listen-linger).
		r.obs.Run.SetSpill(f.Store.Stats)
	}
	t0 = time.Now()
	if res.x, err = f.Solve(ctx, r.b, r.nrhs); err != nil {
		return nil, err
	}
	res.solveT = time.Since(t0)
	// Snapshot spill stats only after the solve: DirectReads counts
	// solve-phase fetches that outran the prefetcher.
	if f.Store != nil {
		s := f.Store.Stats()
		res.spill = &s
	}
	return res, nil
}

// report analyzes a, runs the factorizations the flags ask for and
// prints the report to w. It returns the main run's stats.
func report(ctx context.Context, fl *flags, a *sparse.CSC, cfg core.Config, pcfg parmf.Config, o *Obs, w io.Writer) (memory.ExecStats, error) {
	an, err := core.Analyze(a, cfg)
	if err != nil {
		return memory.ExecStats{}, err
	}
	st := an.Stats()
	fmt.Fprintf(w, "matrix:    n=%d nnz=%d %v\n", st.N, st.NNZ, a.Kind)
	fmt.Fprintf(w, "analysis:  %d fronts, max front %d, %d split; factors %d entries, sequential stack peak %d\n",
		st.Fronts, st.MaxFront, st.SplitCount, st.FactorEntries, st.SeqPeak)

	b := rhs(a.N, fl.NRHS)
	r := &runner{an: an, pcfg: pcfg, obs: o, b: b, nrhs: fl.NRHS}
	file := fl.Store == "file"
	m, err := r.factorize(ctx, fl.Workers, file)
	if err != nil {
		return memory.ExecStats{}, err
	}
	s := m.Stats
	if p := m.Sched; p != nil {
		fmt.Fprintf(w, "parallel:  %d workers, policy %v, kernels %s, store %s, %.3fs wall\n",
			p.Workers, pcfg.Policy, s.Kernel, fl.Store, m.factorT.Seconds())
		fmt.Fprintf(w, "  factors          %d entries\n", s.FactorEntries)
		fmt.Fprintf(w, "  max worker peak  %d entries (bound %d)\n", s.PeakStack, p.PeakBound)
		for i, pk := range p.WorkerPeaks {
			fmt.Fprintf(w, "  worker %-2d        peak %d entries (stack-only %d)\n", i, pk, p.WorkerStackPeaks[i])
		}
		fmt.Fprintf(w, "  deviations %d, waits %d, forced %d\n", p.Deviations, p.Waits, p.Forced)
		fmt.Fprintf(w, "  within-front     %d split fronts, %d slave tasks (%d stolen), slaves=%v, block-rows=%d\n",
			p.SplitFronts, p.SlaveTasks, p.SlaveSteals, pcfg.SlavePolicy, fl.BlockRows)
		if p.Root2DFronts > 0 {
			fmt.Fprintf(w, "  type-3 root      %d front(s) on a 2D tile grid, %.3fs in the root front\n",
				p.Root2DFronts, float64(p.RootFrontNs)/1e9)
		} else if p.RootFrontNs > 0 {
			fmt.Fprintf(w, "  root front       1D split, %.3fs\n", float64(p.RootFrontNs)/1e9)
		}
	} else {
		fmt.Fprintf(w, "sequential: 1 worker, kernels %s, store %s, %.3fs wall\n", s.Kernel, fl.Store, m.factorT.Seconds())
		fmt.Fprintf(w, "  factors          %d entries\n", s.FactorEntries)
		fmt.Fprintf(w, "  stack peak       %d entries\n", s.PeakStack)
	}
	fmt.Fprintf(w, "  solve            %.3fs wall for %d rhs (%.2f ms/rhs), residual %.3g\n",
		m.solveT.Seconds(), fl.NRHS, m.solveT.Seconds()*1e3/float64(fl.NRHS), residual(a, m.x, b, fl.NRHS))
	if s.Retries > 0 || s.DegradedBlocks > 0 {
		fmt.Fprintf(w, "  resilience       %d spill I/O retries, %d blocks degraded to in-core (numerics unaffected)\n",
			s.Retries, s.DegradedBlocks)
	}

	// incore is the in-memory run at the main run's worker count: the main
	// run itself, or its in-core twin next to a file store.
	incore := m
	if file {
		sp := m.spill
		fmt.Fprintf(w, "  spill            %d blocks, %.1f MiB; buffer peak %d entries, %d put waits, %d block reads in %d reads, %d direct; %d bytes written, %d read\n",
			sp.Blocks, float64(sp.BytesWritten)/(1<<20), sp.BufferPeak, sp.PutWaits, sp.BlocksRead, sp.Reads, sp.DirectReads, sp.BytesWritten, sp.BytesRead)
		if incore, err = r.factorize(ctx, fl.Workers, false); err != nil {
			return memory.ExecStats{}, err
		}
		fmt.Fprintf(w, "in-core:   %.3fs factor, %.3fs solve; max |x_incore - x_ooc| = %g over %d rhs (bitwise identical factors)\n",
			incore.factorT.Seconds(), incore.solveT.Seconds(), maxDiff(incore.x, m.x), fl.NRHS)
		// The simulator's prediction for the same processor count: the
		// in-core total peak vs the stack-only peak that remains resident
		// out-of-core.
		sim, err := an.Simulate(parsim.MemoryBased())
		if err != nil {
			return memory.ExecStats{}, err
		}
		t := metrics.New(fmt.Sprintf("measured vs simulated resident peaks (%d workers, entries)", fl.Workers),
			"source", "in-core total", "OOC resident", "saving %")
		t.AddRow("simulated (max/proc)", sim.MaxTotalPeak, sim.MaxActivePeak,
			fmt.Sprintf("%.1f", metrics.PercentDecrease(sim.MaxTotalPeak, sim.MaxActivePeak)))
		in, out := incore.Stats.ResidentPeak, s.ResidentPeak
		t.AddRow("measured (process)", in, out, fmt.Sprintf("%.1f", metrics.PercentDecrease(in, out)))
		fmt.Fprintln(w, t.Render())
	}

	if fl.Seq {
		ref, err := r.factorize(ctx, 1, false)
		if err != nil {
			return memory.ExecStats{}, err
		}
		fmt.Fprintf(w, "sequential in-core reference: %.3fs wall, peak %d entries\n",
			ref.factorT.Seconds(), ref.Stats.PeakStack)
		fmt.Fprintf(w, "  speedup          %.2fx\n", ref.factorT.Seconds()/m.factorT.Seconds())
		fmt.Fprintf(w, "  max factor diff  %.3g\n", maxDiff(ref.Front.Slab(), incore.Front.Slab()))
		fmt.Fprintf(w, "  max x diff       %g over %d rhs\n", maxDiff(ref.x, m.x), fl.NRHS)
	}
	return s, nil
}

// rhs returns the run's n x nrhs right-hand sides (row-major, seed 1).
func rhs(n, nrhs int) []float64 {
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, n*nrhs)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// maxDiff is the largest entrywise difference of two equal-length slices.
func maxDiff(a, b []float64) float64 {
	var d float64
	for i, v := range a {
		d = math.Max(d, math.Abs(v-b[i]))
	}
	return d
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
