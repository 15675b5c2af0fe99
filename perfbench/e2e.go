package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/assembly"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/parmf"
	"repro/internal/parsim"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// timed runs fn after a collection, so garbage an earlier call left is
// not billed to it, and returns its wall seconds.
func timed(fn func() error) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// A task is one timed call sequence of the end-to-end run, made on one
// matrix at a time, round robin over the workload's matrices.
type task struct {
	share float64 // target share of the measuring time
	run   func(p *problem, s samples) error
	spent float64 // seconds the task's steps took so far
	steps int
}

// Time shares of the end-to-end tasks, one per timing. A timing's
// run-to-run spread shrinks with the number of samples behind its median
// and how far apart in time they lie, and the one-shot solve costs the
// most per sample, so it gets the largest share.
const (
	shareOneShot = 0.30 // tts_s
	shareSim     = 0.18 // sim_s
	sharePar     = 0.18 // par_factor_s
	shareFactor  = 0.20 // factor_s
	shareSolve   = 0.14 // solve_s
)

// runEndToEnd measures the end-to-end metrics with tracing off: set-up
// and warm-up, then o.Seconds of timed calls. Each step runs the task
// furthest below its share of the time spent on the next matrix in turn,
// so every timing's samples are spread over the whole measuring time.
// A timing is the sum over the workload's matrices of the median of the
// matrix's samples. Measuring stops before a step that would end past
// o.Seconds, once every task has run on every matrix.
func runEndToEnd(o options, w workloadSpec) (*result, error) {
	setups := samples{}
	var ps []*problem
	for i := 0; i < setupReps; i++ {
		var sec float64
		var err error
		if ps, sec, err = setup(o, w); err != nil {
			return nil, err
		}
		setups.add("setup_s", sec)
	}
	kernel, err := warmUp(ps)
	if err != nil {
		return nil, err
	}
	// The solves start against untimed factors; each factorCall replaces
	// them. Closing them at the end only releases memory and the spill
	// file, which main removes with its directory, so errors are dropped.
	defer func() {
		for _, p := range ps {
			if p.Seq != nil {
				p.Seq.Close()
			}
		}
	}()
	for _, p := range ps {
		if p.Seq, _, err = factorSeq(w, p); err != nil {
			return nil, fmt.Errorf("perfbench: warm-up %s: %w", p.Name, err)
		}
	}
	r := &result{Kernel: kernel}
	tasks := []*task{
		{share: shareOneShot, run: func(p *problem, s samples) error { oneShotCall(o, w, p, s, r); return nil }},
		{share: shareSim, run: func(p *problem, s samples) error { simCall(p, s, r); return nil }},
		{share: sharePar, run: func(p *problem, s samples) error { parCall(o, w, p, s, r); return nil }},
		{share: shareFactor, run: func(p *problem, s samples) error { return factorCall(w, p, s, r) }},
		{share: shareSolve, run: func(p *problem, s samples) error { solveCall(p, s, r); return nil }},
	}
	perMatrix := make([]samples, len(ps))
	for i := range perMatrix {
		perMatrix[i] = samples{}
	}
	// passes is how many times every task has run on every matrix.
	passes := func() int {
		n := tasks[0].steps
		for _, t := range tasks[1:] {
			n = min(n, t.steps)
		}
		return n / len(ps)
	}
	start := time.Now()
	for {
		t := tasks[0]
		for _, u := range tasks[1:] {
			if u.spent/u.share < t.spent/t.share {
				t = u
			}
		}
		if passes() > 0 && time.Since(start).Seconds()+t.spent/float64(t.steps) > o.Seconds {
			break
		}
		i := t.steps % len(ps)
		t0 := time.Now()
		if err := t.run(ps[i], perMatrix[i]); err != nil {
			return nil, err
		}
		t.spent += time.Since(t0).Seconds()
		t.steps++
	}
	r.Reps = passes()
	return r, r.finish(endToEnd, append([]samples{setups}, perMatrix...))
}

// oneShotCall times the time to solution from the matrix alone: a
// fresh analysis, then the parallel factorization and tree-parallel
// solve.
func oneShotCall(o options, w workloadSpec, p *problem, s samples, r *result) {
	var x []float64
	sec, err := timed(func() error {
		an, err := core.Analyze(p.A, o.config(w))
		if err != nil {
			return err
		}
		pcfg := parmf.DefaultConfig(o.Workers)
		var pf *parmf.Factors
		if w.OOC {
			if pf, _, err = an.FactorizeParallelOOC(pcfg); err != nil {
				return err
			}
			defer pf.Close()
			x, err = pf.Solver(o.Workers).SolveOriginalMulti(p.B, p.NRHS)
		} else {
			x, pf, err = an.FactorizeParallelAndSolve(pcfg, p.B, p.NRHS)
		}
		if err == nil {
			err = faultFree(pf.Stats.ExecStats)
		}
		return err
	})
	s.add("tts_s", sec)
	r.check(p, "one-shot parallel solve", x, err)
}

// simCall times the paper's simulator on the set-up tree at 32
// processors, under the memory-based and the workload strategy.
func simCall(p *problem, s samples, r *result) {
	mp := assembly.Map(p.An.Tree, assembly.DefaultMapOptions(simProcs))
	var mem *parsim.Result
	sec, err := timed(func() error {
		var err error
		if mem, err = simulate(p, mp, parsim.MemoryBased()); err == nil {
			_, err = simulate(p, mp, parsim.Workload())
		}
		return err
	})
	s.add("sim_s", sec)
	r.Attempted++
	if err != nil {
		r.fail("%s: simulation: %v", p.Name, err)
		return
	}
	s.add("sim_peak_entries", float64(mem.MaxActivePeak))
}

// seqFactors are sequential factors that solves run against, in memory
// or in a file-backed store.
type seqFactors interface {
	SolveOriginalMulti(b []float64, nrhs int) ([]float64, error)
	Close() error
}

// factorSeq factorizes p sequentially, reusing the set-up analysis, into
// the workload's store.
func factorSeq(w workloadSpec, p *problem) (seqFactors, memory.ExecStats, error) {
	if w.OOC {
		f, _, err := p.An.FactorizeOOC()
		if err != nil {
			return nil, memory.ExecStats{}, err
		}
		return f, f.Stats, nil
	}
	f, err := p.An.Factorize()
	if err != nil {
		return nil, memory.ExecStats{}, err
	}
	return f, f.Stats, nil
}

// factorCall times the sequential factorization that reuses the set-up
// analysis, as in a Newton or time-stepping loop. Its factors replace
// the matrix's earlier ones, so the solves that follow check them.
func factorCall(w workloadSpec, p *problem, s samples, r *result) error {
	var f seqFactors
	var st memory.ExecStats
	sec, err := timed(func() (err error) {
		f, st, err = factorSeq(w, p)
		return err
	})
	if err == nil {
		err = faultFree(st)
	}
	if err != nil {
		r.Attempted++
		r.fail("%s: sequential factorization: %v", p.Name, err)
		if f != nil {
			return f.Close()
		}
		return nil
	}
	s.add("factor_s", sec)
	s.add("factor_entries", float64(st.FactorEntries))
	s.add("stack_peak_entries", float64(st.PeakStack))
	s.add("resident_peak_entries", float64(st.ResidentPeak))
	if err := p.Seq.Close(); err != nil {
		return fmt.Errorf("perfbench: close %s factors: %w", p.Name, err)
	}
	p.Seq = f
	return nil
}

// solveCall times one blocked multi-RHS solve against the matrix's
// latest sequential factors.
func solveCall(p *problem, s samples, r *result) {
	var x []float64
	sec, err := timed(func() (err error) {
		x, err = p.Seq.SolveOriginalMulti(p.B, p.NRHS)
		return err
	})
	s.add("solve_s", sec)
	r.check(p, "sequential solve", x, err)
}

// parCall times the factorization of seqCalls at workers = nproc.
func parCall(o options, w workloadSpec, p *problem, s samples, r *result) {
	pcfg := parmf.DefaultConfig(o.Workers)
	var pf *parmf.Factors
	sec, err := timed(func() (err error) {
		if w.OOC {
			pf, _, err = p.An.FactorizeParallelOOC(pcfg)
		} else {
			pf, err = p.An.FactorizeParallel(pcfg)
		}
		return err
	})
	s.add("par_factor_s", sec)
	if err == nil {
		err = faultFree(pf.Stats.ExecStats)
		if pf.Stats.FactorEntries != p.Entries {
			err = fmt.Errorf("parallel factor entries %d, sequential %d", pf.Stats.FactorEntries, p.Entries)
		}
		pf.Close()
	}
	if err != nil {
		r.Attempted++
		r.fail("%s: parallel factorization: %v", p.Name, err)
	}
}

// simulate runs the parallel factorization simulator and checks that it
// completed every front.
func simulate(p *problem, mp *assembly.Mapping, st parsim.Strategy) (*parsim.Result, error) {
	res, err := parsim.Run(parsim.Config{Tree: p.An.Tree, Map: mp, Strategy: st, Params: parsim.DefaultParams()})
	if err == nil && res.NodesDone != p.An.Tree.Len() {
		err = fmt.Errorf("simulated %d of %d fronts", res.NodesDone, p.An.Tree.Len())
	}
	return res, err
}

// faultFree fails a factorization that needed spill retries or kept
// blocks in memory after a failed write.
func faultFree(st memory.ExecStats) error {
	if st.Retries != 0 || st.DegradedBlocks != 0 {
		return fmt.Errorf("%d spill retries, %d degraded blocks", st.Retries, st.DegradedBlocks)
	}
	return nil
}

// check accounts one solve: it fails on an error, a scaled residual above
// residualTol, or a solution that differs in any bit from the in-core
// sequential reference.
func (r *result) check(p *problem, what string, x []float64, err error) {
	r.Attempted++
	switch {
	case err != nil:
		r.fail("%s: %s: %v", p.Name, what, err)
	case !(p.residual(x) <= residualTol):
		r.fail("%s: %s: scaled residual %.3g above %.0g", p.Name, what, p.residual(x), residualTol)
	case !sameBits(x, p.XRef):
		r.fail("%s: %s: solution differs from the in-core sequential one", p.Name, what)
	}
}
