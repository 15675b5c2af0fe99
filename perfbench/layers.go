package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/assembly"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/etree"
	"repro/internal/front"
	"repro/internal/metrics"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// runLayers is the layer pass: after the same set-up as the end-to-end
// run it repeats passes for o.Seconds, stopping before a pass that would
// end past them once one has run. Each pass times calls into every
// module's public functions from outside and runs one traced
// factorization and solve per matrix. Each metric is the median over
// passes.
func runLayers(o options, w workloadSpec) (*result, error) {
	ps, _, err := setup(o, w)
	if err != nil {
		return nil, err
	}
	kernel, err := warmUp(ps)
	if err != nil {
		return nil, err
	}
	r := &result{Kernel: kernel}
	s := samples{}
	start := time.Now()
	for {
		t0 := time.Now()
		if err := layerPass(o, w, ps, s, r); err != nil {
			return nil, err
		}
		r.Reps++
		if time.Since(start).Seconds()+time.Since(t0).Seconds() > o.Seconds {
			break
		}
	}
	return r, r.finish(perLayer, []samples{s})
}

// passTotals accumulates one pass over the workload's matrices; ratios
// are formed from the totals, so every matrix weighs by its work.
type passTotals struct {
	samples // sums over matrices

	seqFactor, parFactor   float64 // untraced factorization seconds
	untraced, traced       float64 // parallel factorization + solve seconds
	busy, capacity         float64 // traced worker-busy and workers × factor wall seconds
	solveCapacity          float64 // workers × traced solve wall seconds
	directReads, blockRead float64
	memPeak, workPeak      float64 // simulated peaks under each strategy
	maxFront, workerPeak   float64
	peakOverBound          float64
}

func layerPass(o options, w workloadSpec, ps []*problem, s samples, r *result) error {
	t := &passTotals{samples: samples{}}
	for _, p := range ps {
		if err := analysisLayers(o, w, p, t); err != nil {
			return err
		}
		if err := executorLayers(o, w, p, t, r); err != nil {
			return err
		}
		if err := oocLayer(p, t, r); err != nil {
			return err
		}
		if err := simLayer(p, t); err != nil {
			return err
		}
	}
	rate, err := denseRate(ps)
	if err != nil {
		return err
	}
	for name, v := range t.samples {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		s.add(name, sum)
	}
	s.add("dense.gflops", rate)
	s.add("assembly.max_front", t.maxFront)
	s.add("parmf.speedup", t.seqFactor/t.parFactor)
	s.add("parmf.busy_frac", t.busy/t.capacity)
	s.add("parmf.worker_peak_entries", t.workerPeak)
	s.add("parmf.peak_over_bound", t.peakOverBound)
	s.add("ooc.prefetch_hit_ratio", 1-t.directReads/t.blockRead)
	s.add("parsim.gain_pct", metrics.PercentDecrease(int64(t.workPeak), int64(t.memPeak)))
	s.add("trace.overhead", t.traced/t.untraced)
	s.add("host.calib_s", calibrate())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.add("host.gc_frac", ms.GCCPUFraction)
	return nil
}

// analysisLayers times core.Analyze, then the same pipeline step by step
// through the public functions of order, sparse, etree and assembly, so
// the component timings account for the facade's.
func analysisLayers(o options, w workloadSpec, p *problem, t *passTotals) error {
	cfg := o.config(w)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	an, err := core.Analyze(p.A, cfg)
	if err != nil {
		return fmt.Errorf("perfbench: analyze %s: %w", p.Name, err)
	}
	t.add("core.analyze_s", time.Since(t0).Seconds())
	runtime.ReadMemStats(&m1)
	t.add("core.analyze_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)

	a := p.A
	runtime.GC()
	lap := stopwatch()
	perm := order.Compute(a, cfg.Ordering)
	t.add("order.compute_s", lap())
	pa := a.Permute(perm)
	permute := lap()
	parent := etree.Compute(pa)
	perm = etree.ApplyPostorder(perm, etree.Postorder(parent))
	symbolic := lap()
	pa = a.Permute(perm)
	t.add("sparse.permute_s", permute+lap())
	parent = etree.Compute(pa)
	counts := etree.ColCounts(pa, parent)
	super, memb := etree.Supernodes(parent, counts)
	super, memb = etree.Amalgamate(parent, counts, super, memb, cfg.Amalg)
	t.add("etree.symbolic_s", symbolic+lap())
	tree := assembly.BuildTree(pa, parent, super, memb)
	tree.Kind, tree.Perm = a.Kind, perm
	t.add("assembly.build_tree_s", lap())
	assembly.TreePeak(assembly.SortChildrenLiu(tree), tree)
	mp := assembly.Map(tree, assembly.DefaultMapOptions(cfg.Procs))
	err = mp.Validate(tree)
	t.add("assembly.liu_map_s", lap())
	if err != nil || tree.Len() != an.Tree.Len() || !slices.Equal(tree.Perm, an.Tree.Perm) {
		return fmt.Errorf("perfbench: %s: the step-by-step analysis no longer matches core.Analyze (mapping: %v)", p.Name, err)
	}
	// The analysis symmetrizes an unsymmetric pattern inside ordering,
	// etree and tree building; one standalone call rates that kernel.
	sym := 0.0
	if a.Kind != sparse.Symmetric {
		runtime.GC()
		lap = stopwatch()
		sparse.SymmetrizePattern(pa)
		sym = lap()
	}
	t.add("sparse.symmetrize_s", sym)

	st := an.Stats()
	t.add("assembly.fronts", float64(st.Fronts))
	t.add("assembly.gflop", float64(st.Flops)/1e9)
	t.add("assembly.seq_peak_entries", float64(st.SeqPeak))
	t.maxFront = max(t.maxFront, float64(st.MaxFront))
	return nil
}

// stopwatch returns a function giving the seconds since its last call.
func stopwatch() func() float64 {
	last := time.Now()
	return func() float64 {
		now := time.Now()
		d := now.Sub(last).Seconds()
		last = now
		return d
	}
}

// executorLayers runs the parallel factorization and solve twice, untraced
// and traced, plus one untraced sequential factorization. The untraced
// run gives the executor's counters and the speed-up; the traced run
// gives the per-phase seconds of the front and nodepar layers.
func executorLayers(o options, w workloadSpec, p *problem, t *passTotals, r *result) error {
	pcfg := parmf.DefaultConfig(o.Workers)
	factorPar := func(an *core.Analysis) (*parmf.Factors, error) {
		if w.OOC {
			f, _, err := an.FactorizeParallelOOC(pcfg)
			return f, err
		}
		return an.FactorizeParallel(pcfg)
	}

	var seq interface{ Close() error }
	sec, err := timed(func() (err error) {
		if w.OOC {
			seq, _, err = p.An.FactorizeOOC()
		} else {
			seq, err = p.An.Factorize()
		}
		return err
	})
	if err == nil {
		err = seq.Close()
	}
	if err != nil {
		return fmt.Errorf("perfbench: %s: sequential factorization: %w", p.Name, err)
	}
	t.seqFactor += sec

	var pf *parmf.Factors
	fsec, err := timed(func() (err error) { pf, err = factorPar(p.An); return err })
	if err != nil {
		return fmt.Errorf("perfbench: %s: parallel factorization: %w", p.Name, err)
	}
	var x []float64
	ssec, err := timed(func() (err error) { x, err = pf.SolveOriginalMulti(p.B, p.NRHS); return err })
	if err == nil {
		err = faultFree(pf.Stats.ExecStats)
	}
	r.check(p, "parallel solve", x, err)
	pf.Close()
	t.parFactor += fsec
	t.untraced += fsec + ssec
	t.add("parmf.solve_s", ssec)
	ps := pf.Stats
	t.add("parmf.tasks", float64(ps.Tasks))
	t.add("parmf.deviations", float64(ps.Deviations))
	t.add("parmf.waits", float64(ps.Waits))
	t.add("parmf.forced", float64(ps.Forced))
	t.add("nodepar.split_fronts", float64(ps.SplitFronts))
	t.add("nodepar.slave_tasks", float64(ps.SlaveTasks))
	t.add("nodepar.slave_steals", float64(ps.SlaveSteals))
	t.add("nodepar.root_front_s", float64(ps.RootFrontNs)/1e9)
	peak := float64(slices.Max(ps.WorkerPeaks))
	t.workerPeak = max(t.workerPeak, peak)
	t.peakOverBound = max(t.peakOverBound, peak/float64(ps.PeakBound))

	// The traced run: the tracer rides in through core.Config.Tracer.
	traced := *p.An
	tr := trace.New(o.Workers)
	traced.Config.Tracer = tr
	fsec, err = timed(func() (err error) { pf, err = factorPar(&traced); return err })
	if err != nil {
		return fmt.Errorf("perfbench: %s: traced parallel factorization: %w", p.Name, err)
	}
	ssec, err = timed(func() (err error) { x, err = pf.SolveOriginalMulti(p.B, p.NRHS); return err })
	if err == nil {
		err = faultFree(pf.Stats.ExecStats)
	}
	r.check(p, "traced parallel solve", x, err)
	pf.Close()
	t.traced += fsec + ssec
	t.busy += busySeconds(tr)
	t.capacity += float64(o.Workers) * fsec
	t.solveCapacity += float64(o.Workers) * ssec
	snap := tr.Snapshot(pf.Stats.ExecStats)
	t.add("front.assemble_s", phaseSeconds(snap, trace.SpanAssemble))
	t.add("front.extend_add_s", phaseSeconds(snap, trace.SpanExtendAdd))
	t.add("front.eliminate_s", phaseSeconds(snap, trace.SpanFactor))
	t.add("front.extend_add_ops", float64(pf.Stats.AssemblyOps))
	t.add("front.solve_fwd_s", phaseSeconds(snap, trace.SpanSolveFwd))
	t.add("front.solve_bwd_s", phaseSeconds(snap, trace.SpanSolveBwd))
	t.add("nodepar.master_s", phaseSeconds(snap, trace.SpanMaster))
	t.add("nodepar.tile_s", phaseSeconds(snap, trace.SpanTile))
	t.add("trace.events", float64(tr.Events()))
	return nil
}

// phaseSeconds is the summed span seconds of one phase of a snapshot.
func phaseSeconds(s trace.Snapshot, phase string) float64 {
	for _, ph := range s.Phases {
		if ph.Phase == phase {
			return ph.Seconds
		}
	}
	return 0
}

// busySeconds sums, over the worker tracks, the time covered by task,
// subtree and row-block/tile spans — nested spans counted once.
func busySeconds(tr *trace.Tracer) float64 {
	var ns int64
	for _, tk := range tr.Tracks() {
		if trace.WorkerIndex(tk.Index) < 0 {
			continue
		}
		depth, start := 0, int64(0)
		for _, e := range tk.Events {
			if e.Name != trace.SpanTask && e.Name != trace.SpanSubtree && e.Name != trace.SpanTile {
				continue
			}
			switch e.Kind {
			case trace.KindBegin:
				if depth == 0 {
					start = e.T
				}
				depth++
			case trace.KindEnd:
				if depth--; depth == 0 {
					ns += e.T - start
				}
			}
		}
	}
	return float64(ns) / 1e9
}

// oocLayer runs one traced sequential out-of-core factorization and solve
// on every workload, reading the store's counters and spill-write spans.
func oocLayer(p *problem, t *passTotals, r *result) error {
	an := *p.An
	tr := trace.New(1)
	an.Config.Tracer = tr
	runtime.GC()
	f, store, err := an.FactorizeOOC()
	if err != nil {
		return fmt.Errorf("perfbench: %s: out-of-core factorization: %w", p.Name, err)
	}
	x, err := f.SolveOriginalMulti(p.B, p.NRHS)
	if err == nil {
		err = faultFree(f.Stats)
	}
	r.check(p, "out-of-core solve", x, err)
	st := store.Stats()
	if err := f.Close(); err != nil {
		return fmt.Errorf("perfbench: %s: close spill store: %w", p.Name, err)
	}
	t.add("ooc.spill_mb", float64(st.BytesWritten)/1e6)
	t.add("ooc.blocks", float64(st.Blocks))
	t.add("ooc.put_waits", float64(st.PutWaits))
	t.add("ooc.spill_write_s", phaseSeconds(tr.Snapshot(f.Stats), trace.SpanSpill))
	t.add("ooc.blocks_read", float64(st.BlocksRead))
	t.add("ooc.retries", float64(st.Retries))
	t.directReads += float64(st.DirectReads)
	t.blockRead += float64(st.BlocksRead)
	return nil
}

// simLayer times the simulator per strategy on the analysed tree.
func simLayer(p *problem, t *passTotals) error {
	mp := assembly.Map(p.An.Tree, assembly.DefaultMapOptions(simProcs))
	var mem, work *parsim.Result
	sec, err := timed(func() (err error) { mem, err = simulate(p, mp, parsim.MemoryBased()); return err })
	if err != nil {
		return fmt.Errorf("perfbench: %s: simulation: %w", p.Name, err)
	}
	t.add("parsim.memory_s", sec)
	if sec, err = timed(func() (err error) { work, err = simulate(p, mp, parsim.Workload()); return err }); err != nil {
		return fmt.Errorf("perfbench: %s: simulation: %w", p.Name, err)
	}
	t.add("parsim.workload_s", sec)
	t.add("parsim.makespan_ticks", float64(mem.Makespan))
	t.memPeak += float64(mem.MaxActivePeak)
	t.workPeak += float64(work.MaxActivePeak)
	return nil
}

// denseRate rates the dense partial factorization kernel, with the
// default kernel family and block rows, on a dense front of the shape of
// the workload's largest front.
func denseRate(ps []*problem) (float64, error) {
	var big *assembly.Node
	var an *core.Analysis
	for _, p := range ps {
		for i := range p.An.Tree.Nodes {
			if nd := &p.An.Tree.Nodes[i]; big == nil || nd.NFront() > big.NFront() {
				big, an = nd, p.An
			}
		}
	}
	n, kind := big.NFront(), an.Tree.Kind
	orig := dense.New(n, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := -rng.Float64()
			orig.Set(i, j, v)
			orig.Set(j, i, v)
		}
		orig.Set(i, i, float64(n+1))
	}
	blockRows := an.Config.BlockRows
	if blockRows == 0 {
		blockRows = dense.DefaultBlockRows
	}
	f := dense.New(n, n)
	var sec float64
	calls := 0
	for calls == 0 || sec < 0.25 {
		copy(f.A, orig.A)
		t0 := time.Now()
		if err := front.EliminateKernel(f, big.NPiv(), kind, 1e-12, blockRows, an.Config.Kernel); err != nil {
			return 0, fmt.Errorf("perfbench: dense kernel: %w", err)
		}
		sec += time.Since(t0).Seconds()
		calls++
	}
	return float64(assembly.EliminationFlops(big, kind)) * float64(calls) / sec / 1e9, nil
}

// calibrate times a fixed pure-Go integer and floating-point loop, so a
// slow host can be told apart from a slow change. Median of three.
func calibrate() float64 {
	var secs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		x, f := uint64(88172645463325252), 0.0
		for k := 0; k < 20_000_000; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f += float64(x&1023) * 1e-3
		}
		secs = append(secs, time.Since(t0).Seconds())
		calibSink += f
	}
	return median(secs)
}

var calibSink float64
