// Package core is the public facade of the solver: it wires the analysis
// pipeline (ordering → elimination tree → assembly tree → optional node
// splitting → static mapping), the sequential and shared-memory parallel
// numeric factorizations, and the parallel factorization simulator with
// the paper's scheduling strategies behind a small API.
//
// Typical use:
//
//	cfg := core.DefaultConfig(order.ND, 32) // kernels: dense.KernelAuto
//	cfg.Kernel = dense.KernelDefault  // optional: element-wise bits (front.Options, embedded)
//	an, err := core.Analyze(a, cfg)
//	pcfg := parmf.DefaultConfig(8)
//	f, err := an.Run(ctx, core.Plan{Parallel: &pcfg, File: true}) // nil Parallel: sequential; File: spill to disk
//	defer f.Close()
//	x, err := f.Solve(ctx, b, nrhs)   // b, x: n x nrhs row-major, original ordering
//	res, err := an.Simulate(parsim.MemoryBased())
//
// Run is the one factorization: the executor and the store are its
// Plan, and it hands Config.Options (block rows, kernel family, tracer,
// faults) unchanged to the executor, so every plan of one analysis
// computes the same factors. Factorize, FactorizeOOC, FactorizeParallel,
// FactorizeParallelOOC and the two …AndSolve methods are Run at a fixed
// plan that return the executor's own handle.
package core

import (
	"context"
	"fmt"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/etree"
	"repro/internal/front"
	"repro/internal/memory"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/seqmf"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Config drives the analysis phase.
type Config struct {
	// Ordering selects the fill-reducing ordering.
	Ordering order.Method
	// Amalg controls supernode amalgamation.
	Amalg etree.AmalgamationOptions
	// SplitThreshold, when positive, splits nodes whose type-2 master part
	// exceeds this many entries into chains (the paper's static tree
	// modification; it used 2 million entries at its problem scale).
	SplitThreshold int64
	// SplitMinPiv is the minimum pivots per chain link.
	SplitMinPiv int
	// Procs is the simulated processor count.
	Procs int
	// MapOptions overrides the static mapping (zero value = defaults).
	MapOptions assembly.MapOptions
	// Params is the simulated machine model (zero value = defaults).
	Params parsim.Params
	// OOC configures the out-of-core factor store of a Plan with File set
	// (zero value = defaults: spill file in the
	// system temp dir, resident buffer sized by oocOptions).
	OOC ooc.Options
	// Options are the numeric knobs of every factorization run through
	// this analysis, handed unchanged to the executor. Options.Tracer also
	// records the analysis phases of Analyze (analyze.order,
	// analyze.symbolic, analyze.tree, analyze.map spans on the global
	// track), and Tracer and Faults also reach the out-of-core store
	// unless Config.OOC sets its own.
	front.Options
}

// DefaultConfig returns a standard configuration. Its kernel family is
// dense.KernelAuto: the SIMD kernels where the CPU has AVX2+FMA (and
// REPRO_SIMD is not off), the default family elsewhere. Set
// Kernel = dense.KernelDefault for factors bitwise identical to the
// element-wise kernels.
func DefaultConfig(m order.Method, procs int) Config {
	return Config{
		Ordering:    m,
		Amalg:       etree.DefaultAmalgamation(),
		SplitMinPiv: 16,
		Procs:       procs,
		Params:      parsim.DefaultParams(),
		Options:     front.Options{Kernel: dense.KernelAuto},
	}
}

// Analysis is the result of the symbolic phase: everything needed to run
// the numeric factorization or the parallel simulation.
type Analysis struct {
	Tree     *assembly.Tree
	Permuted *sparse.CSC
	Mapping  *assembly.Mapping
	Config   Config
	// SplitCount is the number of nodes split into chains.
	SplitCount int
	// SeqPeak is the sequential stack peak (entries) after Liu ordering.
	SeqPeak int64
}

// Analyze runs the full symbolic phase on matrix a.
func Analyze(a *sparse.CSC, cfg Config) (*Analysis, error) {
	if a == nil || a.N == 0 {
		return nil, fmt.Errorf("core: empty matrix")
	}
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	if cfg.Params.FlopRate == 0 {
		cfg.Params = parsim.DefaultParams()
	}
	tree, pa := assembly.Analyze(a, assembly.Options{Ordering: cfg.Ordering, Amalg: cfg.Amalg, Tracer: cfg.Tracer})
	cfg.Tracer.GlobalBegin(trace.SpanAnalyzeMap)
	defer cfg.Tracer.GlobalEnd(trace.SpanAnalyzeMap)
	if cfg.SplitThreshold > 0 {
		// Split the Liu-ordered tree, as WithSplit does, so both build
		// the same split tree.
		assembly.SortChildrenLiu(tree)
	}
	return finish(tree, pa, cfg)
}

// WithSplit returns a new Analysis whose tree has large type-2 masters
// split into chains (threshold in entries), reusing the already-computed
// ordering and symbolic structure. minPiv <= 0 uses the config default.
func (an *Analysis) WithSplit(threshold int64, minPiv int) (*Analysis, error) {
	cfg := an.Config
	cfg.SplitThreshold = threshold
	if minPiv > 0 {
		cfg.SplitMinPiv = minPiv
	} else if cfg.SplitMinPiv <= 0 {
		cfg.SplitMinPiv = 16
	}
	return finish(an.Tree, an.Permuted, cfg)
}

// finish is the tail of the symbolic phase shared by Analyze and
// WithSplit: split the tree's large type-2 masters into a new tree (a
// no-op unless cfg.SplitThreshold is positive), order children by Liu's
// rule, map the tree statically and validate the mapping.
func finish(tree *assembly.Tree, pa *sparse.CSC, cfg Config) (*Analysis, error) {
	tree, count := assembly.Split(tree, assembly.SplitOptions{
		MaxMasterEntries: cfg.SplitThreshold,
		MinPiv:           cfg.SplitMinPiv,
	})
	peaks := assembly.SortChildrenLiu(tree)
	mo := cfg.MapOptions
	if mo.P == 0 {
		mo = assembly.DefaultMapOptions(cfg.Procs)
	}
	mp := assembly.Map(tree, mo)
	if err := mp.Validate(tree); err != nil {
		return nil, fmt.Errorf("core: mapping: %w", err)
	}
	return &Analysis{
		Tree:       tree,
		Permuted:   pa,
		Mapping:    mp,
		Config:     cfg,
		SplitCount: count,
		SeqPeak:    assembly.TreePeak(peaks, tree),
	}, nil
}

// Plan picks how Run factorizes: the executor and the factor store.
type Plan struct {
	// Parallel runs the shared-memory parallel executor with this
	// configuration; nil runs the sequential executor, the oracle. A
	// Workers below 1 uses the analysis processor count, a nil
	// SubtreeRoots the static mapping's leaf subtrees (the single-worker
	// tasks of the paper's layer L0), and a zero FrontSplit
	// FrontSplitThreshold, so the fronts the mapping classifies as type 2
	// factor through the within-front master/slave path.
	Parallel *parmf.Config
	// File spills every factor block to disk the moment it is produced,
	// through an ooc.FileStore built from Config.OOC, so only the CB stack
	// and the active fronts stay resident; the solves stream the blocks
	// back. False keeps the factors in memory.
	File bool
}

// Factors is one factorization run through Run, whichever executor and
// store ran it.
type Factors struct {
	// Stats are the executor-independent memory and work statistics.
	Stats memory.ExecStats
	// Sched is the parallel executor's whole statistics, schedule
	// included; nil for the sequential executor.
	Sched *parmf.Stats
	// Front is the in-memory factorization, one slab in the layout's
	// order (two in-core runs compare slab to slab); nil for a file store.
	Front *front.Factors
	// Store is the file store the blocks spilled to; nil in core.
	Store *ooc.FileStore

	seq   *seqmf.Factors // the sequential executor's handle, or nil
	par   *parmf.Factors // the parallel executor's handle, or nil
	solve func(ctx context.Context, b []float64, nrhs int) ([]float64, error)
}

// Run factorizes the analysed matrix as p asks, with Config.Options (block
// rows, kernel family, tracer, faults) handed unchanged to the executor:
// every plan computes the same factors bit for bit. The matrix must carry
// values. Cancelling ctx stops the executor at its next front or task
// boundary with an error wrapping context.Cause(ctx); a file store is
// closed, its spill file deleted, on every error path. A Background
// context costs nothing.
func (an *Analysis) Run(ctx context.Context, p Plan) (*Factors, error) {
	var fs *ooc.FileStore
	var st front.Store // a nil interface keeps the factors in memory
	if p.File {
		var err error
		if fs, err = ooc.NewFileStore(an.oocOptions()); err != nil {
			return nil, err
		}
		st = fs
	}
	f, err := an.factorize(ctx, p.Parallel, st)
	if err != nil {
		if fs != nil {
			fs.Close()
		}
		return nil, err
	}
	f.Store = fs
	return f, nil
}

// factorize runs the executor cfg picks (nil: the sequential one) into
// the factor store st.
func (an *Analysis) factorize(ctx context.Context, cfg *parmf.Config, st front.Store) (*Factors, error) {
	if cfg == nil {
		sf, err := seqmf.Factorize(ctx, an.Permuted, an.Tree, an.Config.Options, st)
		if err != nil {
			return nil, err
		}
		solve := func(ctx context.Context, b []float64, nrhs int) ([]float64, error) {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("core: solve cancelled: %w", context.Cause(ctx))
			}
			return sf.SolveOriginalMulti(b, nrhs)
		}
		return &Factors{Stats: sf.Stats, Front: sf.Front(), seq: sf, solve: solve}, nil
	}
	c := *cfg
	if c.Workers < 1 {
		c.Workers = an.Config.Procs
	}
	if c.SubtreeRoots == nil && an.Mapping != nil {
		c.SubtreeRoots = an.Mapping.SubRoot
	}
	if c.FrontSplit == 0 {
		c.FrontSplit = an.FrontSplitThreshold()
	}
	if st != nil {
		c.Store = st
	}
	pf, err := parmf.Factorize(ctx, an.Permuted, an.Tree, c, an.Config.Options)
	if err != nil {
		return nil, err
	}
	return &Factors{Stats: pf.Stats.ExecStats, Sched: &pf.Stats, Front: pf.Front(), par: pf,
		solve: pf.Solver(0).SolveOriginalMultiCtx}, nil
}

// Solve solves nrhs systems against the factors: b is n x nrhs row-major
// in the original (pre-permutation) ordering, as is the returned x, and
// is not modified. The factors stream through the store once forward and
// once backward however many right-hand sides ride along — tree-parallel
// with the factorization's worker count under the parallel executor,
// bitwise identical to the sequential solve. Solve as often as needed
// before Close.
func (f *Factors) Solve(ctx context.Context, b []float64, nrhs int) ([]float64, error) {
	return f.solve(ctx, b, nrhs)
}

// Close releases the factors' store: a file store's spill file is
// deleted. The factors are unusable afterwards.
func (f *Factors) Close() error {
	if f.seq != nil {
		return f.seq.Close()
	}
	return f.par.Close()
}

// handles returns the executor handle and file store of f, which may be
// nil: the facade's older entry points hand them out.
func (f *Factors) handles() (*seqmf.Factors, *parmf.Factors, *ooc.FileStore) {
	if f == nil {
		return nil, nil, nil
	}
	return f.seq, f.par, f.Store
}

// runAndSolve runs p and solves b against the factors.
func (an *Analysis) runAndSolve(p Plan, b []float64, nrhs int) ([]float64, *Factors, error) {
	f, err := an.Run(context.Background(), p)
	if err != nil {
		return nil, nil, err
	}
	x, err := f.Solve(context.Background(), b, nrhs)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return x, f, nil
}

// Factorize is Run with the sequential executor in memory.
func (an *Analysis) Factorize() (*seqmf.Factors, error) {
	f, err := an.Run(context.Background(), Plan{})
	sf, _, _ := f.handles()
	return sf, err
}

// FactorizeOOC is Run with the sequential executor spilling to a file
// store; close the factors or the store to delete the spill file.
func (an *Analysis) FactorizeOOC() (*seqmf.Factors, *ooc.FileStore, error) {
	f, err := an.Run(context.Background(), Plan{File: true})
	sf, _, st := f.handles()
	return sf, st, err
}

// FactorizeParallel is Run with the parallel executor in memory.
func (an *Analysis) FactorizeParallel(cfg parmf.Config) (*parmf.Factors, error) {
	f, err := an.Run(context.Background(), Plan{Parallel: &cfg})
	_, pf, _ := f.handles()
	return pf, err
}

// FactorizeParallelOOC is Run with the parallel executor spilling to a
// file store, which overrides cfg.Store.
func (an *Analysis) FactorizeParallelOOC(cfg parmf.Config) (*parmf.Factors, *ooc.FileStore, error) {
	f, err := an.Run(context.Background(), Plan{Parallel: &cfg, File: true})
	_, pf, st := f.handles()
	return pf, st, err
}

// FactorizeAndSolve factors sequentially in memory and solves nrhs
// right-hand sides (see Factors.Solve), returning the factors too so the
// caller can keep solving against them.
func (an *Analysis) FactorizeAndSolve(b []float64, nrhs int) ([]float64, *seqmf.Factors, error) {
	x, f, err := an.runAndSolve(Plan{}, b, nrhs)
	sf, _, _ := f.handles()
	return x, sf, err
}

// FactorizeParallelAndSolve is FactorizeAndSolve through the parallel
// executor; the solve runs tree-parallel with cfg's worker count.
func (an *Analysis) FactorizeParallelAndSolve(cfg parmf.Config, b []float64, nrhs int) ([]float64, *parmf.Factors, error) {
	x, f, err := an.runAndSolve(Plan{Parallel: &cfg}, b, nrhs)
	_, pf, _ := f.handles()
	return x, pf, err
}

// FrontSplitThreshold is the within-front split threshold a zero
// parmf.Config.FrontSplit resolves to: the static mapping's type-2
// classification threshold (an explicit MapOptions.Type2MinFront
// included), so the executor splits exactly the fronts the mapping
// classifies as type 2.
func (an *Analysis) FrontSplitThreshold() int {
	// Analyze applies MapOptions only when P is set; mirror that here.
	if mo := an.Config.MapOptions; mo.P != 0 && mo.Type2MinFront > 0 {
		return mo.Type2MinFront
	}
	maxFront := 0
	for i := range an.Tree.Nodes {
		if f := an.Tree.Nodes[i].NFront(); f > maxFront {
			maxFront = f
		}
	}
	return assembly.DefaultType2MinFront(maxFront)
}

// oocOptions resolves Config.OOC, defaulting the resident-buffer budget
// relative to the problem: 1/16 of the total factor entries (clamped to
// [1024, 1<<16]), so the spill buffer is always small next to what an
// in-core execution would keep resident — without this, a fixed budget
// larger than a small problem's factors would never throttle the
// producer and the writer could lag a whole factorization behind.
func (an *Analysis) oocOptions() ooc.Options {
	opt := an.Config.OOC
	if opt.BufferEntries == 0 {
		b := assembly.TotalFactorEntries(an.Tree) / 16
		if b < 1024 {
			b = 1024
		}
		if b > 1<<16 {
			b = 1 << 16
		}
		opt.BufferEntries = b
	}
	if opt.Tracer == nil {
		opt.Tracer = an.Config.Tracer
	}
	if opt.Faults == nil {
		opt.Faults = an.Config.Faults
	}
	return opt
}

// Simulate runs the parallel factorization simulator under the given
// scheduling strategy.
func (an *Analysis) Simulate(st parsim.Strategy) (*parsim.Result, error) {
	return parsim.Run(parsim.Config{
		Tree:     an.Tree,
		Map:      an.Mapping,
		Strategy: st,
		Params:   an.Config.Params,
	})
}

// Stats summarizes the symbolic analysis.
type Stats struct {
	N             int
	NNZ           int
	Fronts        int
	MaxFront      int
	FactorEntries int64
	Flops         int64
	SeqPeak       int64
	Subtrees      int
	Type2Nodes    int
	SplitCount    int
}

// Stats returns summary statistics of the analysis.
func (an *Analysis) Stats() Stats {
	s := Stats{
		N:             an.Tree.N,
		NNZ:           an.Permuted.NNZ(),
		Fronts:        an.Tree.Len(),
		FactorEntries: assembly.TotalFactorEntries(an.Tree),
		Flops:         assembly.TotalFlops(an.Tree),
		SeqPeak:       an.SeqPeak,
		Subtrees:      len(an.Mapping.SubRoot),
		SplitCount:    an.SplitCount,
	}
	for i := range an.Tree.Nodes {
		if f := an.Tree.Nodes[i].NFront(); f > s.MaxFront {
			s.MaxFront = f
		}
		if an.Mapping.Types[i] == assembly.Type2 {
			s.Type2Nodes++
		}
	}
	return s
}

// LargestMaster returns the largest master part among non-root nodes
// (entries) — the quantity the paper's split threshold constrains (roots
// are the type-3 node and are never split).
func (an *Analysis) LargestMaster() int64 {
	var m int64
	for i := range an.Tree.Nodes {
		if an.Tree.Nodes[i].Parent < 0 {
			continue
		}
		if me := assembly.MasterEntries(&an.Tree.Nodes[i], an.Tree.Kind); me > m {
			m = me
		}
	}
	return m
}
