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
//	f, err := an.Factorize()          // numeric LU/Cholesky + Solve
//	pf, err := an.FactorizeParallel(parmf.DefaultConfig(8))
//	of, st, err := an.FactorizeOOC()  // factors spilled to disk as produced
//	x, pf, err := an.FactorizeParallelAndSolve(parmf.DefaultConfig(8), b, nrhs)
//	res, err := an.Simulate(parsim.MemoryBased())
//
// Every factorization entry point hands Config.Options (block rows,
// kernel family, tracer, faults) unchanged to its executor, so one
// analysis runs all of them with the same numerics.
package core

import (
	"context"
	"fmt"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/etree"
	"repro/internal/front"
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
	// OOC configures the out-of-core factor store used by FactorizeOOC
	// and FactorizeParallelOOC (zero value = defaults: spill file in the
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

// Factorize runs the sequential numeric factorization (real LU/Cholesky)
// with Config.Options — by default through the blocked dense kernels, the
// same numeric path the parallel executor uses and bitwise identical to
// the element-wise kernels. The matrix must carry values.
func (an *Analysis) Factorize() (*seqmf.Factors, error) {
	return an.FactorizeCtx(context.Background())
}

// FactorizeCtx is Factorize under a context: the postorder walk checks
// ctx between fronts and a cancellation becomes a descriptive error
// naming how far the walk got. A Background context costs nothing.
func (an *Analysis) FactorizeCtx(ctx context.Context) (*seqmf.Factors, error) {
	return seqmf.FactorizeCtx(ctx, an.Permuted, an.Tree, an.Config.Options, nil)
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

// FactorizeParallel runs the shared-memory parallel numeric factorization
// with cfg.Workers goroutines (cfg.Workers < 1 uses the analysis processor
// count) and Config.Options. Unless overridden, the static mapping's leaf
// subtrees become the single-worker subtree tasks of the paper's layer L0,
// and fronts above the mapping's type-2 threshold (cfg.FrontSplit == 0,
// see FrontSplitThreshold) factor through the within-front master/slave
// path.
func (an *Analysis) FactorizeParallel(cfg parmf.Config) (*parmf.Factors, error) {
	return an.FactorizeParallelCtx(context.Background(), cfg)
}

// FactorizeParallelCtx is FactorizeParallel under a context:
// cancellation drains the worker pool deterministically at the next
// task boundary, reporting how many tree tasks were left unfinished. A
// Background context costs nothing.
func (an *Analysis) FactorizeParallelCtx(ctx context.Context, cfg parmf.Config) (*parmf.Factors, error) {
	if cfg.Workers < 1 {
		cfg.Workers = an.Config.Procs
	}
	if cfg.SubtreeRoots == nil && an.Mapping != nil {
		cfg.SubtreeRoots = an.Mapping.SubRoot
	}
	if cfg.FrontSplit == 0 {
		cfg.FrontSplit = an.FrontSplitThreshold()
	}
	return parmf.FactorizeCtx(ctx, an.Permuted, an.Tree, cfg, an.Config.Options)
}

// FactorizeAndSolve factors sequentially and solves nrhs right-hand
// sides in one blocked pass: b is n x nrhs row-major in the *original*
// (pre-permutation) ordering, as is the returned x. The factors are
// returned too so the caller can keep solving against them (the
// "factor once, solve many" service shape); they need no Close for the
// in-memory store used here.
func (an *Analysis) FactorizeAndSolve(b []float64, nrhs int) ([]float64, *seqmf.Factors, error) {
	f, err := an.Factorize()
	if err != nil {
		return nil, nil, err
	}
	x, err := f.SolveOriginalMulti(b, nrhs)
	if err != nil {
		return nil, nil, err
	}
	return x, f, nil
}

// FactorizeParallelAndSolve is FactorizeAndSolve through the
// shared-memory parallel executor: the factorization runs with
// cfg.Workers goroutines and the solve runs tree-parallel with the same
// worker count, bitwise identical to the sequential solve.
func (an *Analysis) FactorizeParallelAndSolve(cfg parmf.Config, b []float64, nrhs int) ([]float64, *parmf.Factors, error) {
	f, err := an.FactorizeParallel(cfg)
	if err != nil {
		return nil, nil, err
	}
	x, err := f.SolveOriginalMulti(b, nrhs)
	if err != nil {
		return nil, nil, err
	}
	return x, f, nil
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

// FactorizeOOC runs the sequential numeric factorization out-of-core:
// every factor block is spilled to disk (through an ooc.FileStore built
// from Config.OOC) the moment it is produced, so only the CB stack and
// the active front stay resident. The returned factors solve by
// streaming blocks back from disk; Close them (or the store) to delete
// the spill file. The factors are bitwise identical to Factorize's.
func (an *Analysis) FactorizeOOC() (*seqmf.Factors, *ooc.FileStore, error) {
	return an.FactorizeOOCCtx(context.Background())
}

// FactorizeOOCCtx is FactorizeOOC under a context: on cancellation the
// walk stops at the next front and the store's spill writer stops
// promptly; the store is closed (spill file deleted) on every error
// path. A Background context costs nothing.
func (an *Analysis) FactorizeOOCCtx(ctx context.Context) (*seqmf.Factors, *ooc.FileStore, error) {
	st, err := ooc.NewFileStore(an.oocOptions())
	if err != nil {
		return nil, nil, err
	}
	f, err := seqmf.FactorizeCtx(ctx, an.Permuted, an.Tree, an.Config.Options, st)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return f, st, nil
}

// FactorizeParallelOOC is FactorizeParallel with the factor blocks
// spilled to disk as produced (see FactorizeOOC). cfg.Store is
// overridden with the new file store.
func (an *Analysis) FactorizeParallelOOC(cfg parmf.Config) (*parmf.Factors, *ooc.FileStore, error) {
	return an.FactorizeParallelOOCCtx(context.Background(), cfg)
}

// FactorizeParallelOOCCtx is FactorizeParallelOOC under a context (see
// FactorizeOOCCtx for the cancellation and cleanup semantics).
func (an *Analysis) FactorizeParallelOOCCtx(ctx context.Context, cfg parmf.Config) (*parmf.Factors, *ooc.FileStore, error) {
	st, err := ooc.NewFileStore(an.oocOptions())
	if err != nil {
		return nil, nil, err
	}
	cfg.Store = st
	f, err := an.FactorizeParallelCtx(ctx, cfg)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return f, st, nil
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

// SimulateTraced is Simulate with per-processor memory traces enabled.
func (an *Analysis) SimulateTraced(st parsim.Strategy) (*parsim.Result, error) {
	return parsim.Run(parsim.Config{
		Tree:     an.Tree,
		Map:      an.Mapping,
		Strategy: st,
		Params:   an.Config.Params,
		Trace:    true,
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
