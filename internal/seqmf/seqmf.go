// Package seqmf is the sequential numeric multifrontal solver: it factors a
// permuted sparse matrix by walking the assembly tree in postorder,
// assembling each front (original entries + children contribution blocks
// via extend-add), running a partial dense factorization, and stacking the
// contribution block for the parent — exactly the storage scheme of
// Section 2 of the paper (factors area / CB stack / active front).
//
// The per-front kernels (assembly, partial factorization, extraction and
// the triangular solves) live in internal/front and are shared with the
// shared-memory parallel executor internal/parmf; this package contributes
// the postorder walk and the single-stack memory accounting.
//
// Factor blocks are owned by a front.Store, not by this package: the
// default in-memory store keeps them all resident (classic in-core
// execution), while an ooc.FileStore spills each block to disk as soon as
// it is produced, so only the stack stays in memory — the paper's
// out-of-core execution model. Stats.ResidentPeak measures the difference.
//
// Symmetric positive definite matrices use partial Cholesky; unsymmetric
// matrices use partial LU on the symmetrized structure. Pivoting is static
// (see dense.ErrSmallPivot).
package seqmf

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/faults"
	"repro/internal/front"
	"repro/internal/memory"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Stats records the memory and work of a factorization in the
// executor-independent format shared with internal/parmf, in the units
// of the assembly cost model (logical entries: triangles for symmetric).
type Stats = memory.ExecStats

// Factors holds the numeric factorization.
type Factors struct {
	Tree  *assembly.Tree
	Kind  sparse.Type
	N     int
	Stats Stats

	store front.Store
	fs    *front.Factors // non-nil when store is the in-memory one
	kern  dense.Kernel   // kernel family the factorization ran with

	solveOnce sync.Once
	solver    *front.Solver
}

// Front exposes the in-memory store, one slab of factor blocks (used by
// the parallel executor's cross-validation tests); nil when the
// factorization ran into an external store.
func (f *Factors) Front() *front.Factors { return f.fs }

// Store returns the factor store the blocks live in.
func (f *Factors) Store() front.Store { return f.store }

// Close releases the factor store (for a file-backed store: the spill
// file). The factors are unusable afterwards.
func (f *Factors) Close() error {
	if f.store == nil {
		return nil
	}
	return f.store.Close()
}

// Factorize factors the permuted matrix pa whose assembly tree is tree
// with the numeric options opt, handing each front's factor block to st
// the moment it is extracted (nil keeps the factors in memory,
// front.Factors). pa must carry numerical values. The walk checks ctx
// between fronts and returns a descriptive cancellation error naming how
// far it got; a bound fault-tolerant store (ooc.FileStore) stops its
// background goroutines promptly too. A Background context costs
// nothing.
func Factorize(ctx context.Context, pa *sparse.CSC, tree *assembly.Tree, opt front.Options, st front.Store) (*Factors, error) {
	sh, err := front.NewShared(pa, tree)
	if err != nil {
		return nil, err // already carries the front: context
	}
	f := &Factors{
		Tree: tree,
		Kind: pa.Kind,
		N:    pa.N,
	}
	blockRows, kern := opt.Resolve()
	f.kern = kern
	f.Stats.Kernel = kern.String()
	var meter *memory.Meter
	if f.store, f.fs, meter, err = front.ResolveStore(st, tree, pa.Kind); err != nil {
		return nil, fmt.Errorf("seqmf: %w", err)
	}
	f.store.SetContext(ctx)
	tr := opt.Tracer
	if tr != nil {
		// The whole walk runs on one goroutine: all spans land on worker
		// track 0. The meter observer makes the trace's "resident" counter
		// the exact gauge history (its max == Stats.ResidentPeak). The
		// progress ledger gets the analysis-time denominators so a live
		// scrape can report completion and an ETA.
		tr.EnsureWorkers(1)
		meter.Observe(tr.MeterObserver())
		tr.SetTotals(int64(tree.Len()), assembly.TotalFlops(tree))
	}
	asm := front.NewAssembler(sh)
	arena := front.NewArena() // fronts and CBs recycle through here

	cbs := make([]*dense.Matrix, tree.Len()) // live contribution blocks
	var stack int64                          // live CB entries (model units)
	bump := func(cur int64) {
		if cur > f.Stats.PeakStack {
			f.Stats.PeakStack = cur
		}
	}

	// processNode runs one front's numeric work with panic containment: a
	// kernel or assembly panic becomes a wrapped error naming the node
	// instead of killing the process.
	processNode := func(ni int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("seqmf: panic at node %d (phase factorize): %v", ni, p)
			}
		}()
		if err := opt.Faults.Check(faults.Task, ni); err != nil {
			return fmt.Errorf("seqmf: node %d: %w", ni, err)
		}
		nd := &tree.Nodes[ni]
		npiv := nd.NPiv()
		nf := nd.NFront()
		asm.Begin(ni)

		fr := arena.Matrix(nf, nf)
		frontEntries := assembly.FrontEntries(nd, tree.Kind)
		meter.Add(frontEntries)
		bump(stack + frontEntries)

		tr.Begin(0, trace.SpanAssemble, ni)
		err = asm.Scatter(ni, fr)
		tr.End(0, trace.SpanAssemble, ni)
		if err != nil {
			return err
		}

		// Extend-add children, then free their CBs.
		if len(nd.Children) > 0 {
			tr.Begin(0, trace.SpanExtendAdd, ni)
			for _, c := range nd.Children {
				ops, err := asm.ExtendAdd(ni, fr, c, cbs[c])
				if err != nil {
					tr.End(0, trace.SpanExtendAdd, ni)
					return err
				}
				f.Stats.AssemblyOps += ops
			}
			tr.End(0, trace.SpanExtendAdd, ni)
		}
		for _, c := range nd.Children {
			ce := assembly.CBEntries(&tree.Nodes[c], tree.Kind)
			stack -= ce
			meter.Add(-ce)
			arena.Free(cbs[c])
			cbs[c] = nil
		}
		bump(stack + frontEntries)

		// Partial factorization.
		tr.Begin(0, trace.SpanFactor, ni)
		err = front.EliminateKernel(fr, npiv, pa.Kind, front.PivotTol, blockRows, kern)
		tr.End(0, trace.SpanFactor, ni)
		if err != nil {
			return fmt.Errorf("seqmf: node %d (front %d, npiv %d): %w", ni, nf, npiv, err)
		}

		// The store extracts the factor block into its own memory: resident
		// until the store lets go of it (never in-core, once spilled OOC).
		fe := assembly.FactorEntries(nd, tree.Kind)
		if err := f.store.Put(ni, fr, fe); err != nil {
			return fmt.Errorf("seqmf: node %d: %w", ni, err)
		}
		tr.Instant(0, trace.EvPut, ni, fe*8)
		f.Stats.FactorEntries += fe
		f.Stats.Fronts++
		if nf > f.Stats.MaxFront {
			f.Stats.MaxFront = nf
		}
		meter.Add(-frontEntries)

		// Stack the contribution block; the dead front recycles.
		if cb := front.ExtractCB(arena, fr, npiv, nd.NCB(), tree.Kind); cb != nil {
			cbs[ni] = cb
			ce := assembly.CBEntries(nd, tree.Kind)
			stack += ce
			meter.Add(ce)
			bump(stack)
		}
		arena.Free(fr)
		tr.FrontDone(assembly.EliminationFlops(nd, tree.Kind))
		return nil
	}

	for k, ni := range tree.Postorder() {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("seqmf: cancelled at node %d (%d of %d fronts done): %w",
				ni, k, tree.Len(), context.Cause(ctx))
		}
		if err := processNode(ni); err != nil {
			return nil, err
		}
	}
	f.Stats.FinalStack = stack
	if err := f.store.Flush(); err != nil {
		return nil, fmt.Errorf("seqmf: flush factor store: %w", err)
	}
	f.Stats.Retries, f.Stats.DegradedBlocks = f.store.FaultCounters()
	f.Stats.ResidentPeak = meter.Peak()
	return f, nil
}

// SolveOriginalMulti solves nrhs systems at once for right-hand sides
// given in the original (pre-permutation) ordering: b is n x nrhs
// row-major, not modified, and the result has the same shape and
// ordering. The factors stream through the store in one forward and one
// backward pass total, however many right-hand sides ride along. The
// solver (cached walk orders and scratch panel, the factorization's
// kernel family) is built on the first call.
func (f *Factors) SolveOriginalMulti(b []float64, nrhs int) ([]float64, error) {
	f.solveOnce.Do(func() { f.solver = front.NewSolver(f.store, f.Tree, f.Kind, f.kern) })
	return f.solver.SolveOriginalMulti(b, nrhs)
}
