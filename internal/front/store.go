package front

import (
	"context"

	"repro/internal/assembly"
	"repro/internal/memory"
	"repro/internal/sparse"
)

// Store owns completed factor blocks. The numeric executors hand every
// front's factor pieces to a Store immediately after partial
// factorization instead of keeping them in slices of their own; the
// solve phases stream the blocks back through it. Two implementations
// exist: *Factors in this package keeps everything in memory (the
// classic in-core execution), and ooc.FileStore spills blocks to disk as
// they are produced so only a bounded buffer stays resident.
//
// Put may be called concurrently for distinct nodes (the parallel
// executor's workers each push their own blocks). One solve pass
// sequence may run at a time, bracketed by BeginSolve/EndSolve; within
// it, Prefetch is single-threaded but Fetch/Release of distinct nodes
// may come from different goroutines (the tree-parallel solve's
// workers).
type Store interface {
	// SetMeter installs the executor's resident-memory meter. The store
	// charges it for every block it currently holds in memory (and
	// discharges blocks it no longer does, e.g. once spilled to disk), so
	// the meter's peak is the true resident peak of fronts + CBs + factor
	// blocks. Must be called before the first Put; a nil meter disables
	// the accounting.
	SetMeter(m *memory.Meter)
	// Put transfers ownership of node ni's factor block to the store.
	// entries is the block's size in model units (assembly.FactorEntries);
	// the caller must not use nf afterwards. Put may block while the
	// store's resident buffer is over budget.
	Put(ni int, nf NodeFactor, entries int64) error
	// Flush blocks until every block Put so far is durably owned by the
	// store (for a file-backed store: written to the spill area). The
	// executors call it once at the end of the factorization.
	Flush() error
	// BeginSolve marks the start of one solve's pass sequence
	// (Prefetch/Fetch/Release walks). It returns an error when another
	// solve is already running against the store — overlapping solves
	// would silently cancel each other's prefetch streams — and must be
	// paired with EndSolve.
	BeginSolve() error
	// EndSolve marks the end of the solve begun by the matching
	// BeginSolve, releasing any prefetch state the passes left behind.
	EndSolve()
	// Prefetch advises the store that subsequent Fetch calls will follow
	// order, letting it stream blocks ahead of the solve walk. Advisory:
	// Fetch stays correct in any order.
	Prefetch(order []int)
	// Fetch returns node ni's factor block for the solve phase. The block
	// is valid until the matching Release; a file store reuses its
	// memory afterwards.
	Fetch(ni int) (*NodeFactor, error)
	// Release ends the caller's use of the block returned by Fetch.
	Release(ni int)
	// Close releases the store's resources (spill files, goroutines).
	Close() error
}

// ContextSetter is the optional Store extension for stores with
// background goroutines (spillers, prefetchers) that should stop
// promptly on cancellation. The executors bind their context to the
// store through BindStoreContext before the first Put.
type ContextSetter interface {
	SetContext(ctx context.Context)
}

// BindStoreContext binds ctx to st when st supports it and ctx can
// actually be cancelled; otherwise it is a no-op, so uncancellable runs
// pay nothing.
func BindStoreContext(ctx context.Context, st Store) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	if cs, ok := st.(ContextSetter); ok {
		cs.SetContext(ctx)
	}
}

// FaultStatser is the optional Store extension for fault-tolerant
// stores: it reports spill I/O retries and blocks degraded to in-core
// after persistent write failures. The executors fold these into
// memory.ExecStats after Flush via StoreFaultCounters; stores without
// fault handling (like the in-memory Factors) simply don't implement it.
type FaultStatser interface {
	FaultCounters() (retries, degradedBlocks int64)
}

// StoreFaultCounters returns st's fault counters when it implements
// FaultStatser and zeros otherwise.
func StoreFaultCounters(st Store) (retries, degradedBlocks int64) {
	if fs, ok := st.(FaultStatser); ok {
		return fs.FaultCounters()
	}
	return 0, 0
}

// TreeBinder is the optional Store extension for stores whose layout
// follows the assembly tree: ResolveStore hands them the tree and the
// matrix kind before the first Put (the file store reserves each node's
// record there, in solve order).
type TreeBinder interface {
	BindTree(tree *assembly.Tree, kind sparse.Type)
}

// ResolveStore is the store setup shared by the executors: a nil st
// becomes a fresh in-memory Factors for the tree, a TreeBinder is bound
// to the tree, and a fresh Meter is installed on the store before any
// Put can happen. The returned
// *Factors is the in-memory container when the store is one, nil for
// external stores — executors expose it for cross-validation.
func ResolveStore(st Store, tree *assembly.Tree, kind sparse.Type) (Store, *Factors, *memory.Meter) {
	var fs *Factors
	if st == nil {
		fs = NewFactors(tree, kind)
		st = fs
	} else if f, ok := st.(*Factors); ok {
		fs = f
	} else if tb, ok := st.(TreeBinder); ok {
		tb.BindTree(tree, kind)
	}
	m := new(memory.Meter)
	st.SetMeter(m)
	return st, fs, m
}

// front.Factors is the in-memory Store: blocks live in the nodes slice
// forever, so Flush/Prefetch/Release/Close are no-ops and the meter is
// charged on Put and never discharged — its peak is the in-core total
// peak (factors + stack + fronts).

// SetMeter installs the resident meter charged on Put.
func (f *Factors) SetMeter(m *memory.Meter) { f.meter = m }

// Put stores node ni's factor block. Distinct nodes may be Put from
// different goroutines without synchronization (the meter serializes
// its own updates).
func (f *Factors) Put(ni int, nf NodeFactor, entries int64) error {
	f.nodes[ni] = nf
	f.meter.Add(entries)
	return nil
}

// Flush is a no-op: in-memory blocks are durable on Put.
func (f *Factors) Flush() error { return nil }

// BeginSolve is a no-op: the in-memory store has no per-solve state, so
// concurrent solves (each with its own Solver) are safe.
func (f *Factors) BeginSolve() error { return nil }

// EndSolve is a no-op.
func (f *Factors) EndSolve() {}

// Prefetch is a no-op: every block is already resident.
func (f *Factors) Prefetch([]int) {}

// Fetch returns node ni's factor block.
func (f *Factors) Fetch(ni int) (*NodeFactor, error) { return &f.nodes[ni], nil }

// Release is a no-op.
func (f *Factors) Release(int) {}

// Close is a no-op.
func (f *Factors) Close() error { return nil }
