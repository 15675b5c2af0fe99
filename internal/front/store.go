package front

import (
	"context"
	"fmt"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/memory"
	"repro/internal/sparse"
)

// Store owns completed factor blocks, each laid out by the Layout the
// store is bound to. The numeric executors hand every eliminated front
// to the store (Put), which extracts its block into the store's memory;
// each solve pass streams back the part of every block it uses (Fetch
// of PartL forward, of BackwardPart backward). *Factors in this package
// is the layout held in memory, one slab (the classic in-core
// execution); ooc.FileStore spills each part as it is produced, so only
// a bounded buffer stays resident.
//
// Put may be called concurrently for distinct nodes (the parallel
// executor's workers each hand over their own fronts). One solve
// pass sequence may run at a time, bracketed by BeginSolve/EndSolve;
// within it, Prefetch is single-threaded but Fetch/Release of distinct
// nodes may come from different goroutines (the tree-parallel solve's
// workers).
type Store interface {
	// Bind fixes the store's layout and installs the executor's
	// resident-memory meter; ResolveStore makes this one required call
	// before the first Put. The store charges the meter for every
	// block it holds in memory (and discharges blocks it no longer does,
	// e.g. once spilled), so the meter's peak is the true resident peak
	// of fronts + CBs + factor blocks. A store holds one factorization: a
	// second Bind is an error.
	Bind(lay *Layout, m *memory.Meter) error
	// Put extracts node ni's factor block from its eliminated front fr
	// into the store's memory (ExtractFactor); entries is the block's
	// size in model units (assembly.FactorEntries). Put may block while
	// the store's resident buffer is over budget.
	Put(ni int, fr *dense.Matrix, entries int64) error
	// Flush blocks until the store holds every block Put so far where the
	// solve will read it (for a file-backed store: written to the spill
	// file, which is process-private scratch, never fsynced; a crash
	// loses it by design). The executors call it once at the end of the
	// factorization.
	Flush() error
	// FaultCounters reports spill I/O retries and blocks kept in memory
	// after persistent write failures; the executors fold them into
	// memory.ExecStats after Flush.
	FaultCounters() (retries, degradedBlocks int64)
	// SetContext binds the store's background goroutines (spiller,
	// prefetcher) to ctx, so they stop promptly on cancellation; a
	// context that can never be cancelled costs nothing.
	SetContext(ctx context.Context)
	// BeginSolve marks the start of one solve's pass sequence
	// (Prefetch/Fetch/Release walks). It returns an error when another
	// solve is already running against the store — overlapping solves
	// would silently cancel each other's prefetch streams — and must be
	// paired with EndSolve.
	BeginSolve() error
	// EndSolve marks the end of the solve begun by the matching
	// BeginSolve, releasing any prefetch state the passes left behind.
	EndSolve()
	// Prefetch advises the store that subsequent Fetch calls will ask
	// for part p of the nodes of order, in that order, letting it stream
	// them ahead of the solve walk. Advisory: Fetch stays correct in any
	// order and for any part.
	Prefetch(order []int, p Part)
	// Fetch returns part p of node ni's block for the solve phase, valid
	// until the matching Release (a file store reuses its memory
	// afterwards).
	Fetch(ni int, p Part) ([]float64, error)
	// Release ends the caller's use of the part returned by Fetch.
	Release(ni int, p Part)
	// Close releases the store's resources (spill files, goroutines).
	Close() error
}

// ResolveStore is the store setup shared by the executors: a nil st
// becomes a fresh in-memory Factors for the tree, and the store is bound
// to the tree's layout with a fresh Meter before the first Put.
// The returned *Factors is the in-memory container when the store is
// one, nil for external stores — executors expose it for
// cross-validation.
func ResolveStore(st Store, tree *assembly.Tree, kind sparse.Type) (Store, *Factors, *memory.Meter, error) {
	lay := NewLayout(tree, kind)
	fs, _ := st.(*Factors)
	if st == nil {
		fs = NewFactors(lay)
		st = fs
	}
	m := new(memory.Meter)
	if err := st.Bind(lay, m); err != nil {
		return nil, nil, nil, err
	}
	return st, fs, m, nil
}

// front.Factors is the in-memory Store: the slab is written once per
// node range and kept, so Flush/Prefetch/Release/Close are no-ops and
// the meter is charged on Put and never discharged — its peak is the
// in-core total peak (factors + stack + fronts).

// Bind installs the resident meter charged on Put. lay must lay out the
// store's own tree and kind, and the store may be bound once.
func (f *Factors) Bind(lay *Layout, m *memory.Meter) error {
	if lay.Tree != f.Layout.Tree || lay.Kind != f.Layout.Kind {
		return fmt.Errorf("front: in-core store laid out for another tree")
	}
	if f.meter != nil {
		return fmt.Errorf("front: in-core store already holds a factorization")
	}
	f.meter = m
	return nil
}

// Put extracts node ni's block into its ranges of the slab (workers
// fill disjoint ranges concurrently) and charges it to the meter.
func (f *Factors) Put(ni int, fr *dense.Matrix, entries int64) error {
	for p := range Part(Parts(f.Layout.Kind)) {
		ExtractFactor(fr, f.Layout.Tree.Nodes[ni].NPiv(), p, 0, f.Block(ni, p))
	}
	f.meter.Add(entries)
	return nil
}

// Flush is a no-op: a block is in the slab once Put returns.
func (f *Factors) Flush() error { return nil }

// FaultCounters is zero: the in-memory store does no I/O.
func (f *Factors) FaultCounters() (retries, degradedBlocks int64) { return 0, 0 }

// SetContext is a no-op: the in-memory store runs no goroutines.
func (f *Factors) SetContext(context.Context) {}

// BeginSolve is a no-op: the in-memory store has no per-solve state, so
// concurrent solves (each with its own Solver) are safe.
func (f *Factors) BeginSolve() error { return nil }

// EndSolve is a no-op.
func (f *Factors) EndSolve() {}

// Prefetch is a no-op: every block is already resident.
func (f *Factors) Prefetch([]int, Part) {}

// Fetch returns part p of node ni's block.
func (f *Factors) Fetch(ni int, p Part) ([]float64, error) { return f.Block(ni, p), nil }

// Release is a no-op.
func (f *Factors) Release(int, Part) {}

// Close is a no-op.
func (f *Factors) Close() error { return nil }
