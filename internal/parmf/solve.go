package parmf

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/faults"
	"repro/internal/front"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// TreeSolver runs the solve phase tree-parallel over a completed
// factorization: a pool of workers claims fronts as their dependencies
// complete — the forward pass in postorder as children finish, the
// backward pass in reverse with a parent-first dependency — mirroring
// the claim/finish discipline of the factorization's worker pool.
//
// Determinism. A worker-count-independent, bitwise-sequential result
// needs more than "children done" on the forward pass: two fronts in
// *different* subtrees may share contribution rows (any common ancestor
// pivot row), and floating-point subtraction orders on a shared row must
// not depend on scheduling. The forward dependency graph therefore
// chains, for every global row, the fronts that touch it (pivot rows and
// CB rows alike) in postorder: each front waits for the previous toucher
// of every one of its rows. Any topological execution then applies every
// row's updates in exactly sequential order — the parallel solve is
// bitwise identical to front.Solver at 1, 2 or any number of workers.
// The chains subsume the child→parent edges (a child's pivot rows and CB
// rows all reappear in or under the parent's row set only via shared
// rows), and the scheduling mutex's claim/finish handoff provides the
// happens-before for the row data itself.
//
// The backward pass is simpler: a front reads its CB rows (pivot rows of
// ancestors, final once the ancestors completed) and writes only its own
// pivot rows, so parent-first edges alone make it race-free and exact.
//
// A TreeSolver serializes its own solves (scratch and indegree state are
// per-solver); the store additionally admits one solve at a time.
type TreeSolver struct {
	st      front.Store
	tree    *assembly.Tree
	kind    sparse.Type
	kern    dense.Kernel
	workers int
	tr      *trace.Tracer    // nil when untraced
	faults  *faults.Injector // nil when unarmed

	mu    sync.Mutex
	prep  bool
	post  []int
	rev   []int
	maxCB int // largest contribution block: the backward pass's scratch rows
	// Forward-pass DAG: per-row postorder chains, deduplicated.
	fwdIndeg []int32
	fwdSuccs [][]int32
	// Backward-pass DAG: parent-first.
	bwdIndeg []int32
	bwdSuccs [][]int32
}

// NewTreeSolver builds a reusable tree-parallel solve context. workers
// < 1 is treated as 1; kern selects the triangular-solve kernel family
// (dense.KernelDefault for the bitwise-reference order).
func NewTreeSolver(st front.Store, tree *assembly.Tree, kind sparse.Type, workers int, kern dense.Kernel) *TreeSolver {
	if workers < 1 {
		workers = 1
	}
	return &TreeSolver{st: st, tree: tree, kind: kind, kern: kern, workers: workers}
}

// SetTracer attaches a tracer recording per-node solve spans
// (trace.SpanSolveFwd / trace.SpanSolveBwd, one per front visit) on the
// solve workers' tracks. nil detaches. Factors.Solver wires the
// factorization's tracer through automatically.
func (s *TreeSolver) SetTracer(tr *trace.Tracer) {
	s.mu.Lock()
	s.tr = tr
	s.mu.Unlock()
}

// SetFaults arms deterministic fault injection at the solve's per-front
// visit point (see internal/faults). nil disarms at zero cost.
// Factors.Solver wires the factorization's injector through
// automatically.
func (s *TreeSolver) SetFaults(in *faults.Injector) {
	s.mu.Lock()
	s.faults = in
	s.mu.Unlock()
}

// prepare builds the walk orders and both dependency graphs once.
// Callers hold s.mu.
func (s *TreeSolver) prepare() {
	if s.prep {
		return
	}
	tree := s.tree
	s.post = tree.Postorder()
	s.rev = make([]int, len(s.post))
	for i, ni := range s.post {
		s.rev[len(s.post)-1-i] = ni
	}
	n := tree.Len()
	s.fwdIndeg = make([]int32, n)
	s.fwdSuccs = make([][]int32, n)
	s.bwdIndeg = make([]int32, n)
	s.bwdSuccs = make([][]int32, n)
	lastIn := make([]int32, tree.N) // row -> last front in postorder touching it
	for i := range lastIn {
		lastIn[i] = -1
	}
	edge := make([]int32, n) // dedup stamp: edge[p] == ni+1 iff p->ni exists
	for i := range edge {
		edge[i] = -1
	}
	for _, ni := range s.post {
		nd := &tree.Nodes[ni]
		s.maxCB = max(s.maxCB, len(nd.Rows))
		chain := func(g int) {
			if p := lastIn[g]; p >= 0 && int(p) != ni && edge[p] != int32(ni) {
				edge[p] = int32(ni)
				s.fwdSuccs[p] = append(s.fwdSuccs[p], int32(ni))
				s.fwdIndeg[ni]++
			}
			lastIn[g] = int32(ni)
		}
		for g := nd.Begin; g < nd.End; g++ {
			chain(g)
		}
		for _, g := range nd.Rows {
			chain(g)
		}
		if nd.Parent >= 0 {
			s.bwdIndeg[ni] = 1
			s.bwdSuccs[nd.Parent] = append(s.bwdSuccs[nd.Parent], int32(ni))
		}
	}
	s.prep = true
}

// Solve solves a single right-hand side in the permuted index space.
func (s *TreeSolver) Solve(b []float64) ([]float64, error) { return s.SolveMulti(b, 1) }

// SolveMulti solves nrhs systems (b is n x nrhs row-major, not
// modified) with one forward and one backward pass over the factor
// store, fronts claimed tree-parallel by the solver's workers. The
// result is bitwise identical to the sequential front.Solver whatever
// the worker count (with dense.KernelDefault, also bitwise identical to
// a single-RHS solve per column).
func (s *TreeSolver) SolveMulti(b []float64, nrhs int) ([]float64, error) {
	return s.SolveMultiCtx(context.Background(), b, nrhs)
}

// SolveMultiCtx is SolveMulti under a context: cancellation drains both
// pass pools at the next front boundary and propagates to a bound
// fault-tolerant store, so its prefetcher stops too. A Background
// context costs nothing.
func (s *TreeSolver) SolveMultiCtx(ctx context.Context, b []float64, nrhs int) ([]float64, error) {
	if err := front.CheckRHS(s.tree.N, b, nrhs); err != nil {
		return nil, err
	}
	return s.solveInPlace(ctx, append([]float64(nil), b...), nrhs)
}

// solveInPlace runs both passes over the validated n x nrhs block x,
// overwriting it with the solution.
func (s *TreeSolver) solveInPlace(ctx context.Context, x []float64, nrhs int) ([]float64, error) {
	if s.st == nil {
		return nil, fmt.Errorf("parmf: nil factor store")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("parmf: solve cancelled: %w", context.Cause(ctx))
	}
	s.prepare()
	s.tr.EnsureWorkers(s.workers)
	if err := s.st.BeginSolve(); err != nil {
		return nil, err
	}
	defer s.st.EndSolve()
	s.st.SetContext(ctx)
	s.st.Prefetch(s.post, front.PartL)
	err := s.runPass(ctx, s.post, front.PartL, 0, trace.SpanSolveFwd, s.fwdIndeg, s.fwdSuccs, func(ni int, blk, _ []float64) {
		front.ForwardNodePanel(x, &s.tree.Nodes[ni], s.kind, blk, nrhs, s.kern)
	})
	if err != nil {
		return nil, err
	}
	bp := front.BackwardPart(s.kind)
	s.st.Prefetch(s.rev, bp)
	err = s.runPass(ctx, s.rev, bp, s.maxCB*nrhs, trace.SpanSolveBwd, s.bwdIndeg, s.bwdSuccs, func(ni int, blk, w []float64) {
		front.BackwardNodePanel(x, &s.tree.Nodes[ni], s.kind, blk, nrhs, w, s.kern)
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// SolveOriginal solves a single right-hand side given in the original
// (pre-permutation) ordering.
func (s *TreeSolver) SolveOriginal(b []float64) ([]float64, error) {
	return s.SolveOriginalMulti(b, 1)
}

// SolveOriginalMulti is SolveMulti for right-hand sides in the original
// ordering, returning x in the original ordering.
func (s *TreeSolver) SolveOriginalMulti(b []float64, nrhs int) ([]float64, error) {
	return s.SolveOriginalMultiCtx(context.Background(), b, nrhs)
}

// SolveOriginalMultiCtx is SolveOriginalMulti under a context.
func (s *TreeSolver) SolveOriginalMultiCtx(ctx context.Context, b []float64, nrhs int) ([]float64, error) {
	if err := front.CheckRHS(s.tree.N, b, nrhs); err != nil {
		return nil, err
	}
	perm := s.tree.Perm
	if perm == nil {
		return s.SolveMultiCtx(ctx, b, nrhs)
	}
	px, err := s.solveInPlace(ctx, front.PermuteRHS(perm, b, nrhs), nrhs)
	if err != nil {
		return nil, err
	}
	return front.UnpermuteRHS(perm, px, nrhs), nil
}

// runPass executes one substitution pass over part p of the factors:
// workers claim indegree-zero fronts from a shared ready set, always the
// one earliest in the walk, run the node's panel outside the lock with a
// per-worker scratch of scratch words, and finish under the lock,
// releasing successors. Claiming in walk order keeps the workers' Fetches
// on the store's prefetch stream, which reads the part's region in walk
// order. The claim/finish mutex handoff is the happens-before edge
// between a row's consecutive touchers.
func (s *TreeSolver) runPass(ctx context.Context, order []int, p front.Part, scratch int, span string, indeg []int32, succs [][]int32, apply func(ni int, blk, w []float64)) error {
	deg := append([]int32(nil), indeg...)
	pos := make([]int32, len(order)) // node -> walk position
	ready := make(walkHeap, 0, len(order))
	for i, ni := range order {
		pos[ni] = int32(i)
		if deg[ni] == 0 {
			ready = append(ready, int32(i)) // ascending: already a heap
		}
	}
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		remaining = len(order)
		firstErr  error
		wg        sync.WaitGroup
	)
	if ctx.Done() != nil {
		// Same shape as the factorization pool's watcher: poison the pass
		// error and wake cond.Wait-blocked workers so the pool drains at
		// the next front boundary.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("parmf: solve cancelled (%s pass): %w", span, context.Cause(ctx))
				}
				cond.Broadcast()
				mu.Unlock()
			case <-stop:
			}
		}()
	}
	workers := s.workers
	if workers > remaining && remaining > 0 {
		workers = remaining
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			buf := make([]float64, scratch)
			mu.Lock()
			for {
				for firstErr == nil && remaining > 0 && len(ready) == 0 {
					cond.Wait()
				}
				if firstErr != nil || remaining == 0 {
					mu.Unlock()
					return
				}
				ni := order[ready.pop()]
				mu.Unlock()

				// The panel runs unlocked with panic containment, mirroring
				// the factorization workers: a panicking front becomes a
				// descriptive error and the pass drains cleanly.
				s.tr.Begin(id, span, ni)
				err := func() (err error) {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("parmf: solve worker %d: panic at node %d (%s pass): %v", id, ni, span, p)
						}
					}()
					if err := s.faults.Check(faults.Solve, ni); err != nil {
						return fmt.Errorf("parmf: solve node %d: %w", ni, err)
					}
					blk, err := s.st.Fetch(ni, p)
					if err != nil {
						return err
					}
					apply(ni, blk, buf)
					s.st.Release(ni, p)
					return nil
				}()
				s.tr.End(id, span, ni)

				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				remaining--
				for _, succ := range succs[ni] {
					deg[succ]--
					if deg[succ] == 0 {
						ready.push(pos[succ])
					}
				}
				cond.Broadcast()
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// walkHeap is a binary min-heap of walk positions: the ready set of a
// solve pass, which hands out the ready front that comes first in the
// walk.
type walkHeap []int32

func (h *walkHeap) push(v int32) {
	*h = append(*h, v)
	a := *h
	for i := len(a) - 1; i > 0; {
		up := (i - 1) / 2
		if a[up] <= a[i] {
			break
		}
		a[up], a[i] = a[i], a[up]
		i = up
	}
}

func (h *walkHeap) pop() int32 {
	a := *h
	top, last := a[0], len(a)-1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(a) {
			break
		}
		if c+1 < len(a) && a[c+1] < a[c] {
			c++
		}
		if a[i] <= a[c] {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}
