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
	// Forward-pass DAG: per-row postorder chains, deduplicated. The
	// successors of front ni are fwdSucc[fwdOff[ni]:fwdOff[ni+1]]. The
	// backward pass's DAG is the tree itself: a front waits for its
	// parent and releases its children.
	fwdIndeg []int32
	fwdOff   []int32
	fwdSucc  []int32
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

// prepare builds the walk orders and the forward dependency graph once,
// in a fixed number of allocations whatever the front count: the row
// chains are swept twice, first to count each front's successors, then
// to fill them into one flat array. Callers hold s.mu.
func (s *TreeSolver) prepare() {
	if s.prep {
		return
	}
	tree := s.tree
	n := tree.Len()
	s.post = tree.Postorder()
	s.rev = make([]int, n)
	for i, ni := range s.post {
		s.rev[n-1-i] = ni
		s.maxCB = max(s.maxCB, len(tree.Nodes[ni].Rows))
	}
	s.fwdIndeg = make([]int32, n)
	s.fwdOff = make([]int32, n+1)
	lastIn := make([]int32, tree.N) // row -> last front in postorder touching it
	stamp := make([]int32, n)       // dedup: stamp[p] == ni iff p->ni is recorded
	s.rowChains(lastIn, stamp, func(p, ni int32) {
		s.fwdOff[p+1]++
		s.fwdIndeg[ni]++
	})
	for i := range n {
		s.fwdOff[i+1] += s.fwdOff[i]
	}
	// Fill with fwdOff[p] as p's cursor, which leaves it at p's end: the
	// start of p+1. Shifting by one restores the starts.
	s.fwdSucc = make([]int32, s.fwdOff[n])
	s.rowChains(lastIn, stamp, func(p, ni int32) {
		s.fwdSucc[s.fwdOff[p]] = ni
		s.fwdOff[p]++
	})
	copy(s.fwdOff[1:], s.fwdOff[:n])
	s.fwdOff[0] = 0
	s.prep = true
}

// rowChains calls edge(p, ni) once for every forward dependency, in
// postorder of ni: p is the front before ni in postorder that last
// touched one of ni's rows, pivot or CB.
func (s *TreeSolver) rowChains(lastIn, stamp []int32, edge func(p, ni int32)) {
	for i := range lastIn {
		lastIn[i] = -1
	}
	for i := range stamp {
		stamp[i] = -1
	}
	for _, ni := range s.post {
		nd := &s.tree.Nodes[ni]
		link := func(g int) {
			if p := lastIn[g]; p >= 0 && int(p) != ni && stamp[p] != int32(ni) {
				stamp[p] = int32(ni)
				edge(p, int32(ni))
			}
			lastIn[g] = int32(ni)
		}
		for g := nd.Begin; g < nd.End; g++ {
			link(g)
		}
		for _, g := range nd.Rows {
			link(g)
		}
	}
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
	err := s.runPass(ctx, s.post, front.PartL, 0, trace.SpanSolveFwd, true, func(ni int, blk, _ []float64) {
		front.ForwardNodePanel(x, &s.tree.Nodes[ni], s.kind, blk, nrhs, s.kern)
	})
	if err != nil {
		return nil, err
	}
	bp := front.BackwardPart(s.kind)
	s.st.Prefetch(s.rev, bp)
	err = s.runPass(ctx, s.rev, bp, s.maxCB*nrhs, trace.SpanSolveBwd, false, func(ni int, blk, w []float64) {
		front.BackwardNodePanel(x, &s.tree.Nodes[ni], s.kind, blk, nrhs, w, s.kern)
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// SolveOriginalMulti solves nrhs systems (b is n x nrhs row-major in
// the original, pre-permutation ordering, not modified; so is the
// result) with one forward and one backward pass over the factor store,
// fronts claimed tree-parallel by the solver's workers. The result is
// bitwise identical to the sequential front.Solver whatever the worker
// count (with dense.KernelDefault, also bitwise identical to a
// single-RHS solve per column).
func (s *TreeSolver) SolveOriginalMulti(b []float64, nrhs int) ([]float64, error) {
	return s.SolveOriginalMultiCtx(context.Background(), b, nrhs)
}

// SolveOriginalMultiCtx is SolveOriginalMulti under a context:
// cancellation drains both pass pools at the next front boundary and
// propagates to a bound fault-tolerant store, so its prefetcher stops
// too. A Background context costs nothing.
func (s *TreeSolver) SolveOriginalMultiCtx(ctx context.Context, b []float64, nrhs int) ([]float64, error) {
	if err := front.CheckRHS(s.tree.N, b, nrhs); err != nil {
		return nil, err
	}
	perm := s.tree.Perm
	if perm == nil {
		return s.solveInPlace(ctx, append([]float64(nil), b...), nrhs)
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
// releasing successors: the forward graph's (fwd) or the front's
// children. Claiming in walk order keeps the workers' Fetches on the
// store's prefetch stream, which reads the part's region in walk order.
// The claim/finish mutex handoff is the happens-before edge between a
// row's consecutive touchers.
func (s *TreeSolver) runPass(ctx context.Context, order []int, p front.Part, scratch int, span string, fwd bool, apply func(ni int, blk, w []float64)) error {
	var deg []int32
	if fwd {
		deg = append(deg, s.fwdIndeg...)
	}
	pos := make([]int32, len(order)) // node -> walk position
	ready := make(walkHeap, 0, len(order))
	for i, ni := range order {
		pos[ni] = int32(i)
		if fwd && deg[ni] == 0 || !fwd && s.tree.Nodes[ni].Parent < 0 {
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
				if fwd {
					for _, succ := range s.fwdSucc[s.fwdOff[ni]:s.fwdOff[ni+1]] {
						deg[succ]--
						if deg[succ] == 0 {
							ready.push(pos[succ])
						}
					}
				} else {
					for _, c := range s.tree.Nodes[ni].Children {
						ready.push(pos[c])
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
