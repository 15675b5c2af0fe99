package front

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/memory"
	"repro/internal/sparse"
)

// Factors is the in-memory factor Store: the Layout held in memory, one
// slab with every node's block at its layout range. Both executors
// produce one unless an external Store (e.g. the out-of-core file store)
// is supplied; a Solver solves over it like over any Store.
type Factors struct {
	Layout *Layout

	slab  []float64
	meter *memory.Meter // nil until Bind
}

// NewFactors allocates the slab for lay; a block's contents are
// undefined until its Put. Put may be called concurrently for distinct
// nodes.
func NewFactors(lay *Layout) *Factors {
	return &Factors{Layout: lay, slab: uninitialized(lay.Words())}
}

// uninitialized returns n words whose contents are undefined, on huge
// pages where the platform has them. The slab needs no clearing —
// ExtractFactor writes every word of every block, structural zeros
// included — and clearing it would be a serial pass over the whole
// factorization ahead of the parallel workers. The workers fault a fresh
// slab in as they fill it, 2 MiB per fault instead of 4 KiB. On
// perfbench smallfront, clearing cost 22 % of par_factor_s, small pages
// 4 %.
func uninitialized(n int64) []float64 {
	s := unsafe.Slice((*float64)(mallocgc(uintptr(n)*8, nil, false)), n)
	hugePages(s)
	return s
}

// mallocgc is the runtime's allocator; with typ nil it allocates memory
// the garbage collector does not scan, and needzero false skips the
// clearing. The runtime keeps this signature for linkname users.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// Slab returns every block of the factorization, back to back in the
// layout's order: two in-core factorizations of one tree are equal iff
// their slabs are.
func (f *Factors) Slab() []float64 { return f.slab }

// Block returns node ni's range of the slab.
func (f *Factors) Block(ni int) []float64 {
	lo, hi := f.Layout.Range(ni)
	return f.slab[lo:hi:hi]
}

// Solver is a reusable solve context over one completed factorization:
// it caches the postorder walks and one scratch panel sized to the
// largest front, so a solve allocates nothing per front — only the
// result block. A Solver serializes its own solves (the scratch is
// shared); create one per goroutine for concurrent solving against an
// in-memory store (a file store allows one solve at a time regardless).
type Solver struct {
	st   Store
	tree *assembly.Tree
	kind sparse.Type
	kern dense.Kernel

	mu      sync.Mutex
	post    []int
	rev     []int
	maxF    int
	scratch []float64
}

// NewSolver builds a solve context for the completed factorization in
// st. kern selects the triangular-solve kernel family (KernelDefault
// replays the reference operation order bit-for-bit).
func NewSolver(st Store, tree *assembly.Tree, kind sparse.Type, kern dense.Kernel) *Solver {
	s := &Solver{st: st, tree: tree, kind: kind, kern: kern}
	s.post = tree.Postorder()
	s.rev = make([]int, len(s.post))
	for i, ni := range s.post {
		s.rev[len(s.post)-1-i] = ni
	}
	for i := range tree.Nodes {
		if f := tree.Nodes[i].NFront(); f > s.maxF {
			s.maxF = f
		}
	}
	return s
}

// panel returns the scratch panel for nrhs columns, growing it at most
// once per distinct width.
func (s *Solver) panel(nrhs int) []float64 {
	need := s.maxF * nrhs
	if cap(s.scratch) < need {
		s.scratch = make([]float64, need)
	}
	return s.scratch[:need]
}

// Solve solves a single right-hand side in the permuted index space.
func (s *Solver) Solve(b []float64) ([]float64, error) { return s.SolveMulti(b, 1) }

// SolveMulti solves nrhs systems in one forward and one backward pass
// over the factor store. b is n x nrhs row-major and is not modified.
func (s *Solver) SolveMulti(b []float64, nrhs int) ([]float64, error) {
	if err := CheckRHS(s.tree.N, b, nrhs); err != nil {
		return nil, err
	}
	return s.solveInPlace(append([]float64(nil), b...), nrhs)
}

// solveInPlace runs both passes over the validated n x nrhs block x,
// overwriting it with the solution.
func (s *Solver) solveInPlace(x []float64, nrhs int) ([]float64, error) {
	if s.st == nil {
		return nil, fmt.Errorf("front: nil factor store")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.st.BeginSolve(); err != nil {
		return nil, err
	}
	defer s.st.EndSolve()
	w := s.panel(nrhs)
	// Forward: y = L^{-1} b, fronts in postorder.
	s.st.Prefetch(s.post)
	for _, ni := range s.post {
		blk, err := s.st.Fetch(ni)
		if err != nil {
			return nil, err
		}
		ForwardNodePanel(x, &s.tree.Nodes[ni], s.kind, blk, nrhs, w, s.kern)
		s.st.Release(ni)
	}
	// Backward: x = U^{-1} y (or L^{-T} y), reverse postorder.
	s.st.Prefetch(s.rev)
	for _, ni := range s.rev {
		blk, err := s.st.Fetch(ni)
		if err != nil {
			return nil, err
		}
		BackwardNodePanel(x, &s.tree.Nodes[ni], s.kind, blk, nrhs, w, s.kern)
		s.st.Release(ni)
	}
	return x, nil
}

// SolveOriginal solves a single right-hand side given in the original
// (pre-permutation) ordering.
func (s *Solver) SolveOriginal(b []float64) ([]float64, error) {
	return s.SolveOriginalMulti(b, 1)
}

// SolveOriginalMulti is SolveMulti for right-hand sides in the original
// ordering, returning x in the original ordering.
func (s *Solver) SolveOriginalMulti(b []float64, nrhs int) ([]float64, error) {
	if err := CheckRHS(s.tree.N, b, nrhs); err != nil {
		return nil, err
	}
	perm := s.tree.Perm
	if perm == nil {
		return s.SolveMulti(b, nrhs)
	}
	px, err := s.solveInPlace(PermuteRHS(perm, b, nrhs), nrhs)
	if err != nil {
		return nil, err
	}
	return UnpermuteRHS(perm, px, nrhs), nil
}

// CheckRHS validates a right-hand-side block against the system order:
// nrhs must be positive and b must hold exactly n*nrhs values (row-major
// n x nrhs). Every solve entry point runs it so a malformed block is a
// descriptive error, never a panic inside a gather loop.
func CheckRHS(n int, b []float64, nrhs int) error {
	if nrhs < 1 {
		return fmt.Errorf("front: nrhs must be >= 1 (got %d)", nrhs)
	}
	if b == nil {
		return fmt.Errorf("front: nil rhs block (want n*nrhs = %d*%d = %d values)", n, nrhs, n*nrhs)
	}
	if len(b) != n*nrhs {
		return fmt.Errorf("front: rhs block length %d, want n*nrhs = %d*%d = %d", len(b), n, nrhs, n*nrhs)
	}
	return nil
}

// PermuteRHS maps a row-major n x nrhs block from the original to the
// permuted index space (perm[newI] = oldI) in a fresh block, which the
// original-ordering solves then solve in place.
func PermuteRHS(perm []int, b []float64, nrhs int) []float64 {
	pb := make([]float64, len(b))
	for newI, oldI := range perm {
		copy(pb[newI*nrhs:(newI+1)*nrhs], b[oldI*nrhs:(oldI+1)*nrhs])
	}
	return pb
}

// UnpermuteRHS maps a solved block back to the original index space.
func UnpermuteRHS(perm []int, px []float64, nrhs int) []float64 {
	x := make([]float64, len(px))
	for newI, oldI := range perm {
		copy(x[oldI*nrhs:(oldI+1)*nrhs], px[newI*nrhs:(newI+1)*nrhs])
	}
	return x
}

// ForwardNodePanel applies node nd's part of the forward substitution
// to the n x nrhs row-major block x, with blk the node's factor block:
// copy the front's rows into the scratch panel w (at least
// NFront*nrhs) — the pivot rows [Begin, End) as one contiguous copy, the
// CB rows gathered — run the blocked kernel, and copy every row back.
// With dense.KernelDefault the per-column operation order is exactly the
// historical scalar solve's.
func ForwardNodePanel(x []float64, nd *assembly.Node, kind sparse.Type, blk []float64, nrhs int, w []float64, kern dense.Kernel) {
	L, _ := blockViews(nd, kind, blk)
	W := gatherPanel(x, nd, nrhs, w)
	if kind == sparse.Symmetric {
		kern.SolveForwardCholesky(&L, L.C, &W)
	} else {
		kern.SolveForwardLU(&L, L.C, &W)
	}
	cb := W.A[copy(x[nd.Begin*nrhs:nd.End*nrhs], W.A):]
	if nrhs == 1 {
		for k, g := range nd.Rows {
			x[g] = cb[k]
		}
		return
	}
	for k, g := range nd.Rows {
		copy(x[g*nrhs:(g+1)*nrhs], cb[k*nrhs:(k+1)*nrhs])
	}
}

// BackwardNodePanel applies node nd's part of the backward substitution.
// Only the pivot rows are copied back: the trailing CB rows are
// read-only inputs of the backward pass (they are pivot rows of
// ancestors, already final), so the tree-parallel solve can run sibling
// fronts concurrently without write overlap.
func BackwardNodePanel(x []float64, nd *assembly.Node, kind sparse.Type, blk []float64, nrhs int, w []float64, kern dense.Kernel) {
	L, U := blockViews(nd, kind, blk)
	W := gatherPanel(x, nd, nrhs, w)
	if kind == sparse.Symmetric {
		kern.SolveBackwardCholesky(&L, L.C, &W)
	} else {
		kern.SolveBackwardLU(&U, U.R, &W)
	}
	copy(x[nd.Begin*nrhs:nd.End*nrhs], W.A[:(nd.End-nd.Begin)*nrhs])
}

// gatherPanel copies node nd's front rows of x into w and returns the
// NFront x nrhs panel over it: the pivot rows are one contiguous range
// of x, the CB rows are gathered one by one.
func gatherPanel(x []float64, nd *assembly.Node, nrhs int, w []float64) dense.Matrix {
	f := nd.NFront()
	w = w[:f*nrhs]
	piv := copy(w, x[nd.Begin*nrhs:nd.End*nrhs])
	cb := w[piv:]
	if nrhs == 1 {
		for k, g := range nd.Rows {
			cb[k] = x[g]
		}
	} else {
		for k, g := range nd.Rows {
			copy(cb[k*nrhs:(k+1)*nrhs], x[g*nrhs:(g+1)*nrhs])
		}
	}
	return dense.Matrix{R: f, C: nrhs, A: w}
}
