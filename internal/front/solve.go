package front

import (
	"fmt"
	"sync"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/memory"
	"repro/internal/sparse"
)

// NodeFactor holds the factor pieces of one front.
type NodeFactor struct {
	Rows []int // global front indices: pivot columns then CB rows
	NPiv int
	L    *dense.Matrix // f x npiv lower trapezoid (diag: Cholesky=L(k,k), LU=1 implicit)
	U    *dense.Matrix // npiv x f upper trapezoid (LU only, holds U diag)
}

// Factors is the in-memory factor Store: per-node factor pieces held in
// one slice. Both executors produce one unless an external Store (e.g.
// the out-of-core file store) is supplied.
type Factors struct {
	Tree *assembly.Tree
	Kind sparse.Type
	N    int

	nodes []NodeFactor
	meter *memory.Meter

	solveOnce sync.Once
	solver    *Solver
}

// NewFactors allocates an empty factor container for the tree. Put (or
// SetNode) may then be called concurrently for distinct nodes.
func NewFactors(tree *assembly.Tree, kind sparse.Type) *Factors {
	return &Factors{
		Tree:  tree,
		Kind:  kind,
		N:     tree.N,
		nodes: make([]NodeFactor, tree.Len()),
	}
}

// SetNode stores the factor pieces of node ni without touching the
// resident meter. Distinct nodes may be set from different goroutines
// without synchronization.
func (f *Factors) SetNode(ni int, nf NodeFactor) { f.nodes[ni] = nf }

// Node returns the factor pieces of node ni.
func (f *Factors) Node(ni int) *NodeFactor { return &f.nodes[ni] }

// solve returns the lazily built reusable solver over this container.
func (f *Factors) solve() *Solver {
	f.solveOnce.Do(func() { f.solver = NewSolver(f, f.Tree, f.Kind, dense.KernelDefault) })
	return f.solver
}

// Solve solves A x = b for the permuted system (b and the result are in the
// permuted index space; see SolveOriginal for the original ordering).
// b is not modified.
func (f *Factors) Solve(b []float64) ([]float64, error) {
	return f.solve().SolveMulti(b, 1)
}

// SolveMulti solves nrhs systems at once: b is n x nrhs row-major (row i
// holds the i-th entry of every right-hand side) and the result has the
// same shape. Each column carries the exact bits of a single-RHS Solve.
func (f *Factors) SolveMulti(b []float64, nrhs int) ([]float64, error) {
	return f.solve().SolveMulti(b, nrhs)
}

// SolveOriginal solves for a right-hand side given in the *original*
// (pre-permutation) ordering, returning x in the original ordering.
func (f *Factors) SolveOriginal(b []float64) ([]float64, error) {
	return f.solve().SolveOriginalMulti(b, 1)
}

// SolveOriginalMulti is SolveMulti for right-hand sides given in the
// original (pre-permutation) ordering.
func (f *Factors) SolveOriginalMulti(b []float64, nrhs int) ([]float64, error) {
	return f.solve().SolveOriginalMulti(b, nrhs)
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
		nf, err := s.st.Fetch(ni)
		if err != nil {
			return nil, err
		}
		ForwardNodePanel(x, nf, s.kind, nrhs, w, s.kern)
		s.st.Release(ni)
	}
	// Backward: x = U^{-1} y (or L^{-T} y), reverse postorder.
	s.st.Prefetch(s.rev)
	for _, ni := range s.rev {
		nf, err := s.st.Fetch(ni)
		if err != nil {
			return nil, err
		}
		BackwardNodePanel(x, nf, s.kind, nrhs, w, s.kern)
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

// SolveStore solves A x = b in the permuted index space by streaming the
// factor blocks of the completed factorization out of st: the forward
// substitution walks fronts in postorder, the backward substitution in
// reverse postorder, each pass advising the store of its access order so
// a file-backed store can prefetch sequentially. b is not modified.
// Callers solving repeatedly should hold a Solver instead (this rebuilds
// the walk orders and scratch every call).
func SolveStore(st Store, tree *assembly.Tree, kind sparse.Type, b []float64) ([]float64, error) {
	return SolveStoreMulti(st, tree, kind, b, 1)
}

// SolveStoreMulti is SolveStore for an n x nrhs row-major block of
// right-hand sides, solved with one forward and one backward store pass
// total — a file-backed store streams the factors exactly twice however
// many right-hand sides ride along. Each column carries the exact bits
// of a single-RHS SolveStore.
func SolveStoreMulti(st Store, tree *assembly.Tree, kind sparse.Type, b []float64, nrhs int) ([]float64, error) {
	if st == nil {
		return nil, fmt.Errorf("front: nil factor store")
	}
	return NewSolver(st, tree, kind, dense.KernelDefault).SolveMulti(b, nrhs)
}

// SolveOriginalStore is SolveStore for a right-hand side given in the
// *original* (pre-permutation) ordering, returning x in the original
// ordering.
func SolveOriginalStore(st Store, tree *assembly.Tree, kind sparse.Type, b []float64) ([]float64, error) {
	return SolveOriginalStoreMulti(st, tree, kind, b, 1)
}

// SolveOriginalStoreMulti is SolveStoreMulti for right-hand sides in the
// original ordering.
func SolveOriginalStoreMulti(st Store, tree *assembly.Tree, kind sparse.Type, b []float64, nrhs int) ([]float64, error) {
	if st == nil {
		return nil, fmt.Errorf("front: nil factor store")
	}
	return NewSolver(st, tree, kind, dense.KernelDefault).SolveOriginalMulti(b, nrhs)
}

// ForwardNodePanel applies one front's part of the forward substitution
// to the n x nrhs row-major block x: gather the front's rows into the
// scratch panel w (at least len(nf.Rows)*nrhs), run the blocked kernel,
// scatter every row back. With dense.KernelDefault the per-column
// operation order is exactly the historical scalar solve's.
func ForwardNodePanel(x []float64, nf *NodeFactor, kind sparse.Type, nrhs int, w []float64, kern dense.Kernel) {
	f := len(nf.Rows)
	w = w[:f*nrhs]
	gatherPanel(x, nf.Rows, nrhs, w)
	W := dense.Matrix{R: f, C: nrhs, A: w}
	if kind == sparse.Symmetric {
		kern.SolveForwardCholesky(nf.L, nf.NPiv, &W)
	} else {
		kern.SolveForwardLU(nf.L, nf.NPiv, &W)
	}
	scatterPanel(x, nf.Rows, nrhs, w)
}

// BackwardNodePanel applies one front's part of the backward
// substitution. Only the npiv pivot rows are scattered back: the
// trailing CB rows are read-only inputs of the backward pass (they are
// pivot rows of ancestors, already final), so the tree-parallel solve
// can run sibling fronts concurrently without write overlap.
func BackwardNodePanel(x []float64, nf *NodeFactor, kind sparse.Type, nrhs int, w []float64, kern dense.Kernel) {
	f := len(nf.Rows)
	w = w[:f*nrhs]
	gatherPanel(x, nf.Rows, nrhs, w)
	W := dense.Matrix{R: f, C: nrhs, A: w}
	if kind == sparse.Symmetric {
		kern.SolveBackwardCholesky(nf.L, nf.NPiv, &W)
	} else {
		kern.SolveBackwardLU(nf.U, nf.NPiv, &W)
	}
	scatterPanel(x, nf.Rows[:nf.NPiv], nrhs, w)
}

func gatherPanel(x []float64, rows []int, nrhs int, w []float64) {
	if nrhs == 1 {
		for k, g := range rows {
			w[k] = x[g]
		}
		return
	}
	for k, g := range rows {
		copy(w[k*nrhs:(k+1)*nrhs], x[g*nrhs:(g+1)*nrhs])
	}
}

func scatterPanel(x []float64, rows []int, nrhs int, w []float64) {
	if nrhs == 1 {
		for k, g := range rows {
			x[g] = w[k]
		}
		return
	}
	for k, g := range rows {
		copy(x[g*nrhs:(g+1)*nrhs], w[k*nrhs:(k+1)*nrhs])
	}
}
