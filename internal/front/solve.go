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
// slab with every node's parts at their layout ranges (the L region,
// then for unsymmetric matrices the U region). Both executors
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
//
// The slab is neither cleared — ExtractFactor writes every word of every
// block, structural zeros included, and clearing would be a serial pass
// over the whole factorization ahead of the parallel workers — nor on
// small pages where the platform has huge ones: the workers fault a
// fresh slab in as they fill it, 2 MiB per fault instead of 4 KiB. On
// perfbench smallfront, clearing cost 22 % of par_factor_s, small pages
// 4 %.
func NewFactors(lay *Layout) *Factors {
	slab := Uninitialized(lay.Words())
	hugePages(slab)
	return &Factors{Layout: lay, slab: slab}
}

// Uninitialized returns n words whose contents are undefined: memory the
// garbage collector does not scan, allocated without the clearing make
// does. It is for buffers whose every word is written before it is read
// — the factor slab, spill records, spill-file read buffers — where
// clearing is a pass over memory that buys nothing.
func Uninitialized(n int64) []float64 {
	return unsafe.Slice((*float64)(mallocgc(uintptr(n)*8, nil, false)), n)
}

// mallocgc is the runtime's allocator; with typ nil it allocates memory
// the garbage collector does not scan, and needzero false skips the
// clearing. The runtime keeps this signature for linkname users.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// Slab returns every block of the factorization in the layout's order:
// two in-core factorizations of one tree are equal iff their slabs are.
func (f *Factors) Slab() []float64 { return f.slab }

// Block returns node ni's part p: its range of the slab.
func (f *Factors) Block(ni int, p Part) []float64 {
	lo, hi := f.Layout.Range(ni, p)
	return f.slab[lo:hi:hi]
}

// Solver is a reusable solve context over one completed factorization:
// it caches the postorder walks and one scratch panel sized to the
// largest contribution block — the backward pass gathers a front's CB
// rows there; everything else is solved in place in the right-hand-side
// block — so a solve allocates nothing per front, only the result
// block. A Solver serializes its own solves (the scratch is
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
	maxCB   int
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
		s.maxCB = max(s.maxCB, len(tree.Nodes[i].Rows))
	}
	return s
}

// panel returns the CB scratch panel for nrhs columns, growing it at
// most once per distinct width.
func (s *Solver) panel(nrhs int) []float64 {
	need := s.maxCB * nrhs
	if cap(s.scratch) < need {
		s.scratch = make([]float64, need)
	}
	return s.scratch[:need]
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
	// Forward: y = L^{-1} b, fronts in postorder over the L region.
	s.st.Prefetch(s.post, PartL)
	for _, ni := range s.post {
		blk, err := s.st.Fetch(ni, PartL)
		if err != nil {
			return nil, err
		}
		ForwardNodePanel(x, &s.tree.Nodes[ni], s.kind, blk, nrhs, s.kern)
		s.st.Release(ni, PartL)
	}
	// Backward: x = U^{-1} y (or L^{-T} y), reverse postorder over the
	// U region (the L region for symmetric matrices).
	w := s.panel(nrhs)
	bp := BackwardPart(s.kind)
	s.st.Prefetch(s.rev, bp)
	for _, ni := range s.rev {
		blk, err := s.st.Fetch(ni, bp)
		if err != nil {
			return nil, err
		}
		BackwardNodePanel(x, &s.tree.Nodes[ni], s.kind, blk, nrhs, w, s.kern)
		s.st.Release(ni, bp)
	}
	return x, nil
}

// SolveOriginalMulti solves nrhs systems in one forward and one
// backward pass over the factor store. b is n x nrhs row-major in the
// original (pre-permutation) ordering and is not modified; the result has
// the same shape and ordering.
func (s *Solver) SolveOriginalMulti(b []float64, nrhs int) ([]float64, error) {
	if err := CheckRHS(s.tree.N, b, nrhs); err != nil {
		return nil, err
	}
	perm := s.tree.Perm
	if perm == nil {
		return s.solveInPlace(append([]float64(nil), b...), nrhs)
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
// in place on the n x nrhs row-major block x, with L the node's L part.
// The kernel solves the pivot rows [Begin, End) where they lie — one
// contiguous npiv x nrhs panel of x — and updates each CB row
// nd.Rows[k] where it lies in x: nothing is copied. With
// dense.KernelDefault the per-column operation order is exactly the
// historical scalar solve's.
func ForwardNodePanel(x []float64, nd *assembly.Node, kind sparse.Type, L []float64, nrhs int, kern dense.Kernel) {
	Lm := partView(nd, PartL, L)
	P := pivotPanel(x, nd, nrhs)
	if kind == sparse.Symmetric {
		kern.SolveForwardCholesky(&Lm, &P, x, nd.Rows)
	} else {
		kern.SolveForwardLU(&Lm, &P, x, nd.Rows)
	}
}

// BackwardNodePanel applies node nd's part of the backward substitution
// in place on x, with blk the node's BackwardPart(kind). The CB rows are
// read-only inputs here (pivot rows of ancestors, already final): they
// are gathered into w (at least len(nd.Rows)*nrhs words) one run of
// consecutive rows per copy, and only the pivot rows are written, where
// they lie. So the tree-parallel solve can run sibling fronts
// concurrently without write overlap.
func BackwardNodePanel(x []float64, nd *assembly.Node, kind sparse.Type, blk []float64, nrhs int, w []float64, kern dense.Kernel) {
	F := partView(nd, BackwardPart(kind), blk)
	P := pivotPanel(x, nd, nrhs)
	C := gatherRows(x, nd.Rows, nrhs, w)
	if kind == sparse.Symmetric {
		kern.SolveBackwardCholesky(&F, &P, &C)
	} else {
		kern.SolveBackwardLU(&F, &P, &C)
	}
}

// pivotPanel returns node nd's pivot rows of x as an npiv x nrhs panel
// over x itself.
func pivotPanel(x []float64, nd *assembly.Node, nrhs int) dense.Matrix {
	lo, hi := nd.Begin*nrhs, nd.End*nrhs
	return dense.Matrix{R: nd.End - nd.Begin, C: nrhs, A: x[lo:hi:hi]}
}

// gatherRows copies rows of x into w and returns the len(rows) x nrhs
// panel over it, one copy per run of consecutive rows.
func gatherRows(x []float64, rows []int, nrhs int, w []float64) dense.Matrix {
	w = w[:len(rows)*nrhs]
	for k := 0; k < len(rows); {
		e := k + 1
		for e < len(rows) && rows[e] == rows[e-1]+1 {
			e++
		}
		copy(w[k*nrhs:e*nrhs], x[rows[k]*nrhs:(rows[e-1]+1)*nrhs])
		k = e
	}
	return dense.Matrix{R: len(rows), C: nrhs, A: w}
}
