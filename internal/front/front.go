// Package front holds the numeric multifrontal kernels shared by the
// sequential (internal/seqmf) and shared-memory parallel (internal/parmf)
// executors: per-front assembly (scatter of original entries, extend-add of
// children contribution blocks), partial factorization dispatch, factor and
// contribution-block extraction, and the triangular solves over a completed
// set of node factors.
//
// The split between Shared (immutable per-factorization symbolic state,
// safe for concurrent readers) and Assembler (per-worker scratch arrays)
// is what lets several workers assemble independent fronts at once.
package front

import (
	"fmt"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// Shared is the read-only state of one numeric factorization: the permuted
// matrix (and its transpose for unsymmetric upper parts) plus the assembly
// tree. It is built once and may be read by any number of Assemblers
// concurrently.
type Shared struct {
	PA   *sparse.CSC
	PAT  *sparse.CSC // transpose, nil for symmetric matrices
	Tree *assembly.Tree
}

// NewShared validates the inputs and precomputes the transpose needed for
// the unsymmetric row scatter.
func NewShared(pa *sparse.CSC, tree *assembly.Tree) (*Shared, error) {
	if !pa.HasValues() {
		return nil, fmt.Errorf("front: matrix has no values")
	}
	if pa.N != tree.N {
		return nil, fmt.Errorf("front: matrix order %d vs tree %d", pa.N, tree.N)
	}
	sh := &Shared{PA: pa, Tree: tree}
	if pa.Kind == sparse.Unsymmetric {
		sh.PAT = sparse.Transpose(pa)
	}
	return sh, nil
}

// Assembler carries the per-worker scratch needed to assemble fronts: the
// global→local index map and its stamp array, plus the reusable index and
// run buffers of the extend-add — in the steady state an Assembler
// assembles fronts without allocating. Each concurrent worker must own
// its own Assembler; all may share one Shared.
type Assembler struct {
	sh    *Shared
	loc   []int // global -> local front index, valid where stamp == node
	stamp []int
	idx   []int            // extend-add scratch: child row -> parent local
	runs  []dense.IndexRun // extend-add scratch: consecutive-index runs
}

// NewAssembler returns a fresh assembler over sh.
func NewAssembler(sh *Shared) *Assembler {
	a := &Assembler{
		sh:    sh,
		loc:   make([]int, sh.PA.N),
		stamp: make([]int, sh.PA.N),
	}
	for i := range a.stamp {
		a.stamp[i] = -1
	}
	return a
}

// Begin stamps the front structure of node ni and returns its global row
// list (pivot columns then CB rows). The returned slice is freshly
// allocated and owned by the caller (it becomes NodeFactor.Rows).
func (a *Assembler) Begin(ni int) []int {
	nd := &a.sh.Tree.Nodes[ni]
	rows := make([]int, 0, nd.NFront())
	for j := nd.Begin; j < nd.End; j++ {
		rows = append(rows, j)
	}
	rows = append(rows, nd.Rows...)
	for k, g := range rows {
		a.loc[g] = k
		a.stamp[g] = ni
	}
	return rows
}

// Scatter adds the original matrix entries owned by node ni into the front
// f (order NFront). Begin(ni) must have stamped the structure first.
func (a *Assembler) Scatter(ni int, f *dense.Matrix) error {
	nd := &a.sh.Tree.Nodes[ni]
	pa := a.sh.PA
	for j := nd.Begin; j < nd.End; j++ {
		lj := a.loc[j]
		cols := pa.Col(j)
		vals := pa.ColVal(j)
		for p, i := range cols {
			if pa.Kind == sparse.Symmetric {
				if i < j {
					continue
				}
				f.Add(a.loc[i], lj, vals[p])
				continue
			}
			// Unsymmetric: entry (i,j) belongs here iff min(i,j) is ours,
			// i.e. i >= Begin (j is ours already).
			if i >= nd.Begin {
				if a.stamp[i] != ni {
					return fmt.Errorf("front: structure misses row %d in front %d", i, ni)
				}
				f.Add(a.loc[i], lj, vals[p])
			}
		}
		if a.sh.PAT != nil {
			// Row j entries (j, c) with c beyond this node's pivots.
			cols := a.sh.PAT.Col(j)
			vals := a.sh.PAT.ColVal(j)
			for p, c := range cols {
				if c < nd.End {
					continue // handled by a column scatter
				}
				if a.stamp[c] != ni {
					return fmt.Errorf("front: structure misses col %d in front %d", c, ni)
				}
				f.Add(lj, a.loc[c], vals[p])
			}
		}
	}
	return nil
}

// ExtendAdd assembles child c's contribution block cb into the front f of
// node ni and returns the number of extend-add operations (CB entries in
// model units). Begin(ni) must have stamped the structure first.
func (a *Assembler) ExtendAdd(ni int, f *dense.Matrix, c int, cb *dense.Matrix) (int64, error) {
	if cb == nil {
		return 0, fmt.Errorf("front: child %d CB missing at node %d", c, ni)
	}
	child := &a.sh.Tree.Nodes[c]
	if cap(a.idx) < len(child.Rows) {
		a.idx = make([]int, len(child.Rows))
	}
	idx := a.idx[:len(child.Rows)]
	for k, g := range child.Rows {
		if a.stamp[g] != ni {
			return 0, fmt.Errorf("front: child %d row %d not in parent %d front", c, g, ni)
		}
		idx[k] = a.loc[g]
	}
	// Collapse consecutive-index runs once per child; the scatter then
	// moves contiguous spans instead of per-element indexed adds.
	a.runs = dense.AppendRuns(a.runs[:0], idx)
	if a.sh.Tree.Kind == sparse.Symmetric {
		dense.ExtendAddLowerRuns(f, cb, idx, a.runs)
	} else {
		dense.ExtendAddRuns(f, cb, idx, a.runs)
	}
	return assembly.CBEntries(child, a.sh.Tree.Kind), nil
}

// Eliminate runs the partial factorization of the assembled front: partial
// Cholesky for symmetric matrices, partial LU (static pivoting, threshold
// tol) otherwise.
func Eliminate(f *dense.Matrix, npiv int, kind sparse.Type, tol float64) error {
	if kind == sparse.Symmetric {
		return dense.PartialCholesky(f, npiv)
	}
	return dense.PartialLU(f, npiv, tol)
}

// EliminateKernel runs the partial factorization through the selected
// kernel family of the dispatch layer (internal/dense). With
// dense.KernelDefault, blockRows <= 0 falls back to the element-wise
// kernels and every path produces bitwise-identical factors, so callers
// may mix block sizes freely across executors. dense.KernelSIMD always
// runs blocked (blockRows <= 0 uses dense.DefaultBlockRows) and is
// validated by residual, not bit equality; it is still deterministic for
// a fixed panel width, independent of row partition and worker count.
// dense.KernelAuto is resolved here so the blockRows default tracks the
// concrete family.
func EliminateKernel(f *dense.Matrix, npiv int, kind sparse.Type, tol float64, blockRows int, kern dense.Kernel) error {
	kern = kern.Resolve()
	if kern != dense.KernelDefault && blockRows <= 0 {
		blockRows = dense.DefaultBlockRows
	}
	if blockRows <= 0 {
		return Eliminate(f, npiv, kind, tol)
	}
	if kind == sparse.Symmetric {
		return kern.PartialCholesky(f, npiv, blockRows)
	}
	return kern.PartialLU(f, npiv, tol, blockRows)
}

// ExtractFactor copies the factor pieces out of the eliminated front: the
// nf x npiv lower trapezoid (diag: Cholesky=L(k,k), LU=1 implicit) and, for
// unsymmetric matrices, the npiv x nf upper trapezoid holding the U diag.
func ExtractFactor(f *dense.Matrix, rows []int, npiv int, kind sparse.Type) NodeFactor {
	nf := len(rows)
	nfac := NodeFactor{Rows: rows, NPiv: npiv}
	nfac.L = dense.New(nf, npiv)
	for i := 0; i < nf; i++ {
		for k := 0; k < npiv && k <= i; k++ {
			nfac.L.Set(i, k, f.At(i, k))
		}
	}
	if kind == sparse.Unsymmetric {
		nfac.U = dense.New(npiv, nf)
		for k := 0; k < npiv; k++ {
			for j := k; j < nf; j++ {
				nfac.U.Set(k, j, f.At(k, j))
			}
		}
	}
	return nfac
}

// ExtractCB copies the contribution block (the trailing Schur complement)
// out of the eliminated front, or returns nil when the node has no CB.
// Symmetric fronts copy the lower triangle only. The block is drawn from
// the arena (nil allocates fresh); it is consumed by the parent's
// extend-add and should be freed into the consuming worker's arena.
func ExtractCB(a *Arena, f *dense.Matrix, npiv, ncb int, kind sparse.Type) *dense.Matrix {
	if ncb == 0 {
		return nil
	}
	cb := a.Matrix(ncb, ncb)
	for i := 0; i < ncb; i++ {
		src := f.Row(npiv + i)[npiv : npiv+ncb]
		if kind == sparse.Symmetric {
			src = src[:i+1]
		}
		copy(cb.Row(i), src)
	}
	return cb
}
