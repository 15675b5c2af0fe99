// Package etree implements the symbolic analysis underlying the
// multifrontal method: the elimination tree of a (symmetrized) sparse
// matrix, its postordering, the column counts of the Cholesky/LU factor,
// fundamental supernodes and relaxed supernode amalgamation. These are the
// inputs from which internal/assembly builds the assembly tree of the
// paper's Figure 1.
package etree

import (
	"fmt"

	"repro/internal/sparse"
)

// Compute returns the elimination tree parent array of the symmetrized
// pattern of a (parent[j] = -1 for roots), using Liu's algorithm with path
// compression. The matrix is interpreted in its current order.
func Compute(a *sparse.CSC) []int {
	s := a
	if a.Kind != sparse.Symmetric {
		s = sparse.SymmetrizePattern(a)
	}
	n := s.N
	parent := make([]int, n)
	ancestor := make([]int, n)
	for j := 0; j < n; j++ {
		parent[j] = -1
		ancestor[j] = -1
	}
	// Liu's algorithm needs row-wise access to the strict lower triangle.
	rowPtr, rowIdx := lowerRows(s)
	for i := 0; i < n; i++ {
		// For each entry (i,k) with k<i: climb from k to the root of the
		// partially built forest, compressing, and attach to i.
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			k := rowIdx[p]
			for k != -1 && k < i {
				next := ancestor[k]
				ancestor[k] = i
				if next == -1 {
					parent[k] = i
				}
				k = next
			}
		}
	}
	return parent
}

// lowerRows returns CSR-style row lists of the strict lower triangle of a
// symmetric-lower CSC matrix: for row i, the columns k<i with a stored
// entry (i,k).
func lowerRows(s *sparse.CSC) (ptr, idx []int) {
	n := s.N
	ptr = make([]int, n+1)
	for j := 0; j < n; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			if i := s.RowIdx[p]; i > j {
				ptr[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	idx = make([]int, ptr[n])
	next := append([]int(nil), ptr[:n]...)
	for j := 0; j < n; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			if i := s.RowIdx[p]; i > j {
				idx[next[i]] = j
				next[i]++
			}
		}
	}
	return ptr, idx
}

// Postorder returns a postordering of the forest given by parent: children
// are visited before parents, and the relative order of siblings follows
// increasing vertex number (deterministic). The returned slice maps
// position -> vertex.
func Postorder(parent []int) []int {
	n := len(parent)
	// Build child lists (reversed so iterative traversal emits ascending).
	head := make([]int, n)
	next := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	var roots []int
	for v := n - 1; v >= 0; v-- {
		p := parent[v]
		if p < 0 {
			roots = append(roots, v)
		} else {
			next[v] = head[p]
			head[p] = v
		}
	}
	// roots collected descending; reverse for ascending deterministic order.
	for i, j := 0, len(roots)-1; i < j; i, j = i+1, j-1 {
		roots[i], roots[j] = roots[j], roots[i]
	}
	post := make([]int, 0, n)
	type frame struct {
		v     int
		child int
	}
	var stack []frame
	for _, r := range roots {
		stack = append(stack, frame{r, head[r]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.child == -1 {
				post = append(post, f.v)
				stack = stack[:len(stack)-1]
				continue
			}
			c := f.child
			f.child = next[c]
			stack = append(stack, frame{c, head[c]})
		}
	}
	return post
}

// ApplyPostorder relabels a permutation perm (new->old) by a postorder post
// of the permuted matrix's elimination tree, returning the composed
// permutation (new->old).
func ApplyPostorder(perm, post []int) []int {
	out := make([]int, len(post))
	for k, v := range post {
		out[k] = perm[v]
	}
	return out
}

// Relabel returns the forest parent renumbered by post (position ->
// vertex): out[k] is the position of post[k]'s parent, -1 for roots.
// Relabelled by one of its postorders, the elimination tree of A is the
// elimination tree of the postordered matrix, so the analysis never
// recomputes it.
func Relabel(parent, post []int) []int {
	pos := make([]int, len(post))
	for k, v := range post {
		pos[v] = k
	}
	out := make([]int, len(post))
	for k, v := range post {
		out[k] = -1
		if p := parent[v]; p >= 0 {
			out[k] = pos[p]
		}
	}
	return out
}

// ColCounts returns, for each column j of the (symbolic) factor of the
// symmetrized pattern of a, the number of nonzeros in column j including
// the diagonal. The matrix must already be in elimination order, with
// parent its elimination tree. Uses row-subtree traversal with marking —
// O(|L|) overall.
func ColCounts(a *sparse.CSC, parent []int) []int {
	s := a
	if a.Kind != sparse.Symmetric {
		s = sparse.SymmetrizePattern(a)
	}
	n := s.N
	counts := make([]int, n)
	mark := make([]int, n)
	for j := range mark {
		mark[j] = -1
		counts[j] = 1 // diagonal
	}
	rowPtr, rowIdx := lowerRows(s)
	for i := 0; i < n; i++ {
		// Row i of the factor: union of paths k→...→i in the etree for each
		// a(i,k), k<i. Each visited column j<i gains a nonzero in row i.
		mark[i] = i
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			for k := rowIdx[p]; k != -1 && k < i && mark[k] != i; k = parent[k] {
				counts[k]++
				mark[k] = i
			}
		}
	}
	return counts
}

// FactorNNZ returns the total number of entries in the symbolic Cholesky
// factor (sum of column counts).
func FactorNNZ(counts []int) int64 {
	var t int64
	for _, c := range counts {
		t += int64(c)
	}
	return t
}

// Validate checks that parent is a forest over n vertices with parent
// pointers strictly increasing (holds after postordering of an elimination
// tree) — pass strict=false to skip the monotonicity check.
func Validate(parent []int, strict bool) error {
	n := len(parent)
	for v, p := range parent {
		if p < -1 || p >= n {
			return fmt.Errorf("etree: parent[%d] = %d out of range", v, p)
		}
		if p == v {
			return fmt.Errorf("etree: self-loop at %d", v)
		}
		if strict && p != -1 && p < v {
			return fmt.Errorf("etree: parent[%d] = %d not increasing", v, p)
		}
	}
	if !strict {
		// Detect cycles by climbing with a step bound.
		for v := range parent {
			x, steps := v, 0
			for x != -1 {
				x = parent[x]
				if steps++; steps > n {
					return fmt.Errorf("etree: cycle reachable from %d", v)
				}
			}
		}
	}
	return nil
}
