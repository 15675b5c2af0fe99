// Package assembly builds and manipulates the multifrontal assembly tree
// (paper Section 2): nodes are fronts with a pivot block and a contribution
// block, edges are the task dependencies of the factorization. It provides
// the exact symbolic front structures, the cost models (factor entries, CB
// entries, elimination flops) used by both the memory accounting and the
// workload-based scheduler, Liu's stack-minimizing child ordering, the
// static node splitting of Section 6, and the Geist-Ng subtree construction
// plus static processor mapping of Section 3.
package assembly

import (
	"fmt"
	"slices"

	"repro/internal/etree"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Node is one front of the assembly tree. Pivot columns are the contiguous
// postordered range [Begin, End); Rows lists the contribution-block row
// indices (global column numbers in the postordered matrix, all >= End).
type Node struct {
	ID       int
	Parent   int   // -1 for roots
	Children []int // in processing order (Liu-sorted after SortChildren)
	Begin    int   // first pivot column
	End      int   // one past last pivot column
	Rows     []int // CB row structure, sorted ascending
}

// NPiv returns the number of pivot (fully summed) variables.
func (nd *Node) NPiv() int { return nd.End - nd.Begin }

// NCB returns the contribution-block order.
func (nd *Node) NCB() int { return len(nd.Rows) }

// NFront returns the front order.
func (nd *Node) NFront() int { return nd.NPiv() + len(nd.Rows) }

// Tree is an assembly tree (in general a forest) over the postordered
// matrix.
type Tree struct {
	Nodes []Node
	Roots []int
	N     int         // matrix dimension
	Kind  sparse.Type // symmetric or unsymmetric cost model
	Perm  []int       // full permutation new->old applied to the matrix
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.Nodes) }

// Postorder returns node indices in postorder (children before parents,
// following current child order).
func (t *Tree) Postorder() []int {
	out := make([]int, 0, len(t.Nodes))
	type frame struct {
		n, ci int
	}
	stack := make([]frame, 0, len(t.Nodes)) // deep enough for any tree: one allocation
	for _, r := range t.Roots {
		stack = append(stack, frame{r, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			nd := &t.Nodes[f.n]
			if f.ci < len(nd.Children) {
				c := nd.Children[f.ci]
				f.ci++
				stack = append(stack, frame{c, 0})
				continue
			}
			out = append(out, f.n)
			stack = stack[:len(stack)-1]
		}
	}
	return out
}

// Validate checks structural invariants of the tree.
func (t *Tree) Validate() error {
	seenCols := make([]bool, t.N)
	childCheck := make(map[[2]int]bool)
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.ID != i {
			return fmt.Errorf("assembly: node %d has ID %d", i, nd.ID)
		}
		if nd.Begin < 0 || nd.End > t.N || nd.Begin >= nd.End {
			return fmt.Errorf("assembly: node %d bad pivot range [%d,%d)", i, nd.Begin, nd.End)
		}
		for j := nd.Begin; j < nd.End; j++ {
			if seenCols[j] {
				return fmt.Errorf("assembly: column %d in two nodes", j)
			}
			seenCols[j] = true
		}
		prev := nd.End - 1
		for _, r := range nd.Rows {
			if r <= prev {
				return fmt.Errorf("assembly: node %d CB rows unsorted or overlap pivots", i)
			}
			if r >= t.N {
				return fmt.Errorf("assembly: node %d CB row %d out of range", i, r)
			}
			prev = r
		}
		if nd.Parent >= 0 {
			if nd.Parent >= len(t.Nodes) || nd.Parent == i {
				return fmt.Errorf("assembly: node %d bad parent %d", i, nd.Parent)
			}
			childCheck[[2]int{nd.Parent, i}] = true
		}
		for _, c := range nd.Children {
			if c < 0 || c >= len(t.Nodes) || t.Nodes[c].Parent != i {
				return fmt.Errorf("assembly: node %d bad child %d", i, c)
			}
		}
	}
	for j := 0; j < t.N; j++ {
		if !seenCols[j] {
			return fmt.Errorf("assembly: column %d in no node", j)
		}
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		found := 0
		for _, c := range nd.Children {
			if childCheck[[2]int{i, c}] {
				found++
			}
		}
		if nd.Parent >= 0 {
			ok := false
			for _, c := range t.Nodes[nd.Parent].Children {
				if c == i {
					ok = true
				}
			}
			if !ok {
				return fmt.Errorf("assembly: node %d missing from parent %d child list", i, nd.Parent)
			}
		}
	}
	// Every root reachable, every node reached exactly once via Postorder.
	post := t.Postorder()
	if len(post) != len(t.Nodes) {
		return fmt.Errorf("assembly: postorder visits %d of %d nodes", len(post), len(t.Nodes))
	}
	return nil
}

// Options configures the analysis pipeline.
type Options struct {
	Ordering order.Method
	Amalg    etree.AmalgamationOptions
	// Tracer, when non-nil, records the analyze.order, analyze.symbolic
	// and analyze.tree spans on its global track. nil = no overhead.
	Tracer *trace.Tracer
}

// DefaultOptions returns the standard pipeline configuration.
func DefaultOptions(m order.Method) Options {
	return Options{Ordering: m, Amalg: etree.DefaultAmalgamation()}
}

// Analyze runs the full symbolic analysis: ordering, postordering,
// supernode detection, amalgamation and exact front-structure computation.
// It returns the assembly tree and the permuted matrix (pattern+values).
//
// The pattern of A+Aᵀ (A's own pattern when symmetric) is built once and
// serves the ordering, the elimination tree, the column counts and the
// front structures; the postordered elimination tree is the first one
// relabelled, and A itself is permuted once.
func Analyze(a *sparse.CSC, opt Options) (*Tree, *sparse.CSC) {
	tr := opt.Tracer
	tr.GlobalBegin(trace.SpanAnalyzeOrder)
	s := &sparse.CSC{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Kind: sparse.Symmetric}
	if a.Kind != sparse.Symmetric {
		s = sparse.SymmetrizePattern(a)
	}
	perm := order.Compute(s, opt.Ordering)
	tr.GlobalEnd(trace.SpanAnalyzeOrder)

	tr.GlobalBegin(trace.SpanAnalyzeSymbolic)
	parent := etree.Compute(s.Permute(perm))
	post := etree.Postorder(parent)
	perm = etree.ApplyPostorder(perm, post)
	parent = etree.Relabel(parent, post)
	pa := a.Permute(perm)
	ps := pa
	if a.Kind != sparse.Symmetric {
		ps = s.Permute(perm)
	}
	counts := etree.ColCounts(ps, parent)
	super, memb := etree.Supernodes(parent, counts)
	super, memb = etree.Amalgamate(parent, counts, super, memb, opt.Amalg)
	tr.GlobalEnd(trace.SpanAnalyzeSymbolic)

	tr.GlobalBegin(trace.SpanAnalyzeTree)
	t := BuildTree(ps, parent, super, memb)
	t.Kind = a.Kind
	t.Perm = perm
	tr.GlobalEnd(trace.SpanAnalyzeTree)
	return t, pa
}

// BuildTree assembles the tree from a supernode partition, computing exact
// CB row structures bottom-up: the structure of a node is the union of the
// below-range pattern of its pivot columns and the structures of its
// children, minus its own pivots.
func BuildTree(pa *sparse.CSC, parent, super, memb []int) *Tree {
	s := pa
	if pa.Kind != sparse.Symmetric {
		s = sparse.SymmetrizePattern(pa)
	}
	n := s.N
	ns := len(super) - 1
	t := &Tree{Nodes: make([]Node, ns), N: n, Kind: pa.Kind}
	sparent := etree.SupernodeTree(parent, super, memb)
	for i := 0; i < ns; i++ {
		t.Nodes[i] = Node{ID: i, Parent: sparent[i], Begin: super[i], End: super[i+1]}
		if sparent[i] < 0 {
			t.Roots = append(t.Roots, i)
		}
	}
	for i := 0; i < ns; i++ {
		if p := sparent[i]; p >= 0 {
			t.Nodes[p].Children = append(t.Nodes[p].Children, i)
		}
	}
	// Bottom-up structure computation (supernode ids are already in
	// topological order because columns are postordered).
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < ns; i++ {
		nd := &t.Nodes[i]
		var rows []int
		add := func(r int) {
			if r >= nd.End && mark[r] != i {
				mark[r] = i
				rows = append(rows, r)
			}
		}
		for j := nd.Begin; j < nd.End; j++ {
			for _, r := range s.Col(j) {
				add(r)
			}
		}
		for _, c := range nd.Children {
			for _, r := range t.Nodes[c].Rows {
				add(r)
			}
		}
		slices.Sort(rows)
		nd.Rows = rows
	}
	return t
}
