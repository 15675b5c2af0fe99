package front

import (
	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// Layout is the one factor layout both stores share. Node ni's block is
// BlockWords words: its L, the nf x npiv lower trapezoid row-major, then
// for unsymmetric matrices its U, the npiv x nf upper trapezoid
// row-major; structural zeros included (see ExtractFactor). Blocks sit
// back to back in the tree's postorder, the forward solve's walk: the
// in-core store is one slab of Words words, and the file store spills
// the same ranges, each framed as a record, shifted by the framing of
// the Rank records before it. A block carries no row list: the front's
// rows are the tree's [Begin, End) and Rows.
type Layout struct {
	Tree *assembly.Tree
	Kind sparse.Type

	off   []int64 // node -> first word of its block
	rank  []int   // node -> position in postorder
	words int64
}

// NewLayout lays out the factor blocks of tree for kind.
func NewLayout(tree *assembly.Tree, kind sparse.Type) *Layout {
	l := &Layout{Tree: tree, Kind: kind, off: make([]int64, tree.Len()), rank: make([]int, tree.Len())}
	for k, ni := range tree.Postorder() {
		nd := &tree.Nodes[ni]
		l.off[ni], l.rank[ni] = l.words, k
		l.words += BlockWords(nd.NFront(), nd.NPiv(), kind)
	}
	return l
}

// BlockWords is the size in words of the factor block of a front of
// order nf with npiv pivots: L, plus U when unsymmetric.
func BlockWords(nf, npiv int, kind sparse.Type) int64 {
	w := int64(nf) * int64(npiv)
	if kind == sparse.Unsymmetric {
		w *= 2
	}
	return w
}

// Words is the total size of all blocks: the in-core slab's length.
func (l *Layout) Words() int64 { return l.words }

// Range returns the word range [lo, hi) of node ni's block.
func (l *Layout) Range(ni int) (lo, hi int64) {
	nd := &l.Tree.Nodes[ni]
	lo = l.off[ni]
	return lo, lo + BlockWords(nd.NFront(), nd.NPiv(), l.Kind)
}

// Rank is node ni's position in the layout's postorder: the number of
// blocks before it.
func (l *Layout) Rank(ni int) int { return l.rank[ni] }

// blockViews returns the L and U matrices of a front's block (U is empty
// for symmetric matrices). The views alias blk.
func blockViews(nd *assembly.Node, kind sparse.Type, blk []float64) (L, U dense.Matrix) {
	nf, npiv := nd.NFront(), nd.NPiv()
	n := nf * npiv
	L = dense.Matrix{R: nf, C: npiv, A: blk[:n:n]}
	if kind == sparse.Unsymmetric {
		U = dense.Matrix{R: npiv, C: nf, A: blk[n : 2*n : 2*n]}
	}
	return L, U
}
