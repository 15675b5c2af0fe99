package front

import (
	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// Part names one half of a front's factor block: the half one solve
// pass reads.
type Part int

const (
	// PartL is the nf x npiv lower trapezoid, row-major: what the
	// forward pass reads, and for symmetric matrices the backward pass
	// too.
	PartL Part = iota
	// PartU is the npiv x nf upper trapezoid, row-major (unsymmetric
	// matrices only): what the backward pass reads.
	PartU
)

func (p Part) String() string {
	if p == PartU {
		return "U"
	}
	return "L"
}

// BackwardPart is the part the backward pass reads: U for unsymmetric
// matrices, L (read as L^T) for symmetric ones.
func BackwardPart(kind sparse.Type) Part {
	if kind == sparse.Unsymmetric {
		return PartU
	}
	return PartL
}

// Layout is the one factor layout both stores share, shaped by the solve
// passes: a region holding every node's L block, then, for unsymmetric
// matrices, a region holding every node's U block. Within a region the
// blocks sit back to back in the tree's postorder, the forward solve's
// walk (the backward pass walks the U region from its end), so each pass
// streams one contiguous region and reads only the half it uses. A
// node's L and U blocks are PartWords words each, structural zeros
// included (see ExtractFactor). The in-core store is one slab of Words
// words; the file store spills the same ranges, each framed as a
// record, shifted by the framing of the Rank records before it. A block
// carries no row list: the front's rows are the tree's [Begin, End) and
// Rows.
type Layout struct {
	Tree *assembly.Tree
	Kind sparse.Type

	off    []int64 // node -> first word of its L block
	rank   []int   // node -> position in postorder
	region int64   // words in one region
}

// NewLayout lays out the factor blocks of tree for kind.
func NewLayout(tree *assembly.Tree, kind sparse.Type) *Layout {
	l := &Layout{Tree: tree, Kind: kind, off: make([]int64, tree.Len()), rank: make([]int, tree.Len())}
	for k, ni := range tree.Postorder() {
		nd := &tree.Nodes[ni]
		l.off[ni], l.rank[ni] = l.region, k
		l.region += PartWords(nd.NFront(), nd.NPiv())
	}
	return l
}

// PartWords is the size in words of one part (L or U) of the factor
// block of a front of order nf with npiv pivots.
func PartWords(nf, npiv int) int64 { return int64(nf) * int64(npiv) }

// Parts is the number of parts (and regions) a factorization of kind
// has: 2 for unsymmetric matrices, 1 for symmetric ones.
func Parts(kind sparse.Type) int {
	if kind == sparse.Unsymmetric {
		return 2
	}
	return 1
}

// Words is the total size of all blocks: the in-core slab's length.
func (l *Layout) Words() int64 { return l.region * int64(Parts(l.Kind)) }

// Range returns the word range [lo, hi) of node ni's part p; p is PartL
// for symmetric layouts.
func (l *Layout) Range(ni int, p Part) (lo, hi int64) {
	nd := &l.Tree.Nodes[ni]
	lo = l.off[ni] + int64(p)*l.region
	return lo, lo + PartWords(nd.NFront(), nd.NPiv())
}

// Rank is the position of node ni's part p among all blocks in layout
// order: the number of blocks before it.
func (l *Layout) Rank(ni int, p Part) int { return l.rank[ni] + int(p)*len(l.rank) }

// partView returns node nd's part p of a factor block as a matrix: L is
// nf x npiv, U npiv x nf. The view aliases blk.
func partView(nd *assembly.Node, p Part, blk []float64) dense.Matrix {
	nf, npiv := nd.NFront(), nd.NPiv()
	n := nf * npiv
	if p == PartU {
		return dense.Matrix{R: npiv, C: nf, A: blk[:n:n]}
	}
	return dense.Matrix{R: nf, C: npiv, A: blk[:n:n]}
}
