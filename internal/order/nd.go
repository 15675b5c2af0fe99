package order

import (
	"repro/internal/graph"
)

// NDOptions configures nested dissection.
type NDOptions struct {
	// LeafSize is the subgraph size below which recursion stops and the
	// leaf is ordered with the leaf ordering.
	LeafSize int
	// LeafScore orders leaves (AMD by default).
	LeafScore ScoreFunc
	// MaxDepth bounds the recursion (safety against pathological splits).
	MaxDepth int
}

// DefaultNDOptions returns the METIS-like defaults: small leaves ordered by
// minimum degree.
func DefaultNDOptions() NDOptions {
	return NDOptions{LeafSize: 64, LeafScore: ScoreAMD, MaxDepth: 40}
}

// NestedDissection computes a nested-dissection ordering of g: the graph is
// recursively bisected, separator vertices are numbered last. This is the
// METIS stand-in: it produces the wide, balanced assembly trees with large
// top separator fronts characteristic of ND orderings.
func NestedDissection(g *graph.Graph, opt NDOptions) []int {
	if opt.LeafSize < 2 {
		opt.LeafSize = 2
	}
	if opt.LeafScore == nil {
		opt.LeafScore = ScoreAMD
	}
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = 40
	}
	verts := make([]int, g.N)
	for i := range verts {
		verts[i] = i
	}
	nd := &ndState{sc: graph.NewScratch(g), opt: opt, perm: make([]int, 0, g.N)}
	nd.recurse(verts, opt.MaxDepth)
	return nd.perm
}

// ndState is one dissection run: every bisection and leaf subgraph works
// on the one scratch, so a subproblem costs O(its size), not O(N).
type ndState struct {
	sc   *graph.Scratch
	opt  NDOptions
	perm []int
}

func (nd *ndState) recurse(verts []int, depth int) {
	if len(verts) == 0 {
		return
	}
	if len(verts) <= nd.opt.LeafSize || depth == 0 {
		nd.orderLeaf(verts)
		return
	}
	b := nd.sc.Bisect(verts)
	if len(b.PartA) == 0 || len(b.PartB) == 0 {
		// Bisection failed to split (e.g. clique): fall back to leaf order.
		nd.orderLeaf(verts)
		return
	}
	nd.recurse(b.PartA, depth-1)
	nd.recurse(b.PartB, depth-1)
	// Separator vertices are eliminated last; order them among themselves
	// by minimum degree on their induced subgraph.
	if len(b.Sep) > 0 {
		nd.orderLeaf(b.Sep)
	}
}

// orderLeaf orders the induced subgraph on verts with minimum degree and
// appends it, in global indices, to the permutation.
func (nd *ndState) orderLeaf(verts []int) {
	if len(verts) <= 2 {
		nd.perm = append(nd.perm, verts...)
		return
	}
	for _, v := range MinimumDegree(nd.sc.Subgraph(verts), nd.opt.LeafScore) {
		nd.perm = append(nd.perm, verts[v])
	}
}

// HybridPORD is the PORD stand-in: a tightly-coupled bottom-up/top-down
// ordering. The top of the graph is split by dissection (fewer levels and a
// larger leaf threshold than ND), and leaves are ordered with a fill-based
// bottom-up method (AMF score), mirroring PORD's minimum-fill flavored
// bottom-up phase. The resulting assembly trees sit between the ND and
// MD extremes, as PORD's do in the paper.
func HybridPORD(g *graph.Graph) []int {
	leaf := g.N / 8
	if leaf < 128 {
		leaf = 128
	}
	return NestedDissection(g, NDOptions{
		LeafSize:  leaf,
		LeafScore: ScoreAMF,
		MaxDepth:  6,
	})
}

// ReverseCuthillMcKee computes the RCM profile-reducing ordering.
func ReverseCuthillMcKee(g *graph.Graph) []int {
	n := g.N
	visited := make([]bool, n)
	perm := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := g.PseudoPeripheral(start, nil, 0)
		if visited[root] {
			root = start
		}
		// BFS ordering neighbors by increasing degree.
		queue := []int{root}
		visited[root] = true
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			perm = append(perm, v)
			nb := append([]int(nil), g.Neighbors(v)...)
			// Sort by degree then index for determinism.
			for i := 1; i < len(nb); i++ {
				x := nb[i]
				j := i - 1
				for j >= 0 && (g.Degree(nb[j]) > g.Degree(x) ||
					(g.Degree(nb[j]) == g.Degree(x) && nb[j] > x)) {
					nb[j+1] = nb[j]
					j--
				}
				nb[j+1] = x
			}
			for _, w := range nb {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	// Reverse.
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
