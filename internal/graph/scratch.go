package graph

import "slices"

// Scratch holds the per-vertex work arrays of breadth-first search,
// bisection and subgraph extraction on one graph: the vertex-set mask,
// BFS levels and queue, bisection sides and local indices, each of length
// N and allocated once. Every operation resets exactly the entries it
// touched (a search resets the previous search's levels), so a call on a
// k-vertex subset costs O(k + its edges), not O(N): the nested-dissection
// recursion owns one Scratch for its whole run. A Scratch is not safe for
// concurrent use.
type Scratch struct {
	g     *Graph
	in    []bool // vertex is in the current set; nil admits every vertex
	level []int  // BFS level, -1 outside the latest search
	queue []int  // visit order of the latest search
	side  []int8 // bisection side of the component being split
	local []int  // subgraph index, -1 outside the current subgraph
}

// NewScratch returns a scratch for g with an empty vertex set.
func NewScratch(g *Graph) *Scratch {
	s := newSearchScratch(g)
	s.in = make([]bool, g.N)
	s.side = make([]int8, g.N)
	s.local = make([]int, g.N)
	for v := range s.local {
		s.local[v] = -1
	}
	return s
}

// newMaskedScratch returns a search-only scratch whose vertex set is
// {v : mask[v] == maskVal} (every vertex for a nil mask).
func newMaskedScratch(g *Graph, mask []int, maskVal int) *Scratch {
	s := newSearchScratch(g)
	if mask != nil {
		s.in = make([]bool, g.N)
		for v, m := range mask {
			s.in[v] = m == maskVal
		}
	}
	return s
}

// newSearchScratch returns a scratch holding only the search arrays.
func newSearchScratch(g *Graph) *Scratch {
	s := &Scratch{g: g, level: make([]int, g.N), queue: make([]int, 0, g.N)}
	for v := range s.level {
		s.level[v] = -1
	}
	return s
}

// bfs runs a breadth-first search from root over the current vertex set
// (root itself is always visited), first resetting the levels the
// previous search set. It returns the visit order (aliasing s.queue) and
// the eccentricity; the levels stay in s.level until the next search.
func (s *Scratch) bfs(root int) (order []int, ecc int) {
	for _, v := range s.queue {
		s.level[v] = -1
	}
	g := s.g
	order = append(s.queue[:0], root)
	s.level[root] = 0
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for _, w := range g.Adj[g.Ptr[v]:g.Ptr[v+1]] {
			if s.level[w] >= 0 || (s.in != nil && !s.in[w]) {
				continue
			}
			s.level[w] = s.level[v] + 1
			order = append(order, w)
		}
	}
	s.queue = order
	return order, s.level[order[len(order)-1]]
}

// pseudoPeripheral runs the Gibbs-Poole-Stockmeyer iteration from root,
// given the search from root (its order and eccentricity): move to a
// minimum-degree vertex of the last level until the eccentricity stops
// growing, at most ten moves. It returns the vertex with its own search,
// which s keeps.
func (s *Scratch) pseudoPeripheral(root int, order []int, ecc int) (v int, vorder []int, vecc int) {
	v = root
	for iter := 0; iter < 10; iter++ {
		if iter > 0 {
			e := ecc
			if order, ecc = s.bfs(v); ecc <= e {
				return v, order, ecc
			}
		}
		// Move to a min-degree vertex among the deepest level.
		best, bestDeg := -1, 1<<62
		for i := len(order) - 1; i >= 0 && s.level[order[i]] == ecc; i-- {
			if d := s.g.Degree(order[i]); d < bestDeg {
				best, bestDeg = order[i], d
			}
		}
		v = best
	}
	order, ecc = s.bfs(v)
	return v, order, ecc
}

// Subgraph extracts the induced subgraph on verts (distinct vertices);
// vertex i of the result is verts[i].
func (s *Scratch) Subgraph(verts []int) *Graph {
	for i, v := range verts {
		s.local[v] = i
	}
	g := s.g
	edges := 0
	for _, v := range verts {
		for _, w := range g.Neighbors(v) {
			if s.local[w] >= 0 {
				edges++
			}
		}
	}
	sg := &Graph{N: len(verts), Ptr: make([]int, len(verts)+1), Adj: make([]int, 0, edges)}
	for i, v := range verts {
		for _, w := range g.Neighbors(v) {
			if lw := s.local[w]; lw >= 0 {
				sg.Adj = append(sg.Adj, lw)
			}
		}
		sg.Ptr[i+1] = len(sg.Adj)
		slices.Sort(sg.Adj[sg.Ptr[i]:])
	}
	for _, v := range verts {
		s.local[v] = -1
	}
	return sg
}
