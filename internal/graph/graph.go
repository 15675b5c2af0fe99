// Package graph provides undirected adjacency graphs and the traversal and
// partitioning primitives used by the fill-reducing orderings: BFS level
// structures, pseudo-peripheral vertex search, connected components and a
// level-set based bisection with boundary smoothing (the kernel of the
// nested-dissection ordering that stands in for METIS).
package graph

import (
	"repro/internal/sparse"
)

// Graph is an undirected graph in adjacency-list (CSR) form without
// self-loops. Neighbor lists are sorted.
type Graph struct {
	N   int
	Ptr []int
	Adj []int
}

// FromMatrix builds the adjacency graph of the symmetrized pattern of a,
// excluding the diagonal.
func FromMatrix(a *sparse.CSC) *Graph {
	s := a
	if a.Kind != sparse.Symmetric {
		s = sparse.SymmetrizePattern(a)
	}
	// Count degrees over both triangles of the symmetric pattern.
	n := s.N
	deg := make([]int, n)
	for j := 0; j < n; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			i := s.RowIdx[p]
			if i != j {
				deg[i]++
				deg[j]++
			}
		}
	}
	g := &Graph{N: n, Ptr: make([]int, n+1)}
	for v := 0; v < n; v++ {
		g.Ptr[v+1] = g.Ptr[v] + deg[v]
	}
	g.Adj = make([]int, g.Ptr[n])
	next := append([]int(nil), g.Ptr[:n]...)
	for j := 0; j < n; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			i := s.RowIdx[p]
			if i != j {
				g.Adj[next[i]] = j
				next[i]++
				g.Adj[next[j]] = i
				next[j]++
			}
		}
	}
	// Neighbor lists come out sorted because columns are processed in order
	// and row indices within a column are ascending... not guaranteed for
	// the i-side inserts; sort each list to be safe.
	for v := 0; v < n; v++ {
		insertionSort(g.Adj[g.Ptr[v]:g.Ptr[v+1]])
	}
	return g
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.Ptr[v+1] - g.Ptr[v] }

// Neighbors returns the adjacency list of v (aliased, do not modify).
func (g *Graph) Neighbors(v int) []int { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// Subgraph extracts the induced subgraph on verts. It returns the subgraph
// and the mapping local→global (which is just verts). Vertices in verts
// must be distinct.
func (g *Graph) Subgraph(verts []int) (*Graph, []int) {
	return NewScratch(g).Subgraph(verts), verts
}

// BFSLevels performs a breadth-first search from root restricted to
// vertices where mask[v] == maskVal (pass nil mask for the whole graph).
// It returns the level of each reached vertex (-1 if unreached), the list
// of reached vertices in BFS order, and the eccentricity (last level).
func (g *Graph) BFSLevels(root int, mask []int, maskVal int) (level []int, order []int, ecc int) {
	s := newMaskedScratch(g, mask, maskVal)
	order, ecc = s.bfs(root)
	return s.level, order, ecc
}

// PseudoPeripheral returns an approximate peripheral vertex of the
// component containing root (restricted by mask as in BFSLevels), using the
// Gibbs-Poole-Stockmeyer style iteration: repeatedly BFS and move to a
// minimum-degree vertex of the last level until the eccentricity stops
// growing.
func (g *Graph) PseudoPeripheral(root int, mask []int, maskVal int) int {
	s := newMaskedScratch(g, mask, maskVal)
	order, ecc := s.bfs(root)
	v, _, _ := s.pseudoPeripheral(root, order, ecc)
	return v
}

// Components returns the connected components of the graph as vertex lists.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N)
	var comps [][]int
	for s := 0; s < g.N; s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for qi := 0; qi < len(comp); qi++ {
			for _, w := range g.Neighbors(comp[qi]) {
				if !seen[w] {
					seen[w] = true
					comp = append(comp, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
