package graph

// Bisection splits a graph into two halves plus a vertex separator. It is
// the kernel of the nested-dissection ordering (internal/order.ND).

// Bisection is the result of a graph bisection: PartA and PartB are the two
// halves, Sep is the vertex separator. Every vertex appears in exactly one
// of the three lists.
type Bisection struct {
	PartA, PartB, Sep []int
}

// Bisect computes a vertex bisection of the induced subgraph on verts; see
// Scratch.Bisect. It allocates a Scratch for the one call.
func Bisect(g *Graph, verts []int) Bisection { return NewScratch(g).Bisect(verts) }

// Bisect computes a vertex bisection of the induced subgraph on verts
// (distinct vertices) using a level-set split from a pseudo-peripheral
// vertex, followed by separator minimization (moving separator vertices
// with one-sided neighborhoods into their part). verts must be a
// connected set for best quality but disconnected sets are handled
// (smallest components are distributed). The cost is O(|verts| + their
// edges).
func (s *Scratch) Bisect(verts []int) Bisection {
	if len(verts) <= 1 {
		return Bisection{PartA: append([]int(nil), verts...)}
	}
	for _, v := range verts {
		s.in[v] = true
	}
	// Work component by component; accumulate the split so that the overall
	// halves stay balanced. A component leaves the vertex set once split,
	// which is how later starts recognize it.
	var out Bisection
	sizeA, sizeB := 0, 0
	for _, start := range verts {
		if !s.in[start] {
			continue
		}
		comp, ecc := s.bfs(start)
		if len(comp) <= 2 {
			// Tiny component: dump into the lighter side.
			if sizeA <= sizeB {
				out.PartA = append(out.PartA, comp...)
				sizeA += len(comp)
			} else {
				out.PartB = append(out.PartB, comp...)
				sizeB += len(comp)
			}
			for _, v := range comp {
				s.in[v] = false
			}
			continue
		}
		a, b, sep := s.bisectComponent(start, comp, ecc)
		if sizeA > sizeB {
			a, b = b, a
		}
		out.PartA = appendPart(out.PartA, a)
		out.PartB = appendPart(out.PartB, b)
		out.Sep = appendPart(out.Sep, sep)
		sizeA += len(a)
		sizeB += len(b)
	}
	return out
}

// appendPart appends part to dst, taking part itself when dst is empty
// (the common single-component case copies nothing).
func appendPart(dst, part []int) []int {
	if len(dst) == 0 {
		return part
	}
	return append(dst, part...)
}

// Bisection sides of the vertices of the component being split.
const (
	inA = iota + 1
	inB
	inSep
)

// bisectComponent splits the connected component of start, given the
// search from start (comp, ecc), and removes it from the vertex set.
func (s *Scratch) bisectComponent(start int, comp []int, ecc int) (partA, partB, sep []int) {
	g := s.g
	size := len(comp) // comp aliases the search queue the next search reuses
	_, order, ecc := s.pseudoPeripheral(start, comp, ecc)
	level := s.level
	// Choose the cut level so that halves are balanced: the first level
	// whose cumulative size reaches half the component.
	levelCount := make([]int, ecc+1)
	for _, v := range order {
		levelCount[level[v]]++
	}
	half := size / 2
	cum := 0
	cut := 0
	for l := 0; l <= ecc; l++ {
		cum += levelCount[l]
		if cum >= half {
			cut = l
			break
		}
	}
	if cut == ecc {
		cut = ecc - 1 // keep part B nonempty
	}
	// Initial split: levels <= cut in A, the rest in B; the separator is
	// the level cut+1 vertices with a neighbor at level cut. Every
	// in-set neighbor of a component vertex is in the component, so
	// level and side are valid for it.
	side := s.side
	for _, v := range order {
		if level[v] <= cut {
			side[v] = inA
		} else {
			side[v] = inB
		}
	}
	for _, v := range order {
		if level[v] != cut+1 {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if s.in[w] && level[w] == cut {
				side[v] = inSep
				break
			}
		}
	}
	// Smoothing: a separator vertex with no neighbors in one side can move
	// to the other side. Iterate a few times.
	for pass := 0; pass < 4; pass++ {
		moved := false
		for _, v := range order {
			if side[v] != inSep {
				continue
			}
			hasA, hasB := false, false
			for _, w := range g.Neighbors(v) {
				if !s.in[w] {
					continue
				}
				switch side[w] {
				case inA:
					hasA = true
				case inB:
					hasB = true
				}
			}
			if hasA && !hasB {
				side[v] = inA
				moved = true
			} else if hasB && !hasA {
				side[v] = inB
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	// Validity repair: an A vertex adjacent to a B vertex is pulled into the
	// separator (can happen after smoothing).
	for _, v := range order {
		if side[v] != inA {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if s.in[w] && side[w] == inB {
				side[v] = inSep
				break
			}
		}
	}
	// The three parts are carved from one allocation, in BFS order.
	var count [inSep + 1]int
	for _, v := range order {
		count[side[v]]++
	}
	buf := make([]int, len(order))
	na, nb := count[inA], count[inB]
	partA, partB, sep = buf[:0:na], buf[na:na:na+nb], buf[na+nb:na+nb]
	for _, v := range order {
		switch side[v] {
		case inA:
			partA = append(partA, v)
		case inB:
			partB = append(partB, v)
		default:
			sep = append(sep, v)
		}
		side[v] = 0
		s.in[v] = false
	}
	return partA, partB, sep
}

// CheckBisection verifies that no edge joins PartA and PartB directly; used
// in tests.
func CheckBisection(g *Graph, b Bisection) bool {
	side := make(map[int]int)
	for _, v := range b.PartA {
		side[v] = 1
	}
	for _, v := range b.PartB {
		side[v] = 2
	}
	for _, v := range b.PartA {
		for _, w := range g.Neighbors(v) {
			if side[w] == 2 {
				return false
			}
		}
	}
	return true
}
