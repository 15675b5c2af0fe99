package order

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/graph"
)

// Quotient-graph minimum-degree engine shared by AMD and AMF.
//
// The engine maintains the standard quotient graph: uneliminated variables
// carry a list of adjacent variables and a list of adjacent *elements*
// (cliques created by past eliminations). Eliminating pivot p forms the
// element L_p = (A_p ∪ ⋃_{e∈E_p} L_e) \ {eliminated}; elements reachable
// from p are absorbed. Indistinguishable variables (identical quotient
// adjacency) are merged into supervariables, which is what makes minimum
// degree practical on matrices with large cliques.

// ScoreFunc computes the selection score of a variable from its external
// degree d (sum of supervariable weights of its quotient neighborhood) and
// the sizes of its adjacent elements' boundaries. Lower scores are
// eliminated first. elemBoundaries is scratch, valid only during the call.
type ScoreFunc func(d int, nv int, elemBoundaries []int) int64

// ScoreAMD is the approximate-minimum-degree score: the external degree.
func ScoreAMD(d, nv int, elemBoundaries []int) int64 {
	return int64(d)
}

// ScoreAMF is the approximate-minimum-fill score (Rothberg/Eisenstat
// style): d(d-1)/2 minus the clique area already covered by adjacent
// elements, clamped at zero — eliminating inside an existing clique is
// free. The approximate fill is combined lexicographically with the
// external degree: huge swaths of variables reach fill 0 mid-elimination
// (their neighborhood is covered by existing cliques), and breaking
// those ties by degree instead of by vertex id is what keeps AMF's fill
// near AMD's rather than degenerating toward the natural order.
func ScoreAMF(d, nv int, elemBoundaries []int) int64 {
	fill := int64(d) * int64(d-1) / 2
	for _, b := range elemBoundaries {
		eb := int64(b)
		fill -= eb * (eb - 1) / 2
	}
	if fill < 0 {
		fill = 0
	}
	return fill*(1<<20) + int64(d)
}

// mdHeap is an indexed binary min-heap of variables keyed by (score, v):
// every live variable sits in it exactly once, and rescoring moves the
// variable in place (decrease- or increase-key), so the heap never holds
// more than n entries. The minimum over distinct (score, v) keys is
// unique, so the pop order is fully determined by the scores.
type mdHeap struct {
	score []int64 // current score per variable
	pos   []int   // heap position per variable, -1 when absent
	items []int   // heap array of variables
}

func (h *mdHeap) less(a, b int) bool {
	if h.score[a] != h.score[b] {
		return h.score[a] < h.score[b]
	}
	return a < b // deterministic tie-breaking
}

func (h *mdHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]] = i
	h.pos[h.items[j]] = j
}

func (h *mdHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *mdHeap) down(i int) {
	n := len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(h.items[r], h.items[c]) {
			c = r
		}
		if !h.less(h.items[c], h.items[i]) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// set inserts v with the given score, or moves it to its new score.
func (h *mdHeap) set(v int, score int64) {
	i := h.pos[v]
	if i < 0 {
		h.score[v] = score
		h.pos[v] = len(h.items)
		h.items = append(h.items, v)
		h.up(len(h.items) - 1)
		return
	}
	old := h.score[v]
	h.score[v] = score
	if score < old {
		h.up(i)
	} else {
		h.down(i)
	}
}

// remove deletes v from the heap if present.
func (h *mdHeap) remove(v int) {
	i := h.pos[v]
	if i < 0 {
		return
	}
	last := len(h.items) - 1
	h.swap(i, last)
	h.items = h.items[:last]
	h.pos[v] = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

// pop removes and returns the minimum variable, or -1 when empty.
func (h *mdHeap) pop() int {
	if len(h.items) == 0 {
		return -1
	}
	v := h.items[0]
	h.remove(v)
	return v
}

type mdState struct {
	adjVar  [][]int // variable -> adjacent variables (may contain stale ids)
	adjElem [][]int // variable -> adjacent elements
	elems   [][]int // element id -> boundary variables (stale-tolerant)
	vars    []mdVar // per-variable state, packed for locality
	elemOK  []bool  // element not yet absorbed
	// Supervariable members as linked lists, representative first:
	// next[v] follows v (-1 ends the list), tail[r] is r's last member.
	next, tail []int
	curMark    int32
	score      ScoreFunc
	h          mdHeap

	// Scratch reused across pivots.
	lp         []int       // L_p under construction
	elemBounds []int       // externalDegree's element boundary sizes
	buckets    []hashedVar // mergeIndistinguishable's candidates
	live       [4][]int    // sameAdjacency's live element/variable lists
}

// mdVar is the state of one variable. The degree scans touch all four
// fields of every boundary variable they visit, so they share a cache line.
type mdVar struct {
	parent int32 // absorption forest: absorbed var -> representative, -1 for reps
	nv     int32 // supervariable weight
	mark   int32 // visit stamp, compared against curMark
	alive  bool  // not yet eliminated or absorbed
}

// hashedVar is a supervariable candidate with its quotient-adjacency hash.
type hashedVar struct {
	h uint64
	v int
}

// MinimumDegree runs the quotient-graph minimum-degree algorithm on g with
// the given scoring function and returns the elimination order
// (new -> old). Supervariables expand to consecutive positions.
func MinimumDegree(g *graph.Graph, score ScoreFunc) []int {
	n := g.N
	s := &mdState{
		adjVar:  make([][]int, n),
		adjElem: make([][]int, n),
		vars:    make([]mdVar, n),
		next:    make([]int, n),
		tail:    make([]int, n),
		score:   score,
		h: mdHeap{
			score: make([]int64, n),
			pos:   make([]int, n),
			items: make([]int, 0, n),
		},
	}
	// Variable lists start as capacity-capped windows of one copy of the
	// adjacency; cleaning only ever shrinks them in place.
	adj := append([]int(nil), g.Adj...)
	for v := 0; v < n; v++ {
		lo, hi := g.Ptr[v], g.Ptr[v+1]
		s.adjVar[v] = adj[lo:hi:hi]
		s.vars[v] = mdVar{parent: -1, nv: 1, alive: true}
		s.next[v] = -1
		s.tail[v] = v
		s.h.pos[v] = -1
	}
	for v := 0; v < n; v++ {
		s.rescore(v)
	}

	perm := make([]int, 0, n)
	for {
		p := s.h.pop()
		if p < 0 {
			break
		}
		// Eliminate supervariable p: emit its members.
		for v := p; v >= 0; v = s.next[v] {
			perm = append(perm, v)
		}
		s.vars[p].alive = false

		// Build L_p.
		lp := s.buildElement(p)
		if len(lp) == 0 {
			continue
		}
		eid := len(s.elems)
		s.elems = append(s.elems, lp)
		s.elemOK = append(s.elemOK, true)

		// Clean each i in L_p: drop edges covered by the new element, drop
		// absorbed elements, attach e.
		m := s.nextMark()
		for _, i := range lp {
			s.vars[i].mark = m
		}
		for _, i := range lp {
			av := s.adjVar[i][:0]
			for _, w := range s.adjVar[i] {
				w = s.find(w)
				if w == i || !s.vars[w].alive || s.vars[w].mark == m {
					continue // covered by element e or gone
				}
				av = append(av, w)
			}
			s.adjVar[i] = dedupInts(av)
			ae := s.adjElem[i][:0]
			for _, e := range s.adjElem[i] {
				if s.elemOK[e] {
					ae = append(ae, e)
				}
			}
			s.adjElem[i] = append(ae, eid)
		}

		// Supervariable detection among L_p: hash quotient adjacency.
		s.mergeIndistinguishable(lp)

		// Rescore surviving members of L_p.
		for _, i := range lp {
			if s.vars[i].alive {
				s.rescore(i)
			}
		}
	}
	return perm
}

// dedupInts sorts a and drops repeats in place.
func dedupInts(a []int) []int {
	if len(a) < 2 {
		return a
	}
	slices.Sort(a)
	return slices.Compact(a)
}

func (s *mdState) find(v int) int {
	for p := s.vars[v].parent; p >= 0; p = s.vars[v].parent {
		if pp := s.vars[p].parent; pp >= 0 {
			s.vars[v].parent = pp // path halving
		}
		v = int(s.vars[v].parent)
	}
	return v
}

// nextMark returns a fresh visit stamp, clearing every stamp when the
// counter would overflow.
func (s *mdState) nextMark() int32 {
	if s.curMark == math.MaxInt32 {
		for v := range s.vars {
			s.vars[v].mark = 0
		}
		s.curMark = 0
	}
	s.curMark++
	return s.curMark
}

// buildElement computes L_p = union of p's variable neighbors and the
// boundaries of p's elements, excluding eliminated variables and p itself,
// sorted ascending. Elements of p are absorbed.
func (s *mdState) buildElement(p int) []int {
	m := s.nextMark()
	s.vars[p].mark = m
	lp := s.lp[:0]
	add := func(w int) {
		w = s.find(w)
		if vw := &s.vars[w]; vw.alive && vw.mark != m {
			vw.mark = m
			lp = append(lp, w)
		}
	}
	for _, w := range s.adjVar[p] {
		add(w)
	}
	for _, e := range s.adjElem[p] {
		if !s.elemOK[e] {
			continue
		}
		for _, w := range s.elems[e] {
			add(w)
		}
		s.elemOK[e] = false // absorbed into the new element
	}
	s.lp = lp
	if len(lp) == 0 {
		return nil
	}
	slices.Sort(lp)
	return append([]int(nil), lp...)
}

// externalDegree computes the weighted external degree of i and collects
// the boundary sizes (excluding i) of its adjacent elements for AMF into
// the reused s.elemBounds.
func (s *mdState) externalDegree(i int) (d int, elemBounds []int) {
	m := s.nextMark()
	s.vars[i].mark = m
	for _, w := range s.adjVar[i] {
		if vw := &s.vars[s.find(w)]; vw.alive && vw.mark != m {
			vw.mark = m
			d += int(vw.nv)
		}
	}
	elemBounds = s.elemBounds[:0]
	for _, e := range s.adjElem[i] {
		if !s.elemOK[e] {
			continue
		}
		b := 0
		for _, w := range s.elems[e] {
			w = s.find(w)
			vw := &s.vars[w]
			if !vw.alive || w == i {
				continue
			}
			b += int(vw.nv)
			if vw.mark != m {
				vw.mark = m
				d += int(vw.nv)
			}
		}
		elemBounds = append(elemBounds, b)
	}
	s.elemBounds = elemBounds
	return d, elemBounds
}

// rescore computes v's score and places v in the heap under it.
func (s *mdState) rescore(v int) {
	d, eb := s.externalDegree(v)
	s.h.set(v, s.score(d, int(s.vars[v].nv), eb))
}

// mergeIndistinguishable merges variables of lp with identical quotient
// adjacency into supervariables. Candidates are grouped by a hash of
// their adjacency; lp is sorted, so within a group the lower variable
// absorbs the higher. Merging inside one group never changes the
// adjacency of another group's variables (lp members carry no variable
// edges to each other after cleaning), so the groups are independent.
func (s *mdState) mergeIndistinguishable(lp []int) {
	cand := s.buckets[:0]
	for _, i := range lp {
		if !s.vars[i].alive {
			continue
		}
		h := uint64(17)
		for _, w := range s.adjVar[i] {
			h = h*31 + uint64(s.find(w))*2654435761
		}
		for _, e := range s.adjElem[i] {
			if s.elemOK[e] {
				h = h*37 + uint64(e)*40503
			}
		}
		cand = append(cand, hashedVar{h, i})
	}
	s.buckets = cand
	slices.SortFunc(cand, func(a, b hashedVar) int {
		if a.h != b.h {
			return cmp.Compare(a.h, b.h)
		}
		return cmp.Compare(a.v, b.v)
	})
	for lo := 0; lo < len(cand); {
		hi := lo + 1
		for hi < len(cand) && cand[hi].h == cand[lo].h {
			hi++
		}
		group := cand[lo:hi]
		lo = hi
		for x := 0; x < len(group); x++ {
			i := group[x].v
			if !s.vars[i].alive {
				continue
			}
			for y := x + 1; y < len(group); y++ {
				j := group[y].v
				if !s.vars[j].alive || !s.sameAdjacency(i, j) {
					continue
				}
				// Absorb j into i.
				s.vars[j].alive = false
				s.h.remove(j)
				s.vars[j].parent = int32(i)
				s.vars[i].nv += s.vars[j].nv
				s.next[s.tail[i]] = j
				s.tail[i] = s.tail[j]
				s.adjVar[j] = nil
				s.adjElem[j] = nil
			}
		}
	}
}

func (s *mdState) sameAdjacency(i, j int) bool {
	// Compare live element lists.
	ei := s.liveElems(0, i)
	ej := s.liveElems(1, j)
	if !slices.Equal(ei, ej) {
		return false
	}
	// Compare variable lists modulo i/j themselves.
	return slices.Equal(s.liveVars(2, i, j), s.liveVars(3, j, i))
}

// liveElems returns i's live elements, sorted, in scratch list k.
func (s *mdState) liveElems(k, i int) []int {
	out := s.live[k][:0]
	for _, e := range s.adjElem[i] {
		if s.elemOK[e] {
			out = append(out, e)
		}
	}
	slices.Sort(out)
	s.live[k] = out
	return out
}

// liveVars returns i's live variable neighbors other than excl, sorted
// and deduplicated, in scratch list k.
func (s *mdState) liveVars(k, i, excl int) []int {
	out := s.live[k][:0]
	for _, w := range s.adjVar[i] {
		w = s.find(w)
		if s.vars[w].alive && w != i && w != excl {
			out = append(out, w)
		}
	}
	out = dedupInts(out)
	s.live[k] = out
	return out
}
