package order

import (
	"math"
	"math/bits"
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
//
// Degrees are exact: a variable's score is computed from its weighted
// external degree, the total weight of the distinct supervariables it
// reaches through its variables and elements. There is no
// Amestoy–Davis–Duff degree bound and no aggressive absorption (ROADMAP
// item 4(b) is the approximate version). After eliminating p, only the
// members of L_p change degree. L_p's surviving supervariables are
// stamped once, so each member's degree is their total weight W minus its
// own, plus the weight it reaches outside L_p; L_p itself is never
// rescanned per member. Each older element's weight outside L_p is known
// per pivot, so the degree alone skips elements wholly inside L_p and
// needs no scan at all when one element is a member's only way out.

// ScoreFunc is a variable-selection score. Fn computes the score of a
// variable from its external degree d (sum of supervariable weights of its
// quotient neighborhood), its own weight nv and, when ReadsBoundaries is
// set, the weighted sizes of its adjacent elements' boundaries (itself
// excluded). Lower scores are eliminated first. elemBoundaries is scratch,
// valid only during the call; the engine computes it only for a score that
// reads it.
type ScoreFunc struct {
	Fn              func(d, nv int, elemBoundaries []int) int64
	ReadsBoundaries bool
}

// ScoreAMD is the minimum-degree score: the exact external degree. The
// ordering is named AMD after the paper's, which MUMPS computes with the
// approximate degree of Amestoy, Davis and Duff; ROADMAP item 4(b) is
// that version.
var ScoreAMD = ScoreFunc{Fn: scoreAMD}

// ScoreAMF is the approximate-minimum-fill score (Rothberg/Eisenstat
// style): d(d-1)/2 minus the clique area already covered by adjacent
// elements, clamped at zero — eliminating inside an existing clique is
// free. The approximate fill is combined lexicographically with the
// external degree: huge swaths of variables reach fill 0 mid-elimination
// (their neighborhood is covered by existing cliques), and breaking
// those ties by degree instead of by vertex id is what keeps AMF's fill
// near AMD's rather than degenerating toward the natural order.
var ScoreAMF = ScoreFunc{Fn: scoreAMF, ReadsBoundaries: true}

func scoreAMD(d, nv int, elemBoundaries []int) int64 {
	return int64(d)
}

func scoreAMF(d, nv int, elemBoundaries []int) int64 {
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

// mdKey is a heap entry: a variable with its current score.
type mdKey struct {
	score int64
	v     int
}

func (a mdKey) less(b mdKey) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.v < b.v // deterministic tie-breaking
}

// mdHeap is an indexed 4-ary min-heap of variables keyed by (score, v):
// every live variable sits in it exactly once, and rescoring moves the
// variable in place (decrease- or increase-key), so the heap never holds
// more than n entries. The keys sit in the heap array itself, so
// comparisons read no per-variable state, and a position's four children
// are 64 contiguous bytes in a tree half as deep as a binary one. The
// minimum over distinct (score, v) keys is unique, so the pop order is
// fully determined by the scores.
type mdHeap struct {
	pos   []int   // heap position per variable, -1 when absent
	items []mdKey // heap array
}

func newMDHeap(n int) mdHeap {
	h := mdHeap{pos: make([]int, n), items: make([]mdKey, 0, n)}
	for v := range h.pos {
		h.pos[v] = -1
	}
	return h
}

// place stores k at heap position i.
func (h *mdHeap) place(i int, k mdKey) {
	h.items[i] = k
	h.pos[k.v] = i
}

// up sifts k from position i toward the root.
func (h *mdHeap) up(i int, k mdKey) {
	for i > 0 {
		p := (i - 1) / 4
		if !k.less(h.items[p]) {
			break
		}
		h.place(i, h.items[p])
		i = p
	}
	h.place(i, k)
}

// down sifts k from position i toward the leaves.
func (h *mdHeap) down(i int, k mdKey) {
	n := len(h.items)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		for x, end := c+1, min(c+4, n); x < end; x++ {
			if h.items[x].less(h.items[c]) {
				c = x
			}
		}
		if !h.items[c].less(k) {
			break
		}
		h.place(i, h.items[c])
		i = c
	}
	h.place(i, k)
}

// set inserts v with the given score, or moves it to its new score.
func (h *mdHeap) set(v int, score int64) {
	k := mdKey{score, v}
	i := h.pos[v]
	if i < 0 {
		h.items = append(h.items, k)
		h.up(len(h.items)-1, k)
		return
	}
	if score < h.items[i].score {
		h.up(i, k)
	} else {
		h.down(i, k)
	}
}

// remove deletes v from the heap if present.
func (h *mdHeap) remove(v int) {
	i := h.pos[v]
	if i < 0 {
		return
	}
	h.pos[v] = -1
	last := len(h.items) - 1
	k := h.items[last]
	h.items = h.items[:last]
	if i == last {
		return
	}
	if k.less(h.items[i]) {
		h.up(i, k)
	} else {
		h.down(i, k)
	}
}

// pop removes and returns the minimum variable, or -1 when empty.
func (h *mdHeap) pop() int {
	if len(h.items) == 0 {
		return -1
	}
	v := h.items[0].v
	h.remove(v)
	return v
}

type mdState struct {
	adjVar  [][]int // variable -> adjacent variables (may contain stale ids)
	adjElem [][]int // variable -> adjacent elements
	elems   [][]int // element id -> boundary variables (stale-tolerant)
	vars    []mdVar // per-variable state, packed for locality
	elemOK  []bool  // element not yet absorbed
	elemOut []mdOut // element id -> weight outside the newest element
	// Supervariable members as linked lists, representative first:
	// next[v] follows v (-1 ends the list), tail[r] is r's last member.
	next, tail []int
	curMark    int32
	score      ScoreFunc
	h          mdHeap

	// Scratch reused across pivots.
	lp         []int    // L_p under construction
	lpCount    []int    // entries of L_p per representative, for boundaries
	elemBounds []int    // boundary sizes handed to the score
	buckets    []uint64 // mergeIndistinguishable's sort keys
	live       [4][]int // sameAdjacency's live element/variable lists
}

// mdVar is the state of one variable. The degree scans touch all four
// fields of every boundary variable they visit, so they share a cache line.
type mdVar struct {
	parent int32 // absorption forest: absorbed var -> representative, -1 for reps
	nv     int32 // supervariable weight
	mark   int32 // visit stamp, compared against curMark
	alive  bool  // not yet eliminated or absorbed
}

// mdOut is an element's total weight and, under the stamp mark, the part
// of it outside the newest element. The total never changes while the
// element lives: its members leave only by elimination, which absorbs
// it, and merging two members keeps their weight.
type mdOut struct {
	weight, outside, mark int32
}

// MinimumDegree runs the quotient-graph minimum-degree algorithm on g with
// the given scoring function and returns the elimination order
// (new -> old). Supervariables expand to consecutive positions.
func MinimumDegree(g *graph.Graph, score ScoreFunc) []int {
	return newMDState(g, score).run()
}

func newMDState(g *graph.Graph, score ScoreFunc) *mdState {
	n := g.N
	s := &mdState{
		adjVar:  make([][]int, n),
		adjElem: make([][]int, n),
		vars:    make([]mdVar, n),
		next:    make([]int, n),
		tail:    make([]int, n),
		score:   score,
		h:       newMDHeap(n),
		elemOut: make([]mdOut, 0, n), // one element per pivot at most
	}
	if score.ReadsBoundaries {
		s.lpCount = make([]int, n)
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
	}
	return s
}

func (s *mdState) run() []int {
	n := len(s.vars)
	for v := 0; v < n; v++ {
		// No elements yet: v's degree is its number of distinct
		// neighbors, v itself excluded by its own stamp.
		m := s.nextMark(1)
		s.vars[v].mark = m
		d := s.outerDegree(v, nil, m)
		s.h.set(v, s.score.Fn(d, 1, s.elemBounds))
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
		// absorbed elements, attach e. The stamp lpm marks L_p until every
		// member is rescored, so it must survive one stamp per member.
		lpm := s.nextMark(len(lp))
		weight := 0 // W: total weight of L_p, kept by merging
		for _, i := range lp {
			s.vars[i].mark = lpm
			weight += int(s.vars[i].nv)
		}
		s.elemOut = append(s.elemOut, mdOut{weight: int32(weight)})
		for _, i := range lp {
			av := s.adjVar[i][:0]
			for _, w := range s.adjVar[i] {
				w = s.find(w)
				if w == i || !s.vars[w].alive || s.vars[w].mark == lpm {
					continue // covered by element e or gone
				}
				av = append(av, w)
			}
			s.adjVar[i] = dedupInts(av)
			// An older element's weight outside L_p is its weight less
			// that of its members in L_p, which merging below keeps.
			nv := s.vars[i].nv
			ae := s.adjElem[i][:0]
			for _, e := range s.adjElem[i] {
				if !s.elemOK[e] {
					continue
				}
				ae = append(ae, e)
				o := &s.elemOut[e]
				if o.mark != lpm {
					o.mark, o.outside = lpm, o.weight
				}
				o.outside -= nv
			}
			s.adjElem[i] = append(ae, eid)
		}

		// Supervariable detection among L_p: hash quotient adjacency.
		s.mergeIndistinguishable(lp)

		// L_p's boundary seen from member i is B − cnt(i)·nv(i): B is
		// the weight of L_p's entries, each counted at its
		// representative's weight, and cnt(i) is i plus the entries
		// merged into it above.
		bound := 0
		if s.score.ReadsBoundaries {
			for _, w := range lp {
				s.lpCount[w] = 0
			}
			for _, w := range lp {
				r := s.find(w)
				s.lpCount[r]++
				bound += int(s.vars[r].nv)
			}
		}

		// Rescore surviving members of L_p; e is the last of their
		// elements and is accounted for by W and B.
		for _, i := range lp {
			vi := s.vars[i]
			if !vi.alive {
				continue
			}
			ae := s.adjElem[i]
			nv := int(vi.nv)
			d := weight - nv + s.outerDegree(i, ae[:len(ae)-1], lpm)
			if s.score.ReadsBoundaries {
				s.elemBounds = append(s.elemBounds, bound-s.lpCount[i]*nv)
			}
			s.h.set(i, s.score.Fn(d, nv, s.elemBounds))
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

// nextMark returns a fresh visit stamp and guarantees that the next
// reserve stamps follow it without a reset: every stamp is cleared first
// when the counter would otherwise overflow within them, so a stamp taken
// here stays distinct from all later ones until they are used up.
func (s *mdState) nextMark(reserve int) int32 {
	if int64(s.curMark)+int64(reserve) >= math.MaxInt32 {
		for v := range s.vars {
			s.vars[v].mark = 0
		}
		for e := range s.elemOut {
			s.elemOut[e].mark = 0
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
	m := s.nextMark(0)
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

// outerDegree returns the weight i reaches outside the variables stamped
// lpm (i itself carries that stamp) through its variables and the given
// elements. When the score reads boundaries, it also leaves each element's
// boundary size, i excluded, in s.elemBounds; entries of one
// supervariable listed more than once in an element count once each, as
// they always have. i's variable list holds live representatives outside
// L_p only: cleaning resolved it and merging touches L_p alone.
//
// A live element lists no eliminated variable (eliminating one absorbs
// every element listing it), so an entry is a live representative or a
// variable absorbed since it was listed, which is replaced by its
// representative as it is scanned.
func (s *mdState) outerDegree(i int, elems []int, lpm int32) (d int) {
	vars := s.vars
	m := s.nextMark(0)
	s.elemBounds = s.elemBounds[:0]
	for _, w := range s.adjVar[i] {
		if vw := &vars[w]; vw.mark != lpm && vw.mark != m {
			vw.mark = m
			d += int(vw.nv)
		}
	}
	if !s.score.ReadsBoundaries {
		if len(s.adjVar[i]) == 0 {
			if o, ok := s.soleOutside(elems); ok {
				return o
			}
		}
		for _, e := range elems {
			if s.elemOut[e].outside == 0 {
				continue // wholly inside L_p
			}
			list := s.elems[e]
			for k, w := range list {
				vw := &vars[w]
				if vw.parent >= 0 {
					w = s.find(w)
					list[k], vw = w, &vars[w]
				}
				if vw.mark != lpm && vw.mark != m {
					vw.mark = m
					d += int(vw.nv)
				}
			}
		}
		return d
	}
	for _, e := range elems {
		list := s.elems[e]
		b := 0
		for k, w := range list {
			vw := &vars[w]
			if vw.parent >= 0 {
				w = s.find(w)
				list[k], vw = w, &vars[w]
			}
			if w != i {
				b += int(vw.nv)
			}
			if vw.mark != lpm && vw.mark != m {
				vw.mark = m
				d += int(vw.nv)
			}
		}
		s.elemBounds = append(s.elemBounds, b)
	}
	return d
}

// soleOutside reports the outside weight of the one element of elems
// that reaches outside L_p, if exactly one does: for a variable with no
// variable neighbors, that weight is its whole outer degree.
func (s *mdState) soleOutside(elems []int) (int, bool) {
	o := 0
	for _, e := range elems {
		if w := int(s.elemOut[e].outside); w > 0 {
			if o > 0 {
				return 0, false
			}
			o = w
		}
	}
	return o, o > 0
}

// mergeIndistinguishable merges variables of lp with identical quotient
// adjacency into supervariables. Candidates are grouped by a hash of
// their adjacency, packed with their position in lp into one sort key;
// lp is sorted, so within a group the lower variable absorbs the higher.
// Merging inside one group never changes the adjacency of another group's
// variables (lp members carry no variable edges to each other after
// cleaning), so the groups are independent. Indistinguishable variables
// always share a group, so a coarser hash only adds comparisons: each
// class of indistinguishable variables still merges into its lowest
// member, in ascending order.
func (s *mdState) mergeIndistinguishable(lp []int) {
	posBits := uint64(1)<<bits.Len(uint(len(lp))) - 1
	keys := s.buckets[:0]
	for x, i := range lp {
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
		keys = append(keys, h&^posBits|uint64(x))
	}
	s.buckets = keys
	slices.Sort(keys)
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi]&^posBits == keys[lo]&^posBits {
			hi++
		}
		group := keys[lo:hi]
		lo = hi
		for x := 0; x < len(group); x++ {
			i := lp[group[x]&posBits]
			if !s.vars[i].alive {
				continue
			}
			for y := x + 1; y < len(group); y++ {
				j := lp[group[y]&posBits]
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
