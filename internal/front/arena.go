package front

import (
	"math/bits"

	"repro/internal/dense"
)

// Arena recycles the numeric scratch of a factorization — front matrices
// and contribution blocks — by power-of-two size class, so the steady
// state of the factorize loop allocates nothing: every front the executor
// assembles and every CB it stacks reuses a slab some earlier front of a
// similar size released. The paper's working set is stack-shaped (fronts
// and CBs die in roughly the reverse order they are born), which is
// exactly the access pattern a size-class free list serves with near-100%
// hit rates.
//
// An Arena is single-threaded: each worker owns one. Ownership of a
// matrix may still cross workers — a CB is produced by the worker that
// factors the child and released by the worker that assembles the parent
// — as long as the handoff itself is synchronized (the executor's
// scheduling mutex) and the releasing worker frees into its *own* arena.
//
// Matrices are zeroed on Get, not on Free, so a recycled slab can never
// leak a previous front's values into the next assembly (Scatter and
// extend-add accumulate into zeros). Factor blocks are never
// arena-managed: ExtractFactor copies each into memory the front.Store
// owns — the node's range of the in-core slab, or the chunks of a record
// an out-of-core store may still be spilling long after the producing
// worker moved on — so recycling a front never touches a block, and no
// block is an allocation of its own.
//
// A nil *Arena is valid and falls back to plain allocation, so call sites
// need no guards.
type Arena struct {
	mats [maxSizeClass][]*dense.Matrix

	gets, hits int64
}

// maxSizeClass covers every slab size addressable by an int.
const maxSizeClass = 64

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// sizeClass buckets a slab size: all sizes in (2^(cl-1), 2^cl] share
// class cl. Slabs are allocated at their exact size (never rounded up,
// so the arena adds no physical memory over the metered entry counts);
// a class therefore holds mixed capacities and Matrix fit-checks before
// reusing. The steady state repeats the same front sizes, so the check
// almost always passes on the list tail.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// Matrix returns a zeroed r x c matrix, recycling a freed slab of at
// least that size from the size class when one is available.
func (a *Arena) Matrix(r, c int) *dense.Matrix {
	if a == nil {
		return dense.New(r, c)
	}
	need := r * c
	if need == 0 {
		return &dense.Matrix{R: r, C: c}
	}
	a.gets++
	s := a.mats[sizeClass(need)]
	for k := len(s) - 1; k >= 0; k-- {
		m := s[k]
		if cap(m.A) < need {
			continue
		}
		s[k] = s[len(s)-1]
		s[len(s)-1] = nil
		a.mats[sizeClass(need)] = s[:len(s)-1]
		a.hits++
		m.R, m.C = r, c
		m.A = m.A[:need]
		clear(m.A)
		return m
	}
	return dense.New(r, c)
}

// Free returns m's backing slab (and header) to the arena for reuse. The
// caller must not touch m afterwards. The slab is filed under the class
// of its capacity, where same-size requests look first.
func (a *Arena) Free(m *dense.Matrix) {
	if a == nil || m == nil || cap(m.A) == 0 {
		return
	}
	cl := sizeClass(cap(m.A))
	m.A = m.A[:cap(m.A)]
	m.R, m.C = 0, 0
	a.mats[cl] = append(a.mats[cl], m)
}

// Stats reports the arena's request and recycle-hit counts.
func (a *Arena) Stats() (gets, hits int64) {
	if a == nil {
		return 0, 0
	}
	return a.gets, a.hits
}
