package front

import (
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// TestArenaZeroesRecycledSlabs is the stale-value guarantee: a matrix
// drawn from the arena is all zeros even when its slab carried another
// front's values a moment ago.
func TestArenaZeroesRecycledSlabs(t *testing.T) {
	a := NewArena()
	m := a.Matrix(7, 7)
	for i := range m.A {
		m.A[i] = float64(i) + 1
	}
	a.Free(m)
	n := a.Matrix(6, 8) // same size class (33..64 entries), different shape
	if n.R != 6 || n.C != 8 || len(n.A) != 48 {
		t.Fatalf("recycled matrix shape %dx%d len %d", n.R, n.C, len(n.A))
	}
	for i, v := range n.A {
		if v != 0 {
			t.Fatalf("stale value %g leaked at %d", v, i)
		}
	}
	if gets, hits := a.Stats(); gets != 2 || hits != 1 {
		t.Fatalf("stats gets=%d hits=%d, want 2/1", gets, hits)
	}
}

// TestArenaSizeClasses checks the class arithmetic both ways: slabs are
// allocated at their exact size (no physical memory beyond the metered
// entries), recycle for same-size requests, and never serve a request
// they cannot hold — a class mixes capacities and Matrix fit-checks.
func TestArenaSizeClasses(t *testing.T) {
	a := NewArena()
	for _, n := range []int{1, 2, 3, 15, 16, 17, 100} {
		m := a.Matrix(n, n)
		if len(m.A) != n*n || cap(m.A) != n*n {
			t.Fatalf("len %d cap %d for %dx%d (want exact)", len(m.A), cap(m.A), n, n)
		}
		a.Free(m)
		again := a.Matrix(n, n) // same size must recycle
		if cap(again.A) != n*n {
			t.Fatalf("same-size request did not recycle: cap %d for %d", cap(again.A), n*n)
		}
	}
	// A slab cannot serve a larger request of the same class: freeing a
	// 3x3 (class 4) and asking for 4x4 (also class 4) must allocate.
	a2 := NewArena()
	a2.Free(a2.Matrix(3, 3))
	big := a2.Matrix(4, 4)
	if len(big.A) != 16 || cap(big.A) < 16 {
		t.Fatalf("undersized slab served: len %d cap %d", len(big.A), cap(big.A))
	}
	// A foreign matrix with an odd capacity recycles for anything it fits.
	odd := &dense.Matrix{R: 1, C: 5, A: make([]float64, 5)}
	for i := range odd.A {
		odd.A[i] = 9
	}
	a2.Free(odd)
	got := a2.Matrix(1, 5)
	if cap(got.A) != 5 {
		t.Fatalf("foreign slab not recycled: cap %d", cap(got.A))
	}
	for _, v := range got.A {
		if v != 0 {
			t.Fatal("foreign slab not zeroed")
		}
	}
}

// TestArenaNilSafe pins the no-guards contract for nil arenas.
func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	m := a.Matrix(3, 3)
	if m == nil || len(m.A) != 9 {
		t.Fatal("nil arena did not allocate")
	}
	a.Free(m)
	if g, h := a.Stats(); g != 0 || h != 0 {
		t.Fatal("nil arena stats not zero")
	}
}

// TestArenaSteadyStateHits factors a chain of equal-sized fronts the way
// an executor does (front + CB per step, CB freed one step later) and
// checks the steady state recycles everything: after warm-up every
// request is a hit.
func TestArenaSteadyStateHits(t *testing.T) {
	a := NewArena()
	var prevCB *dense.Matrix
	for step := 0; step < 50; step++ {
		fr := a.Matrix(40, 40)
		if prevCB != nil {
			a.Free(prevCB)
		}
		prevCB = a.Matrix(20, 20)
		a.Free(fr)
	}
	gets, hits := a.Stats()
	if gets-hits > 3 { // at most the warm-up allocations miss
		t.Fatalf("steady state allocates: gets=%d hits=%d", gets, hits)
	}
}

// TestFactorBlocksNeverArenaManaged pins the store-safety invariant the
// out-of-core path depends on: ExtractFactor copies out of the front into
// the store's buffer, so recycling the front (and reusing its slab for
// the next front) cannot corrupt a factor block a Store is still
// spilling.
func TestFactorBlocksNeverArenaManaged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewArena()
	fr := a.Matrix(10, 10)
	for i := range fr.A {
		fr.A[i] = rng.NormFloat64()
	}
	blk := make([]float64, 2*PartWords(10, 4))
	extract(fr, 4, sparse.Unsymmetric, blk[:40], blk[40:])
	snap := append([]float64(nil), blk...)

	// Recycle the front and scribble over the reused slab.
	a.Free(fr)
	next := a.Matrix(10, 10)
	for i := range next.A {
		next.A[i] = 1e9
	}
	for i, v := range blk {
		if v != snap[i] {
			t.Fatalf("factor block aliased the recycled front at %d", i)
		}
	}
}
