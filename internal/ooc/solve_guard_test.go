package ooc

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/front"
	"repro/internal/sparse"
)

// TestOverlappingSolveRejected is the regression test for the solve-pass
// guard: the doc always said "one solve may run at a time", but nothing
// enforced it — a second concurrent Prefetch silently cancelled the
// first solve's reader mid-pass. BeginSolve must reject the overlap and
// admit a new solve once the first ends.
func TestOverlappingSolveRejected(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	tree := shapeTree(sparse.Unsymmetric, 4, func(int) (int, int) { return 4, 2 })
	bind(t, s, tree)
	putBlocks(t, s, tree, indices(4), rng)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	if err := s.BeginSolve(); err != nil {
		t.Fatalf("first BeginSolve: %v", err)
	}
	if err := s.BeginSolve(); err == nil {
		t.Fatal("overlapping BeginSolve succeeded; want error")
	} else if !strings.Contains(err.Error(), "solve already in progress") {
		t.Fatalf("overlapping BeginSolve: unhelpful error %q", err)
	}
	// The running solve is unaffected by the rejected attempt.
	s.Prefetch([]int{0, 1, 2, 3}, front.PartL)
	for ni := 0; ni < 4; ni++ {
		if _, err := s.Fetch(ni, front.PartL); err != nil {
			t.Fatalf("fetch %d during solve: %v", ni, err)
		}
		s.Release(ni, front.PartL)
	}
	s.EndSolve()

	// A new solve is admitted after the first ends.
	if err := s.BeginSolve(); err != nil {
		t.Fatalf("BeginSolve after EndSolve: %v", err)
	}
	s.EndSolve()

	// A closed store reports closed, not busy.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginSolve(); err != ErrClosed {
		t.Fatalf("BeginSolve on closed store: %v, want ErrClosed", err)
	}
}

// TestEndSolveDropsCache ends a solve between the prefetch and the walk:
// whatever the reader cached must be discarded and credited back to the
// meter, leaving the store quiescent for the next solve.
func TestEndSolveDropsCache(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(6))
	tree := shapeTree(sparse.Symmetric, 6, func(int) (int, int) { return 5, 2 })
	m := bind(t, s, tree)
	order := indices(6)
	putBlocks(t, s, tree, order, rng)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginSolve(); err != nil {
		t.Fatal(err)
	}
	s.Prefetch(order, front.PartL)
	if _, err := s.Fetch(0, front.PartL); err != nil { // let the pass start
		t.Fatal(err)
	}
	s.Release(0, front.PartL)
	s.EndSolve()
	if got := m.Cur(); got != 0 {
		t.Fatalf("meter holds %d entries after EndSolve; want 0", got)
	}
}
