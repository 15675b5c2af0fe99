package ooc

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/dense"
	"repro/internal/front"
	"repro/internal/memory"
)

// randomBlock builds a NodeFactor with random payload. withU toggles the
// LU upper trapezoid.
func randomBlock(rng *rand.Rand, nf, npiv int, withU bool) front.NodeFactor {
	b := front.NodeFactor{Rows: make([]int, nf), NPiv: npiv, L: dense.New(nf, npiv)}
	for i := range b.Rows {
		b.Rows[i] = i*3 + rng.Intn(3)
	}
	for i := range b.L.A {
		b.L.A[i] = rng.NormFloat64()
	}
	if withU {
		b.U = dense.New(npiv, nf)
		for i := range b.U.A {
			b.U.A[i] = rng.NormFloat64()
		}
	}
	return b
}

func sameBlock(a, b *front.NodeFactor) error {
	if a.NPiv != b.NPiv || len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("shape: npiv %d vs %d, rows %d vs %d", a.NPiv, b.NPiv, len(a.Rows), len(b.Rows))
	}
	for i, r := range a.Rows {
		if b.Rows[i] != r {
			return fmt.Errorf("row %d: %d vs %d", i, r, b.Rows[i])
		}
	}
	for i, v := range a.L.A {
		if b.L.A[i] != v {
			return fmt.Errorf("L[%d]: %v vs %v (not bitwise identical)", i, v, b.L.A[i])
		}
	}
	if (a.U == nil) != (b.U == nil) {
		return fmt.Errorf("U presence mismatch")
	}
	if a.U != nil {
		for i, v := range a.U.A {
			if b.U.A[i] != v {
				return fmt.Errorf("U[%d]: %v vs %v", i, v, b.U.A[i])
			}
		}
	}
	return nil
}

// TestRoundtripBitwise spills a mix of Cholesky- and LU-shaped blocks and
// reads them back: every float must round-trip bit-for-bit.
func TestRoundtripBitwise(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(42))
	orig := make([]front.NodeFactor, 20)
	for ni := range orig {
		orig[ni] = randomBlock(rng, 2+rng.Intn(10), 1+rng.Intn(2), ni%2 == 0)
		if err := s.Put(ni, orig[ni], int64(len(orig[ni].L.A))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for ni := range orig {
		got, err := s.Fetch(ni)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBlock(&orig[ni], got); err != nil {
			t.Errorf("node %d: %v", ni, err)
		}
		s.Release(ni)
	}
}

// TestBudgetBoundsBuffer uses a budget smaller than the stream and checks
// that Put blocked at least once, the buffer peak respected the bound
// (one block of slack: an oversized block is admitted when the buffer is
// empty), and everything still landed on disk.
func TestBudgetBoundsBuffer(t *testing.T) {
	const budget = 64
	s, err := NewFileStore(Options{Dir: t.TempDir(), BufferEntries: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	n := 50
	for ni := 0; ni < n; ni++ {
		b := randomBlock(rng, 8, 4, false) // 32 entries each
		if err := s.Put(ni, b, int64(len(b.L.A))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Blocks != n {
		t.Errorf("blocks %d, want %d", st.Blocks, n)
	}
	if st.BufferPeak > budget {
		t.Errorf("buffer peak %d exceeded budget %d", st.BufferPeak, budget)
	}
	if st.PutWaits == 0 {
		t.Error("no Put ever blocked under a tight budget")
	}
}

// TestOversizedBlockAdmitted: a single block larger than the whole budget
// must still go through (admitted when the buffer is empty).
func TestOversizedBlockAdmitted(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir(), BufferEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(9))
	b := randomBlock(rng, 20, 10, true) // 400 entries >> 4
	if err := s.Put(0, b, int64(len(b.L.A))); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(0); err != nil {
		t.Fatal(err)
	}
	s.Release(0)
}

// TestMeterBalances checks the shared meter: charged while blocks are
// buffered or fetched, zero once everything is spilled and released.
func TestMeterBalances(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var m memory.Meter
	s.SetMeter(&m)
	rng := rand.New(rand.NewSource(3))
	for ni := 0; ni < 10; ni++ {
		b := randomBlock(rng, 6, 3, false)
		if err := s.Put(ni, b, int64(len(b.L.A))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if cur := m.Cur(); cur != 0 {
		t.Errorf("meter %d after flush, want 0 (all spilled)", cur)
	}
	if m.Peak() == 0 {
		t.Error("meter never charged during buffering")
	}
	nf, err := s.Fetch(4)
	if err != nil {
		t.Fatal(err)
	}
	if cur := m.Cur(); cur != int64(len(nf.L.A)) {
		t.Errorf("meter %d while holding a %d-entry block", cur, len(nf.L.A))
	}
	s.Release(4)
	if cur := m.Cur(); cur != 0 {
		t.Errorf("meter %d after release, want 0", cur)
	}
}

// TestPrefetchStream walks blocks in the announced order (forward then
// reverse, like the solves) and checks contents and meter balance.
func TestPrefetchStream(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir(), BufferEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var m memory.Meter
	s.SetMeter(&m)
	rng := rand.New(rand.NewSource(11))
	n := 30
	orig := make([]front.NodeFactor, n)
	order := make([]int, n)
	for ni := 0; ni < n; ni++ {
		orig[ni] = randomBlock(rng, 4+rng.Intn(4), 2, ni%3 == 0)
		order[ni] = ni
		if err := s.Put(ni, orig[ni], int64(len(orig[ni].L.A))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		s.Prefetch(order)
		for _, ni := range order {
			got, err := s.Fetch(ni)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBlock(&orig[ni], got); err != nil {
				t.Errorf("pass %d node %d: %v", pass, ni, err)
			}
			s.Release(ni)
		}
		// Reverse for the second pass, as the backward solve does.
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	if cur := m.Cur(); cur != 0 {
		t.Errorf("meter %d after both passes, want 0", cur)
	}
}

// TestFetchUnknownNode must fail cleanly, not hang or return junk.
func TestFetchUnknownNode(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Fetch(5); err == nil {
		t.Error("Fetch of never-Put node succeeded")
	}
}

// TestClosedStore: operations after Close return ErrClosed and the spill
// file is gone; double Close is fine.
func TestClosedStore(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	path := s.Path()
	rng := rand.New(rand.NewSource(1))
	b := randomBlock(rng, 4, 2, false)
	if err := s.Put(0, b, int64(len(b.L.A))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("spill file still exists after Close: %v", err)
	}
	if err := s.Put(1, b, 8); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close: %v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Fetch(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Fetch after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestConcurrentPut hammers Put from several goroutines (the parallel
// executor's workers) under a tight budget; run with -race.
func TestConcurrentPut(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir(), BufferEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var m memory.Meter
	s.SetMeter(&m)
	const workers, per = 8, 25
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				b := randomBlock(rng, 4+rng.Intn(6), 2, w%2 == 0)
				if err := s.Put(w*per+i, b, int64(len(b.L.A))); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Blocks; got != workers*per {
		t.Errorf("blocks %d, want %d", got, workers*per)
	}
	if cur := m.Cur(); cur != 0 {
		t.Errorf("meter %d after flush, want 0", cur)
	}
}
