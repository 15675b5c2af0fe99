package ooc

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/front"
	"repro/internal/memory"
	"repro/internal/sparse"
)

// testOptions is the base fault-test configuration: tiny backoff so
// retry sweeps stay fast.
func testOptions(t *testing.T, in *faults.Injector) Options {
	return Options{Dir: t.TempDir(), RetryBase: 50 * time.Microsecond, Faults: in}
}

// putAll binds s to n random LU-shaped fronts, spills a random block
// for each and returns the originals and the store's meter.
func putAll(t *testing.T, s *FileStore, n int, seed int64) ([][]float64, *memory.Meter) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree := shapeTree(sparse.Unsymmetric, n, func(int) (int, int) { return 2 + rng.Intn(8), 1 + rng.Intn(2) })
	m := bind(t, s, tree)
	return putBlocks(t, s, tree, indices(n), rng), m
}

// fetchAll reads every block back and checks bitwise identity.
func fetchAll(t *testing.T, s *FileStore, orig [][]float64) {
	t.Helper()
	for ni := range orig {
		got, err := fetchNode(s, ni)
		if err != nil {
			t.Fatalf("Fetch(%d): %v", ni, err)
		}
		if err := sameBlock(orig[ni], got); err != nil {
			t.Fatalf("node %d: %v", ni, err)
		}
	}
}

// TestTransientWriteRetried: a burst of injected write errors is
// absorbed by the retry loop — every block still lands on disk, bitwise
// identical, with no degradation.
func TestTransientWriteRetried(t *testing.T) {
	in := faults.New(faults.Rule{Point: faults.SpillWrite, Kind: faults.KindError, Nth: 2, Count: 2})
	s, err := NewFileStore(testOptions(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	orig, _ := putAll(t, s, 10, 21)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Retries == 0 {
		t.Error("no retries counted for injected transient errors")
	}
	if st.DegradedBlocks != 0 {
		t.Errorf("%d blocks degraded, want 0 (errors were transient)", st.DegradedBlocks)
	}
	if st.Blocks != 10 {
		t.Errorf("blocks spilled %d, want 10", st.Blocks)
	}
	fetchAll(t, s, orig)
}

// TestShortWriteRepaired: an injected short write is detected and the
// block rewritten at the same offset; contents round-trip bitwise.
func TestShortWriteRepaired(t *testing.T) {
	in := faults.New(faults.Rule{Point: faults.SpillWrite, Kind: faults.KindShortWrite, Nth: 1, Count: 3})
	s, err := NewFileStore(testOptions(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	orig, _ := putAll(t, s, 8, 22)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Retries == 0 {
		t.Error("short writes were not retried")
	}
	fetchAll(t, s, orig)
}

// TestPersistentWriteDegrades: every spill write fails, so every block
// is retained in-core (degraded mode). The run still completes, Fetch
// serves the blocks bitwise identical from memory, and the meter stays
// charged for them until Close.
func TestPersistentWriteDegrades(t *testing.T) {
	in := faults.New(faults.Rule{Point: faults.SpillWrite, Kind: faults.KindError, Nth: 1, Count: -1})
	opt := testOptions(t, in)
	opt.RetryMax = 1
	s, err := NewFileStore(opt)
	if err != nil {
		t.Fatal(err)
	}
	orig, m := putAll(t, s, 6, 23)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after degradation: %v (degraded runs must complete)", err)
	}
	st := s.Stats()
	if st.DegradedBlocks != 6 {
		t.Fatalf("DegradedBlocks = %d, want 6", st.DegradedBlocks)
	}
	if st.Blocks != 0 {
		t.Errorf("Blocks = %d, want 0 (nothing reached disk)", st.Blocks)
	}
	var want int64
	for i := range orig {
		want += int64(len(orig[i]))
	}
	if st.DegradedEntries != want {
		t.Errorf("DegradedEntries = %d, want %d", st.DegradedEntries, want)
	}
	if cur := m.Cur(); cur != want {
		t.Errorf("meter %d with %d degraded entries resident", cur, want)
	}
	fetchAll(t, s, orig) // Release is a no-op for degraded blocks
	fetchAll(t, s, orig) // a second pass (backward solve) re-serves them
	if cur := m.Cur(); cur != want {
		t.Errorf("meter %d after fetches, want %d (degraded blocks stay charged)", cur, want)
	}
	retries, degraded := s.FaultCounters()
	if retries != st.Retries || degraded != 6 {
		t.Errorf("FaultCounters = (%d, %d), want (%d, 6)", retries, degraded, st.Retries)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if cur := m.Cur(); cur != 0 {
		t.Errorf("meter %d after Close, want 0", cur)
	}
}

// TestPersistentWriteNoDegradePoisonsPut is the regression test for
// writer-error propagation: with degradation disabled, the first
// persistent write failure must surface on the next Put — not only at
// Flush/Close.
func TestPersistentWriteNoDegradePoisonsPut(t *testing.T) {
	in := faults.New(faults.Rule{Point: faults.SpillWrite, Kind: faults.KindError, Nth: 1, Count: -1})
	opt := testOptions(t, in)
	opt.NoDegrade = true
	opt.RetryMax = 1
	s, err := NewFileStore(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(24))
	bind(t, s, shapeTree(sparse.Symmetric, 2, func(int) (int, int) { return 4, 2 }))
	if _, err := putBlock(s, 0, rng); err != nil {
		t.Fatalf("first Put: %v (buffer had room)", err)
	}
	// Flush waits for the writer to hit the failure and poison the store.
	ferr := s.Flush()
	if !errors.Is(ferr, faults.ErrInjected) {
		t.Fatalf("Flush: %v, want injected write error", ferr)
	}
	// The satellite contract: a subsequent Put fails immediately with the
	// same descriptive error instead of queueing into a dead store.
	_, perr := putBlock(s, 1, rng)
	if !errors.Is(perr, faults.ErrInjected) {
		t.Fatalf("Put after writer failure: %v, want the writer's error", perr)
	}
	if !strings.Contains(perr.Error(), "spill write") || !strings.Contains(perr.Error(), "node 0") {
		t.Errorf("Put error %q does not name the failed write", perr)
	}
}

// TestTransientReadRetried: injected read errors under the retry budget
// are invisible to Fetch.
func TestTransientReadRetried(t *testing.T) {
	in := faults.New(faults.Rule{Point: faults.SpillRead, Kind: faults.KindError, Nth: 1, Count: 2})
	s, err := NewFileStore(testOptions(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	orig, _ := putAll(t, s, 4, 25)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fetchAll(t, s, orig)
	if st := s.Stats(); st.Retries == 0 {
		t.Error("read errors were not retried")
	}
}

// TestPersistentReadFails: a read that keeps failing surfaces as a
// descriptive error naming the node.
func TestPersistentReadFails(t *testing.T) {
	in := faults.New(faults.Rule{Point: faults.SpillRead, Kind: faults.KindError, Nth: 1, Count: -1})
	opt := testOptions(t, in)
	opt.RetryMax = 2
	s, err := NewFileStore(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putAll(t, s, 1, 26)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	_, ferr := s.Fetch(0, front.PartL)
	if !errors.Is(ferr, faults.ErrInjected) {
		t.Fatalf("Fetch: %v, want injected read error", ferr)
	}
	if !strings.Contains(ferr.Error(), "spill read") || !strings.Contains(ferr.Error(), "node 0") {
		t.Errorf("error %q does not name the read and node", ferr)
	}
}

// TestDecodeErrorNotRetried: decode faults indicate corruption and must
// fail without burning the retry budget.
func TestDecodeErrorNotRetried(t *testing.T) {
	in := faults.New(faults.Rule{Point: faults.Decode, Kind: faults.KindError, Nth: 1, Count: -1})
	s, err := NewFileStore(testOptions(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putAll(t, s, 1, 27)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	_, ferr := s.Fetch(0, front.PartU)
	if ferr == nil || !strings.Contains(ferr.Error(), "decode") {
		t.Fatalf("Fetch: %v, want decode error", ferr)
	}
	if st := s.Stats(); st.Retries != 0 {
		t.Errorf("%d retries for a decode error, want 0", st.Retries)
	}
}

// TestWriterPanicContained: an injected spill-write panic must not kill
// the writer goroutine — with degradation on, the block is retained
// in-core and the run completes.
func TestWriterPanicContained(t *testing.T) {
	in := faults.New(faults.Rule{Point: faults.SpillWrite, Kind: faults.KindPanic, Nth: 1, Count: 1})
	s, err := NewFileStore(testOptions(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	orig, _ := putAll(t, s, 3, 28)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DegradedBlocks != 1 {
		t.Errorf("DegradedBlocks = %d, want 1 (the panicked write)", st.DegradedBlocks)
	}
	fetchAll(t, s, orig)
}

// TestSetContextCancelsPut: cancelling the bound context unblocks a Put
// waiting on the buffer budget and poisons the store descriptively; the
// store still closes cleanly.
func TestSetContextCancelsPut(t *testing.T) {
	// A persistent delay keeps the writer busy so the buffer stays full.
	in := faults.New(faults.Rule{Point: faults.SpillWrite, Kind: faults.KindDelay, Nth: 1, Count: -1, Delay: 2 * time.Millisecond})
	opt := testOptions(t, in)
	opt.BufferEntries = 16
	s, err := NewFileStore(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	s.SetContext(ctx)
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	rng := rand.New(rand.NewSource(29))
	bind(t, s, shapeTree(sparse.Symmetric, 1000, func(int) (int, int) { return 8, 4 })) // 32 entries > budget/2, so Puts queue up
	var perr error
	for ni := 0; ni < 1000 && perr == nil; ni++ {
		_, perr = putBlock(s, ni, rng)
	}
	if !errors.Is(perr, context.Canceled) {
		t.Fatalf("Put under cancellation: %v, want context.Canceled", perr)
	}
	if !strings.Contains(perr.Error(), "cancelled") {
		t.Errorf("error %q is not descriptive", perr)
	}
	if ferr := s.Flush(); !errors.Is(ferr, context.Canceled) {
		t.Errorf("Flush after cancellation: %v", ferr)
	}
}
