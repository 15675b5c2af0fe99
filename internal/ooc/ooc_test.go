package ooc

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/front"
	"repro/internal/memory"
	"repro/internal/sparse"
)

// shapeTree is a forest of n one-front trees, node ni a front of order
// and pivot count shape(ni): a layout of n independent blocks.
func shapeTree(kind sparse.Type, n int, shape func(ni int) (nf, npiv int)) *assembly.Tree {
	t := &assembly.Tree{Kind: kind}
	for ni := 0; ni < n; ni++ {
		nf, npiv := shape(ni)
		t.Nodes = append(t.Nodes, assembly.Node{ID: ni, Parent: -1, Begin: t.N, End: t.N + npiv, Rows: make([]int, nf-npiv)})
		t.Roots = append(t.Roots, ni)
		t.N += npiv
	}
	return t
}

// bind binds s to tree's layout with a fresh meter and returns the meter.
func bind(t *testing.T, s *FileStore, tree *assembly.Tree) *memory.Meter {
	t.Helper()
	m := new(memory.Meter)
	if err := s.Bind(front.NewLayout(tree, tree.Kind), m); err != nil {
		t.Fatal(err)
	}
	return m
}

// putBlock Puts a random front for node ni of the bound tree (or of
// order 2 with one pivot for a node outside it), charged its block's
// words, and returns the block Put should have stored.
func putBlock(s *FileStore, ni int, rng *rand.Rand) ([]float64, error) {
	nf, npiv, kind := 2, 1, sparse.Unsymmetric
	if s.lay != nil && ni >= 0 && ni < s.lay.Tree.Len() {
		nd := &s.lay.Tree.Nodes[ni]
		nf, npiv, kind = nd.NFront(), nd.NPiv(), s.lay.Kind
	}
	fr := dense.New(nf, nf)
	for i := range fr.A {
		fr.A[i] = rng.NormFloat64()
	}
	want := make([]float64, front.PartWords(nf, npiv)*int64(front.Parts(kind)))
	front.ExtractFactor(fr, npiv, kind, want[:nf*npiv], want[nf*npiv:])
	return want, s.Put(ni, fr, int64(len(want)))
}

// fetchNode fetches every part of node ni, releasing each, and returns
// them back to back: the whole block, as putBlock returns it.
func fetchNode(s *FileStore, ni int) ([]float64, error) {
	var blk []float64
	for p := range front.Part(s.parts) {
		b, err := s.Fetch(ni, p)
		if err != nil {
			return nil, err
		}
		blk = append(blk, b...)
		s.Release(ni, p)
	}
	return blk, nil
}

// partOf is part p of the whole block blk of a front with parts parts.
func partOf(blk []float64, parts int, p front.Part) []float64 {
	n := len(blk) / parts
	return blk[int(p)*n : (int(p)+1)*n]
}

// putBlocks Puts a random block for every node of order and returns
// them by node.
func putBlocks(t *testing.T, s *FileStore, tree *assembly.Tree, order []int, rng *rand.Rand) [][]float64 {
	t.Helper()
	out := make([][]float64, tree.Len())
	for _, ni := range order {
		var err error
		if out[ni], err = putBlock(s, ni, rng); err != nil {
			t.Fatalf("Put(%d): %v", ni, err)
		}
	}
	return out
}

// indices is 0..n-1.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sameBlock(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("shape: %d words vs %d", len(a), len(b))
	}
	for i, v := range a {
		if b[i] != v {
			return fmt.Errorf("word %d: %v vs %v (not bitwise identical)", i, v, b[i])
		}
	}
	return nil
}

// TestRoundtripBitwise spills Cholesky- and LU-shaped blocks and reads
// them back: every float must round-trip bit-for-bit.
func TestRoundtripBitwise(t *testing.T) {
	for _, kind := range []sparse.Type{sparse.Symmetric, sparse.Unsymmetric} {
		s, err := NewFileStore(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rng := rand.New(rand.NewSource(42))
		tree := shapeTree(kind, 20, func(int) (int, int) { return 2 + rng.Intn(10), 1 + rng.Intn(2) })
		bind(t, s, tree)
		orig := putBlocks(t, s, tree, indices(20), rng)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for ni := range orig {
			got, err := fetchNode(s, ni)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBlock(orig[ni], got); err != nil {
				t.Errorf("%v node %d: %v", kind, ni, err)
			}
		}
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
	tree := shapeTree(sparse.Symmetric, n, func(int) (int, int) { return 8, 4 }) // 32 entries each
	bind(t, s, tree)
	putBlocks(t, s, tree, indices(n), rng)
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
	tree := shapeTree(sparse.Unsymmetric, 1, func(int) (int, int) { return 20, 10 }) // 400 entries >> 4
	bind(t, s, tree)
	putBlocks(t, s, tree, []int{0}, rng)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := fetchNode(s, 0); err != nil {
		t.Fatal(err)
	}
}

// TestMeterBalances checks the shared meter: charged while blocks are
// buffered or fetched, zero once everything is spilled and released.
func TestMeterBalances(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tree := shapeTree(sparse.Symmetric, 10, func(int) (int, int) { return 6, 3 })
	m := bind(t, s, tree)
	rng := rand.New(rand.NewSource(3))
	putBlocks(t, s, tree, indices(10), rng)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if cur := m.Cur(); cur != 0 {
		t.Errorf("meter %d after flush, want 0 (all spilled)", cur)
	}
	if m.Peak() == 0 {
		t.Error("meter never charged during buffering")
	}
	blk, err := s.Fetch(4, front.PartL)
	if err != nil {
		t.Fatal(err)
	}
	if cur := m.Cur(); cur != int64(len(blk)) {
		t.Errorf("meter %d while holding a %d-entry block", cur, len(blk))
	}
	s.Release(4, front.PartL)
	if cur := m.Cur(); cur != 0 {
		t.Errorf("meter %d after release, want 0", cur)
	}
}

// TestPrefetchStream walks the L parts in the announced order, then the
// U parts in reverse, like the solves, and checks contents and meter
// balance.
func TestPrefetchStream(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir(), BufferEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(11))
	n := 30
	tree := shapeTree(sparse.Unsymmetric, n, func(int) (int, int) { return 4 + rng.Intn(4), 2 })
	m := bind(t, s, tree)
	order := indices(n)
	orig := putBlocks(t, s, tree, order, rng)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []front.Part{front.PartL, front.PartU} {
		s.Prefetch(order, p)
		for _, ni := range order {
			got, err := s.Fetch(ni, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBlock(partOf(orig[ni], 2, p), got); err != nil {
				t.Errorf("part %v node %d: %v", p, ni, err)
			}
			s.Release(ni, p)
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
	if _, err := s.Fetch(5, front.PartL); err == nil {
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
	tree := shapeTree(sparse.Symmetric, 2, func(int) (int, int) { return 4, 2 })
	bind(t, s, tree)
	putBlocks(t, s, tree, []int{0}, rng)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("spill file still exists after Close: %v", err)
	}
	if _, err := putBlock(s, 1, rng); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close: %v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Fetch(0, front.PartL); !errors.Is(err, ErrClosed) {
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
	const workers, per = 8, 25
	shapes := rand.New(rand.NewSource(12))
	tree := shapeTree(sparse.Unsymmetric, workers*per, func(int) (int, int) { return 4 + shapes.Intn(6), 2 })
	m := bind(t, s, tree)
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				if _, err := putBlock(s, w*per+i, rng); err != nil {
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

// TestWriterReusesRecordBuffers: once warm, the writer path allocates no
// record buffer per block — Put extracts into the buffer of a record
// already written, and the put queue reuses its backing array.
func TestWriterReusesRecordBuffers(t *testing.T) {
	s, err := NewFileStore(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 200
	tree := shapeTree(sparse.Unsymmetric, n, func(int) (int, int) { return 9, 3 })
	bind(t, s, tree)
	fr := dense.New(9, 9)
	for i := range fr.A {
		fr.A[i] = float64(i)
	}
	next := 0
	put := func() {
		if err := s.Put(next, fr, 54); err != nil {
			t.Fatal(err)
		}
		next++
		for s.Stats().QueuedEntries > 0 { // let the writer pool the buffer
			runtime.Gosched()
		}
	}
	for range 10 {
		put()
	}
	if allocs := testing.AllocsPerRun(n-20, put); allocs != 0 {
		t.Errorf("%.0f allocations per block once warm, want 0", allocs)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Blocks != next {
		t.Errorf("%d blocks written, want %d", st.Blocks, next)
	}
}
