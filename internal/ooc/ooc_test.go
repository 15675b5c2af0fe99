package ooc

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
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
	extract(fr, npiv, kind, want)
	return want, s.Put(ni, fr, int64(len(want)))
}

// extract writes the factor block of the eliminated front fr, both parts
// for kind, into blk back to back.
func extract(fr *dense.Matrix, npiv int, kind sparse.Type, blk []float64) {
	n := fr.R * npiv
	for p := range front.Part(front.Parts(kind)) {
		front.ExtractFactor(fr, npiv, p, 0, blk[int(p)*n:int(p+1)*n])
	}
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

// TestWriterReusesRecordBuffers: once warm, the write path allocates
// nothing per block — every record, whatever its size, is carved out of
// the store's one slab of chunks, and the put queue and the writer's
// batch scratch reuse their backing arrays — for both kinds, over a mixed stream of blocks
// under half the budget, between half and all of it, and above it, from
// one producer and from two concurrent ones (the parallel executor's
// workers). The blocks still read back bitwise.
func TestWriterReusesRecordBuffers(t *testing.T) {
	const budget, n, warm = 1024, 1000, 600
	shapes := map[sparse.Type][3][2]int{ // (front order, pivots)
		sparse.Unsymmetric: {{12, 4}, {24, 14}, {40, 30}}, // 96, 672 and 2400 words
		sparse.Symmetric:   {{12, 4}, {30, 20}, {50, 40}}, // 48, 600 and 2000 words
	}
	pick := func(ni int) int { return [...]int{0, 1, 0, 2, 0, 0, 1, 0, 2}[ni%9] }
	for _, kind := range []sparse.Type{sparse.Unsymmetric, sparse.Symmetric} {
		for _, producers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/%d", kind, producers), func(t *testing.T) {
				s, err := NewFileStore(Options{Dir: t.TempDir(), BufferEntries: budget})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				sh := shapes[kind]
				tree := shapeTree(kind, n, func(ni int) (int, int) { return sh[pick(ni)][0], sh[pick(ni)][1] })
				bind(t, s, tree)
				var fronts [3]*dense.Matrix
				var entries [3]int64
				for k, shape := range sh {
					fronts[k] = dense.New(shape[0], shape[0])
					for i := range fronts[k].A {
						fronts[k].A[i] = float64(k*10000 + i)
					}
					entries[k] = front.PartWords(shape[0], shape[1]) * int64(front.Parts(kind))
				}
				if entries[0] >= budget/2 || entries[1] < budget/2 || entries[1] > budget || entries[2] <= budget {
					t.Fatalf("block sizes %v do not straddle the budget %d", entries, budget)
				}
				put := func(ni int) {
					if err := s.Put(ni, fronts[pick(ni)], entries[pick(ni)]); err != nil {
						t.Error(err)
					}
				}
				// putRange puts nodes [lo, hi), split round-robin over the
				// producers, and returns the allocations meanwhile.
				putRange := func(lo, hi int) uint64 {
					var before, after runtime.MemStats
					start := make(chan struct{})
					var wg sync.WaitGroup
					for w := range producers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							<-start
							for ni := lo + w; ni < hi; ni += producers {
								put(ni)
							}
						}()
					}
					runtime.ReadMemStats(&before)
					close(start)
					wg.Wait()
					runtime.ReadMemStats(&after)
					return after.Mallocs - before.Mallocs
				}
				// As in testing.AllocsPerRun, one P: the runtime's wait
				// records (sudogs) are cached per P and emptied by a GC, so
				// goroutines blocking on one P and waking on another, or a
				// GC after warm-up, would make it allocate new ones.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				putRange(0, warm)
				if allocs := putRange(warm, n); allocs > 0 {
					t.Errorf("%d allocations over %d blocks once warm, want 0", allocs, n-warm)
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if st := s.Stats(); st.Blocks != n {
					t.Fatalf("%d blocks written, want %d", st.Blocks, n)
				}
				for ni := range n {
					k := pick(ni)
					want := make([]float64, entries[k])
					extract(fronts[k], sh[k][1], kind, want)
					got, err := fetchNode(s, ni)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBlock(want, got); err != nil {
						t.Fatalf("node %d: %v", ni, err)
					}
				}
			})
		}
	}
}
