package ooc

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/assembly"
	"repro/internal/faults"
	"repro/internal/front"
	"repro/internal/memory"
	"repro/internal/sparse"
)

// layoutTree is a 7-node tree whose postorder (5 6 3 2 4 1 0) differs
// from both index order and the reverse-index arrival order the tests
// Put in, with a different front shape per node.
func layoutTree(kind sparse.Type) *assembly.Tree {
	t := &assembly.Tree{Kind: kind, Roots: []int{0}}
	children := [][]int{{3, 1}, {2, 4}, nil, {5, 6}, nil, nil, nil}
	parents := []int{-1, 0, 1, 0, 1, 3, 3}
	col := 0
	for ni := range children {
		npiv, ncb := 1+ni%3, 2+ni%4
		rows := make([]int, ncb)
		for i := range rows {
			rows[i] = 100 + 10*ni + i
		}
		t.Nodes = append(t.Nodes, assembly.Node{ID: ni, Parent: parents[ni], Children: children[ni],
			Begin: col, End: col + npiv, Rows: rows})
		col += npiv
	}
	t.N = col
	return t
}

// treeBlocks makes one random block per node, shaped as ExtractFactor
// shapes it: the front's order of rows, its pivots, U for LU.
func treeBlocks(t *assembly.Tree, seed int64) []front.NodeFactor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]front.NodeFactor, t.Len())
	for ni := range t.Nodes {
		nd := &t.Nodes[ni]
		out[ni] = randomBlock(rng, nd.NFront(), nd.NPiv(), t.Kind == sparse.Unsymmetric)
	}
	return out
}

// boundStore creates a store bound to tree and Puts every block in
// reverse index order (so arrival order is not the layout order), then
// flushes.
func boundStore(t *testing.T, opt Options, tree *assembly.Tree, blocks []front.NodeFactor) *FileStore {
	t.Helper()
	s, err := NewFileStore(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.SetMeter(new(memory.Meter))
	s.BindTree(tree, tree.Kind)
	for ni := len(blocks) - 1; ni >= 0; ni-- {
		if err := s.Put(ni, blocks[ni], int64(len(blocks[ni].L.A))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s
}

// walk runs one solve pass over order: Prefetch, then Fetch/compare/
// Release every node.
func walk(s *FileStore, order []int, blocks []front.NodeFactor) error {
	s.Prefetch(order)
	for _, ni := range order {
		got, err := s.Fetch(ni)
		if err != nil {
			return err
		}
		if err := sameBlock(&blocks[ni], got); err != nil {
			return fmt.Errorf("node %d: %w", ni, err)
		}
		s.Release(ni)
	}
	return nil
}

func reversed(order []int) []int {
	out := make([]int, len(order))
	for i, ni := range order {
		out[len(order)-1-i] = ni
	}
	return out
}

// TestReservedOffsetsArePostorderPrefixSums: binding reserves node ni's
// record at the summed record sizes of the nodes before it in postorder,
// and the writer puts each block there whatever order it arrives in, so
// the file reads back in forward-pass order.
func TestReservedOffsetsArePostorderPrefixSums(t *testing.T) {
	for _, kind := range []sparse.Type{sparse.Symmetric, sparse.Unsymmetric} {
		t.Run(kind.String(), func(t *testing.T) {
			tree := layoutTree(kind)
			blocks := treeBlocks(tree, 1)
			s := boundStore(t, Options{Dir: t.TempDir()}, tree, blocks)
			var off int64
			for _, ni := range tree.Postorder() {
				nd := &tree.Nodes[ni]
				size, _ := recordSize(nd.NFront(), nd.NPiv(), kind == sparse.Unsymmetric)
				if r := s.nodes[ni].rec; r.off != off || r.size != size || !r.ok {
					t.Errorf("node %d: record at %d (%d bytes, written %v), want %d (%d bytes)", ni, r.off, r.size, r.ok, off, size)
				}
				off += size
			}
			raw, err := os.ReadFile(s.Path())
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(raw)) != off || s.Stats().BytesWritten != off {
				t.Fatalf("file %d bytes, %d written; want %d", len(raw), s.Stats().BytesWritten, off)
			}
			for ni, sl := range s.nodes {
				r := sl.rec
				w := make([]float64, r.size/8)
				copy(wordBytes(w), raw[r.off:r.off+r.size])
				got, err := decodeBlock(w)
				if err != nil {
					t.Fatalf("node %d: %v", ni, err)
				}
				if err := sameBlock(&blocks[ni], got); err != nil {
					t.Errorf("node %d at its reserved offset: %v", ni, err)
				}
			}
		})
	}
}

// TestExtentStream: a forward and a reverse pass over a bound store read
// each block exactly once per pass and never directly — every Fetch
// finds its block cached or waits for the extent read carrying it. With
// a budget of twice the file's words each pass is one read; with a
// budget smaller than any record it takes one read per block.
func TestExtentStream(t *testing.T) {
	for _, kind := range []sparse.Type{sparse.Symmetric, sparse.Unsymmetric} {
		tree := layoutTree(kind)
		blocks := treeBlocks(tree, 2)
		var total int64 // words in the file
		for ni := range blocks {
			size, _ := recordSize(len(blocks[ni].Rows), blocks[ni].NPiv, blocks[ni].U != nil)
			total += size / 8
		}
		for _, c := range []struct {
			budget int64
			reads  int64 // per pass
		}{{2 * total, 1}, {2, int64(len(blocks))}} {
			t.Run(fmt.Sprintf("%v/budget%d", kind, c.budget), func(t *testing.T) {
				s := boundStore(t, Options{Dir: t.TempDir(), BufferEntries: c.budget}, tree, blocks)
				post := tree.Postorder()
				if err := s.BeginSolve(); err != nil {
					t.Fatal(err)
				}
				for _, order := range [][]int{post, reversed(post)} {
					if err := walk(s, order, blocks); err != nil {
						t.Fatal(err)
					}
				}
				s.EndSolve()
				st := s.Stats()
				n := int64(len(blocks))
				if st.DirectReads != 0 || st.BlocksRead != 2*n || st.Reads != 2*c.reads {
					t.Errorf("%d direct reads, %d blocks in %d reads; want 0, %d in %d", st.DirectReads, st.BlocksRead, st.Reads, 2*n, 2*c.reads)
				}
			})
		}
	}
}

// TestExtentReadRetriedAsWhole: a spill-read error on the third block of
// a one-extent pass fails that read; the whole extent is read again and
// every block comes back bit for bit. The same fault on every attempt
// (the third check of attempts 1, 2 and 3: hits 3, 6 and 9) poisons the
// store with an error naming the third block's node.
func TestExtentReadRetriedAsWhole(t *testing.T) {
	tree := layoutTree(sparse.Unsymmetric)
	blocks := treeBlocks(tree, 3)
	post := tree.Postorder()
	for _, persistent := range []bool{false, true} {
		rules := []faults.Rule{{Point: faults.SpillRead, Kind: faults.KindError, Nth: 3}}
		if persistent {
			rules = append(rules, faults.Rule{Point: faults.SpillRead, Kind: faults.KindError, Nth: 6},
				faults.Rule{Point: faults.SpillRead, Kind: faults.KindError, Nth: 9})
		}
		opt := testOptions(t, faults.New(rules...))
		opt.BufferEntries = 1 << 20
		opt.RetryMax = 2
		s := boundStore(t, opt, tree, blocks)
		err := walk(s, post, blocks)
		st := s.Stats()
		if !persistent {
			if err != nil {
				t.Fatalf("transient read error not absorbed: %v", err)
			}
			if st.Retries != 1 || st.Reads != 1 || st.BlocksRead != int64(len(blocks)) || st.DirectReads != 0 {
				t.Errorf("stats %+v: want 1 retry of 1 extent read of %d blocks", st, len(blocks))
			}
			continue
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("persistent read error: %v, want the injected error", err)
		}
		if want := fmt.Sprintf("spill read (node %d)", post[2]); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the failing block (%q)", err, want)
		}
		if st.Retries != 2 {
			t.Errorf("%d retries, want RetryMax 2", st.Retries)
		}
		if _, ferr := s.Fetch(post[0]); ferr == nil || ferr.Error() != err.Error() {
			t.Errorf("store not poisoned: later Fetch returned %v", ferr)
		}
	}
}

// TestCorruptBlockFailsChecksum: a bit flipped after the read — in the
// prefetch stream or on a direct Fetch — is a checksum error naming the
// node, never retried and never a block that decodes.
func TestCorruptBlockFailsChecksum(t *testing.T) {
	tree := layoutTree(sparse.Symmetric)
	blocks := treeBlocks(tree, 4)
	post := tree.Postorder()
	for _, stream := range []bool{true, false} {
		in := faults.New(faults.Rule{Point: faults.SpillRead, Kind: faults.KindCorrupt, Nth: 2})
		s := boundStore(t, testOptions(t, in), tree, blocks)
		var err error
		if stream {
			err = walk(s, post, blocks)
		} else {
			for _, ni := range post {
				if _, err = s.Fetch(ni); err != nil {
					break
				}
				s.Release(ni)
			}
		}
		if err == nil {
			t.Fatalf("stream=%v: corrupted block read back without error", stream)
		}
		for _, want := range []string{"checksum mismatch", fmt.Sprintf("node %d", post[1])} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("stream=%v: error %q lacks %q", stream, err, want)
			}
		}
		if st := s.Stats(); st.Retries != 0 {
			t.Errorf("stream=%v: %d retries for a checksum error, want 0", stream, st.Retries)
		}
	}
}

// TestDecodeDetectsEveryBitFlip: CRC-32C catches any single flipped bit
// of a record, header and checksum word included; an intact record
// decodes with L and U aliasing the read buffer (no copy).
func TestDecodeDetectsEveryBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := randomBlock(rng, 5, 2, true)
	enc := appendBlock(nil, &b)
	raw := wordBytes(enc)
	for bit := 0; bit < 8*len(raw); bit++ {
		w := append([]float64(nil), enc...)
		wordBytes(w)[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeBlock(w); err == nil {
			t.Fatalf("flip of bit %d decoded without error", bit)
		}
	}
	if _, err := decodeBlock(append([]float64(nil), enc[:len(enc)-2]...)); err == nil {
		t.Fatal("truncated record decoded")
	}
	w := append([]float64(nil), enc...)
	got, err := decodeBlock(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBlock(&b, got); err != nil {
		t.Fatal(err)
	}
	if &got.L.A[0] != &w[headerWords+5] || &got.U.A[0] != &w[headerWords+5+10] {
		t.Error("decoded L/U do not alias the record buffer")
	}
}

// TestMisshapenBlockPoisons: a block whose shape does not match the
// record reserved for its node would overwrite its neighbours' records,
// so the writer refuses it and poisons the store, naming the node,
// instead of degrading it.
func TestMisshapenBlockPoisons(t *testing.T) {
	tree := layoutTree(sparse.Symmetric)
	s, err := NewFileStore(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.BindTree(tree, tree.Kind)
	nd := &tree.Nodes[2]
	b := randomBlock(rand.New(rand.NewSource(9)), nd.NFront()+1, nd.NPiv(), false)
	if err := s.Put(len(tree.Nodes), b, 1); err == nil || !strings.Contains(err.Error(), "outside the bound tree") {
		t.Errorf("Put of a node outside the bound tree: %v", err)
	}
	if err := s.Put(2, b, int64(len(b.L.A))); err != nil {
		t.Fatal(err)
	}
	err = s.Flush()
	if err == nil || !strings.Contains(err.Error(), "node 2") || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("Flush after a misshapen block: %v, want an error naming node 2's reserved record", err)
	}
	if st := s.Stats(); st.DegradedBlocks != 0 || st.Blocks != 0 {
		t.Errorf("misshapen block degraded or written: %+v", st)
	}
}
