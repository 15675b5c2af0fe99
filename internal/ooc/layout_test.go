package ooc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
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

// boundStore creates a store bound to tree and Puts a random block for
// every node in reverse index order (so arrival order is not the layout
// order), then flushes. It returns the store and the blocks by node.
func boundStore(t *testing.T, opt Options, tree *assembly.Tree, seed int64) (*FileStore, [][]float64) {
	t.Helper()
	s, err := NewFileStore(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	bind(t, s, tree)
	blocks := putBlocks(t, s, tree, reversed(indices(tree.Len())), rand.New(rand.NewSource(seed)))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, blocks
}

// walk runs one solve pass over part p of order: Prefetch, then Fetch/
// compare/Release every node against its whole block in blocks.
func walk(s *FileStore, order []int, p front.Part, blocks [][]float64) error {
	s.Prefetch(order, p)
	for _, ni := range order {
		got, err := s.Fetch(ni, p)
		if err != nil {
			return err
		}
		if err := sameBlock(partOf(blocks[ni], s.parts, p), got); err != nil {
			return fmt.Errorf("node %d part %v: %w", ni, p, err)
		}
		s.Release(ni, p)
	}
	return nil
}

// passes are the parts a solve's two passes read for kind: L forward,
// then BackwardPart.
func passes(kind sparse.Type) [2]front.Part {
	return [2]front.Part{front.PartL, front.BackwardPart(kind)}
}

func reversed(order []int) []int {
	out := make([]int, len(order))
	for i, ni := range order {
		out[len(order)-1-i] = ni
	}
	return out
}

// TestReservedOffsetsArePostorderPrefixSums: binding reserves node ni's
// record of each part at the summed record sizes of the records before
// it — the part's region, after the L region for U, in postorder — and
// the writer puts each record there whatever order its node arrives in,
// so each region reads back in forward-pass order.
func TestReservedOffsetsArePostorderPrefixSums(t *testing.T) {
	for _, kind := range []sparse.Type{sparse.Symmetric, sparse.Unsymmetric} {
		t.Run(kind.String(), func(t *testing.T) {
			tree := layoutTree(kind)
			s, blocks := boundStore(t, Options{Dir: t.TempDir()}, tree, 1)
			var off int64
			for p := range front.Part(front.Parts(kind)) {
				for _, ni := range tree.Postorder() {
					nd := &tree.Nodes[ni]
					size := 8 * (front.PartWords(nd.NFront(), nd.NPiv()) + recordOverhead)
					if r, ok := s.recOf(ni, p), s.spilled[ni]; r.off != off || r.size != size || !ok {
						t.Errorf("node %d part %v: record at %d (%d bytes, written %v), want %d (%d bytes)", ni, p, r.off, r.size, ok, off, size)
					}
					off += size
				}
			}
			raw, err := os.ReadFile(s.Path())
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(raw)) != off || s.Stats().BytesWritten != off {
				t.Fatalf("file %d bytes, %d written; want %d", len(raw), s.Stats().BytesWritten, off)
			}
			for p := range front.Part(front.Parts(kind)) {
				for ni := range s.spilled {
					r := s.recOf(ni, p)
					w := make([]float64, r.size/8)
					copy(wordBytes(w), raw[r.off:r.off+r.size])
					_, got, err := decodeRecord(w, p)
					if err != nil {
						t.Fatalf("node %d part %v: %v", ni, p, err)
					}
					if err := sameBlock(partOf(blocks[ni], s.parts, p), got); err != nil {
						t.Errorf("node %d part %v at its reserved offset: %v", ni, p, err)
					}
				}
			}
		})
	}
}

// TestExtentStream: a forward and a reverse pass over a bound store read
// each record of the pass's part exactly once and never directly —
// every Fetch finds its record cached or waits for the extent read
// carrying it. With a budget of twice the file's words each pass is one
// read; with a budget smaller than any record it takes one read per
// record.
func TestExtentStream(t *testing.T) {
	for _, kind := range []sparse.Type{sparse.Symmetric, sparse.Unsymmetric} {
		tree := layoutTree(kind)
		lay := front.NewLayout(tree, kind)
		total := lay.Words() + int64(tree.Len())*recordOverhead // words in the file
		for _, c := range []struct {
			budget int64
			reads  int64 // per pass
		}{{2 * total, 1}, {2, int64(tree.Len())}} {
			t.Run(fmt.Sprintf("%v/budget%d", kind, c.budget), func(t *testing.T) {
				s, blocks := boundStore(t, Options{Dir: t.TempDir(), BufferEntries: c.budget}, tree, 2)
				post := tree.Postorder()
				if err := s.BeginSolve(); err != nil {
					t.Fatal(err)
				}
				for pass, order := range [][]int{post, reversed(post)} {
					if err := walk(s, order, passes(kind)[pass], blocks); err != nil {
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

// TestRecycledBuffersNeedNoClearing: read buffers are allocated and
// reused without clearing, so every word a block decodes from must come
// from the read. Each pooled read buffer is filled with NaN, over its
// whole capacity, before the next pass reuses it; every pass — extents
// at a budget of a few records, then direct reads — must still give the
// in-core slab's blocks bit for bit.
func TestRecycledBuffersNeedNoClearing(t *testing.T) {
	for _, kind := range []sparse.Type{sparse.Symmetric, sparse.Unsymmetric} {
		t.Run(kind.String(), func(t *testing.T) {
			tree := layoutTree(kind)
			lay := front.NewLayout(tree, kind)
			s, err := NewFileStore(Options{Dir: t.TempDir(), BufferEntries: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			bind(t, s, tree)
			mem := front.NewFactors(lay)
			if err := mem.Bind(lay, new(memory.Meter)); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			for _, ni := range reversed(indices(tree.Len())) {
				nd := &tree.Nodes[ni]
				fr := dense.New(nd.NFront(), nd.NFront())
				for i := range fr.A {
					fr.A[i] = rng.NormFloat64()
				}
				entries := front.PartWords(nd.NFront(), nd.NPiv()) * int64(front.Parts(kind))
				if err := s.Put(ni, fr, entries); err != nil {
					t.Fatal(err)
				}
				if err := mem.Put(ni, fr, entries); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			slab := make([][]float64, tree.Len())
			for ni := range slab {
				for p := range front.Part(front.Parts(kind)) {
					slab[ni] = append(slab[ni], mem.Block(ni, p)...)
				}
			}
			poison := func() int {
				s.mu.Lock()
				defer s.mu.Unlock()
				for _, b := range s.free {
					b = b[:cap(b)]
					for i := range b {
						b[i] = math.NaN()
					}
				}
				return len(s.free)
			}
			if err := s.BeginSolve(); err != nil {
				t.Fatal(err)
			}
			post := tree.Postorder()
			poisoned := 0
			for pass, order := range [][]int{post, reversed(post), post} {
				if err := walk(s, order, passes(kind)[pass%2], slab); err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				poisoned += poison()
			}
			if poisoned == 0 {
				t.Fatal("no read buffer was pooled for reuse")
			}
			s.EndSolve()
			// Direct reads: Fetch with no walk announced.
			for _, ni := range post {
				got, err := fetchNode(s, ni)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBlock(slab[ni], got); err != nil {
					t.Errorf("direct read of node %d: %v", ni, err)
				}
			}
			if st, want := s.Stats(), int64(len(post)*front.Parts(kind)); st.DirectReads != want {
				t.Errorf("%d direct reads, want %d", st.DirectReads, want)
			}
		})
	}
}

// TestExtentReadRetriedAsWhole: a spill-read error on the third block of
// a one-extent pass fails that read; the whole extent is read again and
// every block comes back bit for bit. The same fault on every attempt
// (the third check of attempts 1, 2 and 3: hits 3, 6 and 9) poisons the
// store with an error naming the third block's node.
func TestExtentReadRetriedAsWhole(t *testing.T) {
	tree := layoutTree(sparse.Unsymmetric)
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
		s, blocks := boundStore(t, opt, tree, 3)
		err := walk(s, post, front.PartL, blocks)
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
		if _, ferr := s.Fetch(post[0], front.PartL); ferr == nil || ferr.Error() != err.Error() {
			t.Errorf("store not poisoned: later Fetch returned %v", ferr)
		}
	}
}

// TestCorruptBlockFailsChecksum: a bit flipped after the read — in the
// prefetch stream or on a direct Fetch — is a checksum error naming the
// node, never retried and never a block that decodes.
func TestCorruptBlockFailsChecksum(t *testing.T) {
	tree := layoutTree(sparse.Symmetric)
	post := tree.Postorder()
	for _, stream := range []bool{true, false} {
		in := faults.New(faults.Rule{Point: faults.SpillRead, Kind: faults.KindCorrupt, Nth: 2})
		s, blocks := boundStore(t, testOptions(t, in), tree, 4)
		var err error
		if stream {
			err = walk(s, post, front.PartL, blocks)
		} else {
			for _, ni := range post {
				if _, err = s.Fetch(ni, front.PartL); err != nil {
					break
				}
				s.Release(ni, front.PartL)
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
// decodes with its block aliasing the read buffer (no copy).
func TestDecodeDetectsEveryBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := header{npiv: 2, nrows: 5, part: front.PartU}
	enc := make([]float64, 10+recordOverhead)
	b := enc[headerWords : len(enc)-1]
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	sealFlat(enc, h)
	raw := wordBytes(enc)
	for bit := 0; bit < 8*len(raw); bit++ {
		w := append([]float64(nil), enc...)
		wordBytes(w)[bit/8] ^= 1 << (bit % 8)
		if _, _, err := decodeRecord(w, front.PartU); err == nil {
			t.Fatalf("flip of bit %d decoded without error", bit)
		}
	}
	if _, _, err := decodeRecord(append([]float64(nil), enc[:len(enc)-2]...), front.PartU); err == nil {
		t.Fatal("truncated record decoded")
	}
	w := append([]float64(nil), enc...)
	gh, got, err := decodeRecord(w, front.PartU)
	if err != nil {
		t.Fatal(err)
	}
	if gh != h {
		t.Errorf("header %+v, want %+v", gh, h)
	}
	if err := sameBlock(b, got); err != nil {
		t.Fatal(err)
	}
	if &got[0] != &w[headerWords] {
		t.Error("decoded block does not alias the record buffer")
	}
}

// TestMisshapenRecordRejected: a block has exactly its layout range, so
// the store refuses a Put before Bind and a node outside the bound tree;
// a record on disk whose header frames another shape than its node's
// fails to decode, naming the node, and is not retried.
func TestMisshapenRecordRejected(t *testing.T) {
	tree := layoutTree(sparse.Symmetric)
	s, err := NewFileStore(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(9))
	if _, err := putBlock(s, 0, rng); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Errorf("Put on an unbound store: %v", err)
	}
	bind(t, s, tree)
	if _, err := putBlock(s, len(tree.Nodes), rng); err == nil || !strings.Contains(err.Error(), "outside the bound tree") {
		t.Errorf("Put of a node outside the bound tree: %v", err)
	}
	putBlocks(t, s, tree, indices(tree.Len()), rng)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reframe node 2's record as a front one row larger: the checksum
	// holds, the shape does not.
	r, h := s.recOf(2, front.PartL), s.headerOf(2, front.PartL)
	w := make([]float64, r.size/8)
	if _, err := s.file.ReadAt(wordBytes(w), r.off); err != nil {
		t.Fatal(err)
	}
	h.nrows, h.npiv = h.nrows*h.npiv, 1
	sealFlat(w, h)
	if _, err := s.file.WriteAt(wordBytes(w), r.off); err != nil {
		t.Fatal(err)
	}
	_, err = s.Fetch(2, front.PartL)
	if err == nil || !strings.Contains(err.Error(), "node 2") || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("Fetch of a misshapen record: %v, want a decode error naming node 2's shape", err)
	}
	if st := s.Stats(); st.Retries != 0 {
		t.Errorf("%d retries for a misshapen record, want 0", st.Retries)
	}
}
