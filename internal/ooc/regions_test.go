package ooc

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/front"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/seqmf"
	"repro/internal/sparse"
)

// passMarks is a FileStore that notes, at each announced pass, the part
// it reads and the bytes the store had read back before it.
type passMarks struct {
	*FileStore
	parts []front.Part
	read  []int64
}

func (m *passMarks) Prefetch(order []int, p front.Part) {
	m.parts = append(m.parts, p)
	m.read = append(m.read, m.Stats().BytesRead)
	m.FileStore.Prefetch(order, p)
}

// regionBytes is the size of part p's region of the spill file.
func regionBytes(s *FileStore, p front.Part) int64 {
	var n int64
	for ni := range s.spilled {
		n += s.recOf(ni, p).size
	}
	return n
}

// TestSolveReadsEachRegionOnce factors a symmetric and an unsymmetric
// grid into a file store and solves from it, at a budget of a few
// records so each pass takes many extents. An unsymmetric solve reads
// every spilled byte exactly once: its forward pass reads the L region
// and its backward pass the U region, each whole and nothing else. A
// symmetric solve reads every byte exactly twice, the one region per
// pass. A one-worker tree-parallel solve reads the same, with no direct
// read, and direct reads of every record read every byte once more. The
// solutions are the in-core one, bit for bit.
func TestSolveReadsEachRegionOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, a := range []*sparse.CSC{sparse.Grid3D(6, 6, 6), sparse.Grid3DUnsym(6, 6, 6, rng)} {
		t.Run(a.Kind.String(), func(t *testing.T) {
			if err := sparse.FillDominant(a, rng); err != nil {
				t.Fatal(err)
			}
			tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
			fs, err := NewFileStore(Options{Dir: t.TempDir(), BufferEntries: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			if _, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{}, fs); err != nil {
				t.Fatal(err)
			}
			in, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, 2*a.N)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want, err := in.SolveOriginalMulti(b, 2)
			if err != nil {
				t.Fatal(err)
			}
			m := &passMarks{FileStore: fs}
			x, err := front.NewSolver(m, tree, a.Kind, dense.KernelDefault).SolveOriginalMulti(b, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("x[%d] = %v from the file, %v in core", i, x[i], want[i])
				}
			}

			st, n := fs.Stats(), int64(tree.Len())
			wantParts := []front.Part{front.PartL, front.BackwardPart(a.Kind)}
			if !slices.Equal(m.parts, wantParts) {
				t.Fatalf("passes read parts %v, want %v", m.parts, wantParts)
			}
			perPass := []int64{m.read[1] - m.read[0], st.BytesRead - m.read[1]}
			for pass, p := range wantParts {
				if got, want := perPass[pass], regionBytes(fs, p); got != want {
					t.Errorf("pass %d read %d bytes, want the %v region's %d", pass, got, p, want)
				}
			}
			reads := st.BytesWritten // each region once
			if a.Kind == sparse.Symmetric {
				reads *= 2 // the one region by both passes
			}
			if st.BytesRead != reads || st.DirectReads != 0 || st.BlocksRead != 2*n {
				t.Errorf("solve read %d bytes in %d records, %d direct; want %d bytes (%d written) in %d records, 0 direct",
					st.BytesRead, st.BlocksRead, st.DirectReads, reads, st.BytesWritten, 2*n)
			}

			// One tree-parallel worker claims the ready front earliest in
			// the walk, which is the walk itself: it stays on the stream.
			x, err = parmf.NewTreeSolver(fs, tree, a.Kind, 1, dense.KernelDefault).SolveOriginalMulti(b, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("tree solve: x[%d] = %v from the file, %v in core", i, x[i], want[i])
				}
			}
			tr := fs.Stats()
			if got := tr.BytesRead - st.BytesRead; got != reads || tr.DirectReads != 0 {
				t.Errorf("one-worker tree solve read %d bytes, %d direct; want %d bytes, 0 direct", got, tr.DirectReads, reads)
			}

			for ni := range tree.Nodes {
				if _, err := fetchNode(fs, ni); err != nil {
					t.Fatal(err)
				}
			}
			after := fs.Stats()
			if got, records := after.DirectReads, n*int64(front.Parts(a.Kind)); got != records {
				t.Errorf("%d direct reads, want one per record (%d)", got, records)
			}
			if got := after.BytesRead - tr.BytesRead; got != st.BytesWritten {
				t.Errorf("direct reads of every record read %d bytes, want %d", got, st.BytesWritten)
			}
		})
	}
}

// TestWrongPartRejected: the part word tells a node's L and U records
// apart although they have one shape. An intact U record does not decode
// as L, and a store whose L record for a node holds that node's U record
// fails the Fetch with a decode error naming the node and both parts,
// without retrying.
func TestWrongPartRejected(t *testing.T) {
	rec := make([]float64, 6+recordOverhead)
	for i := range payload(rec) {
		payload(rec)[i] = float64(i + 1)
	}
	sealFlat(rec, header{npiv: 2, nrows: 3, part: front.PartU})
	if _, _, err := decodeRecord(rec, front.PartU); err != nil {
		t.Fatalf("intact U record: %v", err)
	}
	_, _, err := decodeRecord(rec, front.PartL)
	if err == nil || !strings.Contains(err.Error(), "holds part U, want part L") {
		t.Fatalf("U record decoded as L: %v", err)
	}

	tree := layoutTree(sparse.Unsymmetric)
	s, _ := boundStore(t, Options{Dir: t.TempDir()}, tree, 10)
	rl, ru := s.recOf(2, front.PartL), s.recOf(2, front.PartU)
	raw := make([]byte, ru.size)
	if _, err := s.file.ReadAt(raw, ru.off); err != nil {
		t.Fatal(err)
	}
	if _, err := s.file.WriteAt(raw, rl.off); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(2, front.PartU); err != nil {
		t.Fatalf("the U record itself: %v", err)
	}
	s.Release(2, front.PartU)
	_, err = s.Fetch(2, front.PartL)
	for _, want := range []string{"decode (node 2)", "holds part U, want part L"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Fetch of a U record at node 2's L offset: %v, want an error with %q", err, want)
		}
	}
	if st := s.Stats(); st.Retries != 0 {
		t.Errorf("%d retries for a record of the wrong part, want 0", st.Retries)
	}
}
