package order

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// TestMDHeapPopsMinimumOfLiveKeys drives the indexed heap with random
// inserts, rescores (up and down) and removals, and checks every pop
// against the minimum (score, v) over the live variables.
func TestMDHeapPopsMinimumOfLiveKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(60)
		h := newMDHeap(n)
		live := map[int]int64{}
		for step := 0; step < 400; step++ {
			v := rng.Intn(n)
			switch op := rng.Intn(4); {
			case op < 2:
				s := int64(rng.Intn(8)) // few distinct scores: many ties
				h.set(v, s)
				live[v] = s
			case op == 2:
				h.remove(v)
				delete(live, v)
			default:
				want := -1
				for u, s := range live {
					if want < 0 || s < live[want] || s == live[want] && u < want {
						want = u
					}
				}
				if got := h.pop(); got != want {
					t.Fatalf("round %d step %d: pop %d, want %d", round, step, got, want)
				}
				delete(live, want)
			}
			if len(h.items) != len(live) {
				t.Fatalf("round %d step %d: heap holds %d, %d live", round, step, len(h.items), len(live))
			}
		}
	}
}

// mdGraphs returns the oracle cases: meshes, overlapping cliques, dense
// rows, disconnected pieces and isolated vertices, down to n = 1.
func mdGraphs() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(28))
	gs := map[string]*graph.Graph{
		"n1":     graph.FromMatrix(sparse.Grid2D(1, 1)),
		"path":   graph.FromMatrix(sparse.Band(40, 1)),
		"grid2d": graph.FromMatrix(sparse.Grid2D(17, 13)),
		"grid3d": graph.FromMatrix(sparse.Grid3D(7, 6, 5)),
		"band":   graph.FromMatrix(sparse.Band(120, 5)),
	}
	// Overlapping cliques, then the same plus a few dense rows, plus
	// disconnected pieces and isolated vertices.
	for _, c := range []struct {
		name                  string
		n, cliques, size, den int
		pieces, isolated      int
	}{
		{"cliques", 150, 30, 8, 0, 1, 0},
		{"cliques+dense", 200, 40, 6, 3, 1, 0},
		{"pieces", 240, 30, 5, 2, 4, 0},
		{"isolated", 90, 12, 6, 1, 1, 15},
		{"mixed", 400, 90, 7, 4, 3, 10},
	} {
		gs[c.name] = randomMDGraph(rng, c.n, c.cliques, c.size, c.den, c.pieces, c.isolated)
	}
	for k := 0; k < 20; k++ {
		n := 2 + rng.Intn(120)
		gs[fmt.Sprintf("random%d", k)] = randomMDGraph(rng, n, 1+rng.Intn(n), 2+rng.Intn(6),
			rng.Intn(3), 1+rng.Intn(3), rng.Intn(5))
	}
	return gs
}

// randomMDGraph builds a symmetric pattern on n vertices: the first
// isolated vertices stay edge-free, the rest split into pieces, and each
// piece gets random cliques of up to size vertices and dense rows joined
// to about half of their piece.
func randomMDGraph(rng *rand.Rand, n, cliques, size, dense, pieces, isolated int) *graph.Graph {
	b := sparse.NewBuilder(n, sparse.Symmetric)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	edge := func(i, j int) {
		if i != j {
			b.Add(max(i, j), min(i, j), 1)
		}
	}
	rest := n - isolated
	if rest <= 0 {
		return graph.FromMatrix(b.Build())
	}
	pieces = min(pieces, rest)
	for p := 0; p < pieces; p++ {
		lo := isolated + p*rest/pieces
		hi := isolated + (p+1)*rest/pieces
		span := hi - lo
		for c := 0; c < cliques/pieces+1; c++ {
			k := 1 + rng.Intn(size)
			vs := make([]int, k)
			for x := range vs {
				vs[x] = lo + rng.Intn(span)
			}
			for x := range vs {
				for y := x + 1; y < len(vs); y++ {
					edge(vs[x], vs[y])
				}
			}
		}
		for d := 0; d < dense; d++ {
			r := lo + rng.Intn(span)
			for j := lo; j < hi; j++ {
				if rng.Intn(2) == 0 {
					edge(r, j)
				}
			}
		}
	}
	return graph.FromMatrix(b.Build())
}

// TestMinimumDegreeMatchesReference requires the engine's permutations to
// equal the reference engine's, bit for bit, under both scores.
func TestMinimumDegreeMatchesReference(t *testing.T) {
	for name, g := range mdGraphs() {
		for _, sc := range []struct {
			name  string
			score ScoreFunc
		}{{"AMD", ScoreAMD}, {"AMF", ScoreAMF}} {
			got := MinimumDegree(g, sc.score)
			want := refMinimumDegree(g, sc.score.Fn)
			if !slices.Equal(got, want) {
				t.Errorf("%s/%s: permutation differs from the reference", name, sc.name)
			}
		}
	}
}

// TestMinimumDegreeMarkOverflow starts the visit-stamp counter at every
// distance below math.MaxInt32 that a run's stamps span, so the stamps
// are cleared once at each possible point of the run, mid-pivot
// included; the permutation must not change.
func TestMinimumDegreeMarkOverflow(t *testing.T) {
	gs := map[string]*graph.Graph{
		"grid2d":  graph.FromMatrix(sparse.Grid2D(9, 8)),
		"cliques": randomMDGraph(rand.New(rand.NewSource(5)), 60, 15, 7, 2, 2, 3),
	}
	for name, g := range gs {
		for _, sc := range []struct {
			name  string
			score ScoreFunc
		}{{"AMD", ScoreAMD}, {"AMF", ScoreAMF}} {
			want := refMinimumDegree(g, sc.score.Fn)
			full := newMDState(g, sc.score)
			full.run()
			for back := int32(0); back < full.curMark; back++ {
				s := newMDState(g, sc.score)
				s.curMark = math.MaxInt32 - back
				got := s.run()
				if s.curMark >= math.MaxInt32-back {
					t.Fatalf("%s/%s: counter did not wrap from %d below the limit", name, sc.name, back)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%s: stamps cleared %d stamps before the limit changed the permutation", name, sc.name, back)
				}
			}
		}
	}
}

// fuzzGraph turns bytes into a small symmetric graph: the first byte sets
// the order n, and each later pair (a, b) adds the edge a–b or, when a's
// top bit is set, a clique on b%8+2 consecutive vertices from a, so that
// supervariables are easy to reach.
func fuzzGraph(data []byte) *graph.Graph {
	n := 1
	if len(data) > 0 {
		n += int(data[0]) % 48
		data = data[1:]
	}
	b := sparse.NewBuilder(n, sparse.Symmetric)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	edge := func(i, j int) {
		if i != j {
			b.Add(max(i, j), min(i, j), 1)
		}
	}
	for ; len(data) >= 2; data = data[2:] {
		x, y := int(data[0]), int(data[1])
		if x < 0x80 {
			edge(x%n, y%n)
			continue
		}
		k := y%8 + 2
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				edge((x+u)%n, (x+v)%n)
			}
		}
	}
	return graph.FromMatrix(b.Build())
}

// FuzzMinimumDegree requires the engine to reproduce the reference
// engine's permutation under both scores on arbitrary small graphs.
func FuzzMinimumDegree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		for _, sc := range []ScoreFunc{ScoreAMD, ScoreAMF} {
			if got, want := MinimumDegree(g, sc), refMinimumDegree(g, sc.Fn); !slices.Equal(got, want) {
				t.Fatalf("n=%d: permutation %v, reference %v", g.N, got, want)
			}
		}
	})
}
