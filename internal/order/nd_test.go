package order

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// TestNestedDissectionAllocations bounds the bytes one nested-dissection
// run allocates on the reduced ULTRASOUND3 by a small multiple of the
// graph's adjacency size. The dissection works on one scratch for the
// whole recursion, so its allocation is linear in the graph: about 8x
// 8*len(g.Adj) here and on the full-scale matrix (scratch, leaf
// subgraphs, minimum-degree state, bisection parts). A return of an O(N)
// allocation per subproblem (per bisection, per leaf or per BFS)
// multiplies it by the number of subproblems — 173x when BFS, Bisect and
// Subgraph still allocated per call — and fails this bound.
func TestNestedDissectionAllocations(t *testing.T) {
	pb, err := workload.ByName(workload.SmallSuite(), "ULTRASOUND3")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromMatrix(pb.Matrix())
	adjBytes := uint64(8 * len(g.Adj))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	perm := NestedDissection(g, DefaultNDOptions())
	runtime.ReadMemStats(&m1)
	if !IsPermutation(perm, g.N) {
		t.Fatal("not a permutation")
	}
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("N=%d, 8*len(Adj)=%d B, allocated %d B (%.2fx)", g.N, adjBytes, got, float64(got)/float64(adjBytes))
	const maxRatio = 12
	if got > maxRatio*adjBytes {
		t.Errorf("NestedDissection allocated %d B, more than %d x 8*len(g.Adj) = %d B", got, maxRatio, maxRatio*adjBytes)
	}
}
