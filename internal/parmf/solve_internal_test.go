package parmf

import (
	"testing"

	"repro/internal/assembly"
	"repro/internal/order"
	"repro/internal/sparse"
)

// TestPrepareAllocs pins the tree solver's setup: the walk orders and the
// forward graph's flat successor lists take a fixed number of
// allocations, on a tree of a handful of fronts and on one of hundreds.
func TestPrepareAllocs(t *testing.T) {
	var fronts []int
	var allocs []float64
	for _, a := range []*sparse.CSC{sparse.Grid2D(6, 6), sparse.Grid3D(12, 12, 12)} {
		tree, _ := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
		fronts = append(fronts, tree.Len())
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			s := &TreeSolver{tree: tree}
			s.prepare()
		}))
	}
	if fronts[0] >= fronts[1] || allocs[0] != allocs[1] {
		t.Errorf("prepare made %v allocations on trees of %v fronts, want the same count", allocs, fronts)
	}
	t.Logf("%v allocations on trees of %v fronts", allocs, fronts)
}
