package parmf

import (
	"testing"

	"repro/internal/assembly"
	"repro/internal/memory"
	"repro/internal/order"
	"repro/internal/sparse"
)

// TestSelectLockedZeroAllocs pins the claim path at zero allocations: the
// task selection runs under the pool lock on every claim, with the plan's
// task info, and must not allocate whether the worker waits or is forced.
func TestSelectLockedZeroAllocs(t *testing.T) {
	tree, _ := assembly.Analyze(sparse.Grid3D(5, 5, 5), assembly.DefaultOptions(order.AMD))
	pl, err := buildPlan(tree, nil, assembly.SequentialPeaks(tree))
	if err != nil {
		t.Fatal(err)
	}
	st := &state{}
	for i := range tree.Nodes {
		st.pool.Push(i)
	}
	w := worker{cfg: Config{Workers: 2, PeakBound: 1}, st: st, pl: pl,
		tracker: memory.NewSafeTracker(2)}
	// A stacked block above the bound: no task fits, so every selection
	// scans the whole pool.
	w.tracker.PushCB(0, 1000)

	st.inFlight = 1
	var task int
	var wait bool
	if allocs := testing.AllocsPerRun(100, func() { task, wait = w.selectLocked() }); allocs != 0 {
		t.Errorf("waiting selection allocates %.1f times per claim", allocs)
	}
	if task != -1 || !wait {
		t.Errorf("selection with work in flight = (%d, %v), want a wait", task, wait)
	}

	st.inFlight = 0
	top := st.pool.At(0)
	allocs := testing.AllocsPerRun(100, func() {
		task, wait = w.selectLocked()
		st.pool.Push(task) // the forced pick is the top: the pool is restored
	})
	if allocs != 0 {
		t.Errorf("forced selection allocates %.1f times per claim", allocs)
	}
	if task != top || wait || st.stats.Forced == 0 || st.stats.Deviations != 0 {
		t.Errorf("forced selection took %d (wait %v, stats %+v), want the top %d",
			task, wait, st.stats.ScheduleStats, top)
	}
}
