package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSelectSlavesMemoryLevelsMemory(t *testing.T) {
	// Figure 4 scenario: P1..P3 with increasing memory; the selection must
	// fill the least-loaded first, without exceeding the current peak.
	mem := []int64{0, 100, 400, 900} // proc 0 is the master
	metric := func(q int) int64 { return mem[q] }
	cands := []int{1, 2, 3}
	nfront := 10
	ncb := 50 // surface 500
	allocs := SelectSlavesMemory(cands, metric, nfront, ncb, 0)
	if TotalRows(allocs) != ncb {
		t.Fatalf("rows distributed %d, want %d", TotalRows(allocs), ncb)
	}
	got := map[int]int{}
	for _, a := range allocs {
		got[a.Proc] = a.Rows
	}
	// Level-fill behaviour: proc 1 (least loaded) gets the most rows.
	if got[1] <= got[2] && got[2] > 0 {
		t.Errorf("least-loaded proc should get most rows: %v", got)
	}
	// Proc 3 (900) should be excluded: filling up to its level would need
	// (900-100)+(900-400) = 1300 > surface 500.
	if got[3] != 0 {
		t.Errorf("proc 3 selected despite high memory: %v", got)
	}
}

func TestSelectSlavesMemoryBigSurfaceTakesEveryone(t *testing.T) {
	mem := []int64{0, 10, 20, 30}
	metric := func(q int) int64 { return mem[q] }
	allocs := SelectSlavesMemory([]int{1, 2, 3}, metric, 10, 1000, 0)
	if len(allocs) != 3 {
		t.Fatalf("want all 3 slaves, got %v", allocs)
	}
	if TotalRows(allocs) != 1000 {
		t.Fatalf("rows %d", TotalRows(allocs))
	}
}

func TestSelectSlavesMemoryPeakPreservation(t *testing.T) {
	// After allocation, no selected processor's memory (metric + rows *
	// nfront) should exceed max(level, fair share above level) — i.e. the
	// post-allocation memories of chosen procs should be nearly equal.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(15)
		mem := make([]int64, p)
		for i := range mem {
			mem[i] = int64(rng.Intn(10000))
		}
		metric := func(q int) int64 { return mem[q] }
		cands := make([]int, 0, p-1)
		for q := 1; q < p; q++ {
			cands = append(cands, q)
		}
		nfront := 5 + rng.Intn(50)
		ncb := 1 + rng.Intn(nfront)
		allocs := SelectSlavesMemory(cands, metric, nfront, ncb, 0)
		if TotalRows(allocs) != ncb {
			return false
		}
		if len(allocs) == 0 {
			return false
		}
		// Post-allocation spread of chosen procs <= nfront * ceil share + max
		// initial gap tolerance: all chosen procs end within one row-block
		// of each other is too strict under integer rounding; check instead
		// that the allocation never gives a higher-memory proc more rows
		// than a lower-memory proc by more than the rounding unit.
		for i := 0; i < len(allocs); i++ {
			for j := i + 1; j < len(allocs); j++ {
				mi, mj := metric(allocs[i].Proc), metric(allocs[j].Proc)
				ri, rj := allocs[i].Rows, allocs[j].Rows
				if mi < mj && rj > ri+1+int((mj-mi))/nfront {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectSlavesMemoryNoCandidates(t *testing.T) {
	if got := SelectSlavesMemory(nil, func(int) int64 { return 0 }, 10, 5, 0); got != nil {
		t.Errorf("expected nil, got %v", got)
	}
	if got := SelectSlavesMemory([]int{1}, func(int) int64 { return 0 }, 10, 0, 0); got != nil {
		t.Errorf("expected nil for 0 rows, got %v", got)
	}
}

func TestSelectSlavesWorkloadPrefersUnderloaded(t *testing.T) {
	loads := []int64{500, 100, 900, 50}
	allocs := SelectSlavesWorkload([]int{1, 2, 3}, loads[0], loads, 20, 1000, 100)
	for _, a := range allocs {
		if a.Proc == 2 {
			t.Errorf("overloaded proc 2 selected: %v", allocs)
		}
	}
	if TotalRows(allocs) != 20 {
		t.Errorf("rows %d, want 20", TotalRows(allocs))
	}
}

func TestSelectSlavesWorkloadFallback(t *testing.T) {
	// All candidates more loaded than the master: still pick one (least).
	loads := []int64{10, 500, 300}
	allocs := SelectSlavesWorkload([]int{1, 2}, loads[0], loads, 8, 100, 10)
	if len(allocs) != 1 || allocs[0].Proc != 2 {
		t.Fatalf("want fallback to proc 2, got %v", allocs)
	}
	if allocs[0].Rows != 8 {
		t.Errorf("rows %d", allocs[0].Rows)
	}
}

func TestSelectSlavesWorkloadBalancesWithMaster(t *testing.T) {
	// Slave work ~ 4x master work: want ~4 slaves.
	loads := []int64{1000, 1, 2, 3, 4, 5, 6}
	allocs := SelectSlavesWorkload([]int{1, 2, 3, 4, 5, 6}, loads[0], loads,
		40, 1000, 100) // total slave flops 4000, master 1000
	if len(allocs) != 4 {
		t.Errorf("want 4 slaves, got %d (%v)", len(allocs), allocs)
	}
}

func TestViewMetric(t *testing.T) {
	v := NewView(3)
	v.AddMem(1, 100)
	v.SetSubtree(1, 150) // projected level above the instantaneous memory
	v.SetIncoming(1, 25)
	if got := v.Metric(1, false, false); got != 100 {
		t.Errorf("bare metric = %d, want 100", got)
	}
	if got := v.Metric(1, true, false); got != 150 {
		t.Errorf("subtree metric = %d, want max(100,150)=150", got)
	}
	if got := v.Metric(1, true, true); got != 175 {
		t.Errorf("full metric = %d, want 150+25=175", got)
	}
	// A projected level below the instantaneous memory must not lower
	// the metric: max, not replacement.
	v.SetSubtree(1, 40)
	if got := v.Metric(1, true, false); got != 100 {
		t.Errorf("metric with low projection = %d, want 100", got)
	}
	v.AddMem(1, -40)
	if got := v.Metric(1, false, false); got != 60 {
		t.Errorf("after decrement = %d, want 60", got)
	}
}

// Items returns the tasks from top to bottom (a copy).
func (p *Pool) Items() []int {
	out := make([]int, len(p.items))
	for k := range p.items {
		out[k] = p.items[len(p.items)-1-k]
	}
	return out
}

func TestPoolStackSemantics(t *testing.T) {
	var p Pool
	p.Push(1)
	p.Push(2)
	p.Push(3)
	if p.At(0) != 3 {
		t.Fatalf("top %d", p.At(0))
	}
	if p.PopAt(0) != 3 || p.PopAt(0) != 2 || p.PopAt(0) != 1 {
		t.Fatal("LIFO order broken")
	}
	if p.PopAt(0) != -1 || p.At(0) != -1 {
		t.Fatal("empty pool sentinel")
	}
}

func TestPoolPopAt(t *testing.T) {
	var p Pool
	for i := 1; i <= 4; i++ {
		p.Push(i)
	}
	if got := p.PopAt(2); got != 2 { // top=4, depth2 = 2
		t.Fatalf("PopAt(2) = %d, want 2", got)
	}
	want := []int{4, 3, 1}
	got := p.Items()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after PopAt: %v, want %v", got, want)
		}
	}
	if p.PopAt(7) != -1 {
		t.Error("out-of-range PopAt should return -1")
	}
}

func TestSelectSlavesMemoryRowsConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(30)
		mem := make([]int64, p)
		for i := range mem {
			mem[i] = int64(rng.Intn(1 << 20))
		}
		cands := rng.Perm(p)[:1+rng.Intn(p-1)]
		nfront := 1 + rng.Intn(200)
		ncb := rng.Intn(nfront + 1)
		allocs := SelectSlavesMemory(cands, func(q int) int64 { return mem[q] }, nfront, ncb, 0)
		if ncb == 0 {
			return allocs == nil
		}
		seen := map[int]bool{}
		for _, a := range allocs {
			if a.Rows <= 0 || seen[a.Proc] {
				return false
			}
			seen[a.Proc] = true
		}
		return TotalRows(allocs) == ncb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceRowsTriangular(t *testing.T) {
	// Triangular per-row cost (row t costs t+1): equal-work blocks must
	// have decreasing row counts — Figure 3's irregular symmetric
	// blocking.
	prefix := func(tr int) int64 { n := int64(tr); return n * (n + 1) / 2 }
	in := []Allocation{{Proc: 1, Rows: 30}, {Proc: 2, Rows: 30}, {Proc: 3, Rows: 30}}
	out := RebalanceRows(in, 90, prefix)
	if TotalRows(out) != 90 {
		t.Fatalf("rows not conserved: %v", out)
	}
	if len(out) != 3 || out[0].Proc != 1 || out[2].Proc != 3 {
		t.Fatalf("processors changed: %v", out)
	}
	if !(out[0].Rows > out[1].Rows && out[1].Rows > out[2].Rows) {
		t.Errorf("blocks not decreasing under triangular cost: %v", out)
	}
	// Cost balance: each block within 25%% of the fair share.
	fair := prefix(90) / 3
	lo := 0
	for _, a := range out {
		c := prefix(lo+a.Rows) - prefix(lo)
		lo += a.Rows
		if c < fair*3/4 || c > fair*5/4 {
			t.Errorf("block cost %d far from fair %d (%v)", c, fair, out)
		}
	}
}

func TestRebalanceRowsUniformIsNoopShape(t *testing.T) {
	// Uniform cost: rebalancing yields (nearly) equal row counts.
	prefix := func(tr int) int64 { return int64(tr) * 10 }
	in := []Allocation{{Proc: 5, Rows: 50}, {Proc: 6, Rows: 10}}
	out := RebalanceRows(in, 60, prefix)
	if TotalRows(out) != 60 {
		t.Fatalf("rows not conserved: %v", out)
	}
	if d := out[0].Rows - out[1].Rows; d < -1 || d > 1 {
		t.Errorf("uniform cost should split evenly: %v", out)
	}
	// Degenerate inputs pass through.
	if got := RebalanceRows(in[:1], 60, prefix); got[0].Rows != 50 {
		t.Errorf("single slave modified: %v", got)
	}
	if got := RebalanceRows(in, 1, prefix); TotalRows(got) != 60 {
		t.Errorf("ncb<k case changed totals: %v", got)
	}
}

func TestRebalanceRowsEveryoneKeepsARow(t *testing.T) {
	// Extremely skewed cost: the last rows dwarf everything, yet every
	// slave must keep at least one row.
	prefix := func(tr int) int64 { n := int64(tr); return n * n * n * n }
	in := []Allocation{{Proc: 0, Rows: 4}, {Proc: 1, Rows: 4}, {Proc: 2, Rows: 4}}
	out := RebalanceRows(in, 12, prefix)
	if TotalRows(out) != 12 {
		t.Fatalf("rows not conserved: %v", out)
	}
	for _, a := range out {
		if a.Rows < 1 {
			t.Fatalf("slave starved: %v", out)
		}
	}
}

func TestSelectSlavesHybridFiltersByLoad(t *testing.T) {
	// Proc 3 has the least memory but is more loaded than the master:
	// the hybrid must exclude it and fall back to the remaining
	// candidates, while the pure memory selection would take it.
	mem := []int64{0, 500, 600, 10}
	loads := []int64{1000, 100, 200, 5000}
	metric := func(q int) int64 { return mem[q] }
	cands := []int{1, 2, 3}

	pure := SelectSlavesMemory(cands, metric, 10, 20, 0)
	foundIn := func(allocs []Allocation, proc int) bool {
		for _, a := range allocs {
			if a.Proc == proc {
				return true
			}
		}
		return false
	}
	if !foundIn(pure, 3) {
		t.Fatalf("memory selection should pick low-memory proc 3: %v", pure)
	}
	hyb := SelectSlavesHybrid(cands, metric, loads[0], loads, 10, 20, 0)
	if foundIn(hyb, 3) {
		t.Errorf("hybrid selected overloaded proc 3: %v", hyb)
	}
	if TotalRows(hyb) != 20 {
		t.Errorf("rows not conserved: %v", hyb)
	}
}

func TestSelectSlavesHybridFallback(t *testing.T) {
	// Every candidate more loaded than the master: the workload filter
	// empties, and the hybrid must fall back to memory-only selection
	// over all candidates rather than selecting nobody.
	mem := []int64{0, 50, 10}
	loads := []int64{1, 500, 300}
	metric := func(q int) int64 { return mem[q] }
	hyb := SelectSlavesHybrid([]int{1, 2}, metric, loads[0], loads, 10, 8, 0)
	if TotalRows(hyb) != 8 {
		t.Fatalf("fallback failed: %v", hyb)
	}
}

func TestPoolAt(t *testing.T) {
	var p Pool
	for i := 1; i <= 3; i++ {
		p.Push(i)
	}
	for k, want := range []int{3, 2, 1} {
		if got := p.At(k); got != want {
			t.Errorf("At(%d) = %d, want %d", k, got, want)
		}
	}
	if p.At(3) != -1 || p.At(-1) != -1 {
		t.Error("out-of-range At not -1")
	}
}
