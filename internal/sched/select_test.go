package sched

import (
	"math/rand"
	"testing"
)

// selectMemoryAwareOld is the simulator's task selection before
// SelectTask, kept as an oracle: Algorithm 2 with no wait, falling back
// to the top; -1 for an empty pool.
func selectMemoryAwareOld(p *Pool, info TaskInfo, currentMem, observedPeak int64) int {
	if p.Empty() {
		return -1
	}
	if info.InSubtree(p.At(0)) {
		return 0
	}
	for k := range len(p.items) {
		node := p.items[len(p.items)-1-k]
		if info.MemCost(node)+currentMem <= observedPeak {
			return k
		}
		if info.InSubtree(node) {
			return k
		}
	}
	return 0
}

// oldClaim is what the executor's claim rule before SelectTask did: the
// depth it popped (-1 when the worker waited) and the counters it bumped.
type oldClaim struct {
	k                         int
	over                      bool
	deviations, waits, forced int64
}

// parmfSelectOld is the executor's claim rule before SelectTask, kept as
// an oracle: its own depth-first branch, the fast path that skips the scan
// when the top is subtree work or fits, Algorithm 2's scan, the gate that
// waits on an over-bound non-subtree task while work is in flight, and the
// counter updates (an empty pool counted as a wait).
func parmfSelectOld(p *Pool, info TaskInfo, myStack, bound int64, memoryAware, inFlight bool) oldClaim {
	if p.Empty() {
		return oldClaim{k: -1, waits: 1}
	}
	if !memoryAware {
		return oldClaim{}
	}
	top := p.At(0)
	k := 0
	if !info.InSubtree(top) && myStack+info.MemCost(top) > bound {
		k = selectMemoryAwareOld(p, info, myStack, bound)
	}
	task := p.At(k)
	over := myStack+info.MemCost(task) > bound
	if over && !info.InSubtree(task) && inFlight {
		return oldClaim{k: -1, over: true, waits: 1}
	}
	c := oldClaim{k: k, over: over}
	if k > 0 {
		c.deviations = 1
	}
	if over {
		c.forced = 1
	}
	return c
}

// TestSelectTaskMatchesOldRules: over random pools, costs, subtree flags,
// memories, references, wait permissions and policies, SelectTask gives
// each caller what its own rule gave — the simulator's index, and the
// executor's index, wait and over-bound flag with the same counters. The
// one intended difference is the executor's empty pool, which is no
// longer a wait.
func TestSelectTaskMatchesOldRules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const pools = 20000
	for it := range pools {
		n := rng.Intn(12)
		cost := make([]int64, n)
		sub := make([]bool, n)
		var p Pool
		for i := range n {
			cost[i] = rng.Int63n(1000)
			sub[i] = rng.Intn(4) == 0
			p.Push(i)
		}
		info := TaskInfo{
			InSubtree: func(i int) bool { return sub[i] },
			MemCost:   func(i int) int64 { return cost[i] },
		}
		cur, ref := rng.Int63n(1000), rng.Int63n(2000)
		memoryAware, canWait := rng.Intn(4) != 0, rng.Intn(2) == 0
		before := p.Items()

		// The simulator never waits.
		d := SelectTask(&p, info, cur, ref, memoryAware, false)
		want := 0
		if memoryAware {
			want = selectMemoryAwareOld(&p, info, cur, ref)
		} else if n == 0 {
			want = -1
		}
		if d.K != want || d.Wait {
			t.Fatalf("pool %d: simulator %+v, old rule picked %d", it, d, want)
		}

		d = SelectTask(&p, info, cur, ref, memoryAware, canWait)
		old := parmfSelectOld(&p, info, cur, ref, memoryAware, canWait)
		if n == 0 {
			if d != (Decision{K: -1}) {
				t.Fatalf("empty pool %d: %+v", it, d)
			}
			continue
		}
		got := oldClaim{k: d.K, over: d.Over}
		switch {
		case d.Wait:
			got.k, got.waits = -1, 1
		default:
			if d.K > 0 {
				got.deviations = 1
			}
			if d.Over {
				got.forced = 1
			}
		}
		if got != old {
			t.Fatalf("pool %d (cur %d, ref %d, memory %v, wait %v): executor %+v from %+v, old rule %+v",
				it, cur, ref, memoryAware, canWait, got, d, old)
		}
		for k, v := range p.Items() {
			if v != before[k] {
				t.Fatalf("pool %d mutated", it)
			}
		}
	}
}

// algorithm2Cases are worked SelectTask decisions, each under the
// TestAlgorithm2 function its group names. Pools list tasks bottom to
// top; a task costs 100 per unit of its id unless cost says otherwise.
var algorithm2Cases = []struct {
	group, name string
	pool        []int
	subtree     int // the one subtree task, or -1
	cost        func(int) int64
	cur, ref    int64
	depthFirst  bool
	canWait     bool
	want        Decision
}{
	// Even with zero headroom, the subtree top is taken unconditionally.
	{group: "SubtreeTopPriority", name: "over the bound", pool: []int{10, 5}, subtree: 5,
		cur: 1 << 40, want: Decision{Over: true, Reason: Subtree}},
	{group: "SubtreeTopPriority", name: "over the bound, may wait", pool: []int{10, 5}, subtree: 5,
		cur: 1 << 40, canWait: true, want: Decision{Over: true, Reason: Subtree}},
	{group: "SubtreeTopPriority", name: "fits", pool: []int{10, 5}, subtree: 5,
		ref: 1000, want: Decision{Reason: Subtree}},
	// Figure 8: the top of the pool is a huge type-2 master, below it a
	// small upper-tree task that fits; Algorithm 2 skips the big one.
	{group: "DelaysLargeNode", name: "figure 8", pool: []int{1, 9}, subtree: -1, cost: figure8Cost,
		cur: 500, ref: 1000, want: Decision{K: 1, Reason: Deviated}},
	{group: "DelaysLargeNode", name: "depth-first takes the top", pool: []int{1, 9}, subtree: -1,
		cost: figure8Cost, cur: 500, ref: 1000, depthFirst: true, want: Decision{Reason: TopFits}},
	// No headroom: the scan stops at the subtree task at depth 2.
	{group: "PrefersSubtreeWhenNothingFits", name: "subtree at the bottom", pool: []int{7, 8, 9}, subtree: 7,
		cur: 10000, want: Decision{K: 2, Over: true, Reason: Subtree}},
	{group: "PrefersSubtreeWhenNothingFits", name: "a fitting task above it first", pool: []int{7, 1, 9}, subtree: 7,
		ref: 500, want: Decision{K: 1, Reason: Deviated}},
	{group: "FallbackTop", name: "forced", pool: []int{8, 9}, subtree: -1, cost: func(int) int64 { return 1 << 30 },
		cur: 1 << 31, want: Decision{Over: true, Reason: Forced}},
	{group: "FallbackTop", name: "waits", pool: []int{8, 9}, subtree: -1, cost: func(int) int64 { return 1 << 30 },
		cur: 1 << 31, canWait: true, want: Decision{Wait: true, Over: true, Reason: Waited}},
	{group: "FallbackTop", name: "empty pool", subtree: -1, canWait: true, want: Decision{K: -1}},
	{group: "FallbackTop", name: "empty pool, depth-first", subtree: -1, depthFirst: true, want: Decision{K: -1}},
	{group: "TakesTopWhenItFits", name: "headroom", pool: []int{1, 2}, subtree: -1, cost: func(int) int64 { return 10 },
		ref: 1000, want: Decision{Reason: TopFits}},
	{group: "TakesTopWhenItFits", name: "exactly at the bound", pool: []int{1, 2}, subtree: -1,
		cost: func(int) int64 { return 10 }, cur: 990, ref: 1000, canWait: true, want: Decision{Reason: TopFits}},
}

func figure8Cost(n int) int64 {
	if n == 9 {
		return 9000
	}
	return 100
}

// runAlgorithm2 checks the table's cases of one group.
func runAlgorithm2(t *testing.T, group string) {
	t.Helper()
	ran := 0
	for _, c := range algorithm2Cases {
		if c.group != group {
			continue
		}
		ran++
		var p Pool
		for _, n := range c.pool {
			p.Push(n)
		}
		cost := c.cost
		if cost == nil {
			cost = func(n int) int64 { return int64(n) * 100 }
		}
		info := TaskInfo{InSubtree: func(n int) bool { return n == c.subtree }, MemCost: cost}
		if d := SelectTask(&p, info, c.cur, c.ref, !c.depthFirst, c.canWait); d != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, d, c.want)
		}
		if p.Len() != len(c.pool) || (p.Len() > 0 && p.At(0) != c.pool[len(c.pool)-1]) {
			t.Errorf("%s: pool mutated", c.name)
		}
	}
	if ran == 0 {
		t.Fatalf("no case in group %s", group)
	}
}

func TestAlgorithm2SubtreeTopPriority(t *testing.T) { runAlgorithm2(t, "SubtreeTopPriority") }

func TestAlgorithm2DelaysLargeNode(t *testing.T) { runAlgorithm2(t, "DelaysLargeNode") }

func TestAlgorithm2PrefersSubtreeWhenNothingFits(t *testing.T) {
	runAlgorithm2(t, "PrefersSubtreeWhenNothingFits")
}

func TestAlgorithm2FallbackTop(t *testing.T) { runAlgorithm2(t, "FallbackTop") }

func TestAlgorithm2TakesTopWhenItFits(t *testing.T) { runAlgorithm2(t, "TakesTopWhenItFits") }

// TestSelectTaskZeroAllocs pins the task selection at zero allocations:
// it scans the pool in place on every activation (under the executor's
// pool lock in parmf), so it must never copy the pool.
func TestSelectTaskZeroAllocs(t *testing.T) {
	var p Pool
	for n := 0; n < 64; n++ {
		p.Push(n)
	}
	info := TaskInfo{
		InSubtree: func(n int) bool { return n == 3 },
		MemCost:   func(n int) int64 { return int64(1000 - n) },
	}
	noSubtree := TaskInfo{InSubtree: func(int) bool { return false }, MemCost: info.MemCost}
	var d, w Decision
	allocs := testing.AllocsPerRun(100, func() {
		d = SelectTask(&p, info, 10, 100, true, true)      // scans down to node 3
		w = SelectTask(&p, noSubtree, 10, 100, true, true) // scans the whole pool
	})
	if allocs != 0 {
		t.Errorf("SelectTask allocates %.1f times per call", allocs/2)
	}
	if d.K != 60 || d.Reason != Subtree {
		t.Errorf("selected %+v, want depth 60 (node 3, the first subtree task)", d)
	}
	if !w.Wait {
		t.Errorf("full scan decided %+v, want a wait", w)
	}
}
