package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// quickCfg bounds the case count so the property suite stays fast.
func quickCfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

// boundedInputs derives a well-formed slave-selection instance from
// arbitrary fuzz values.
func boundedInputs(nprocRaw, ncbRaw uint16, memsRaw []uint32) (cands []int, mems []int64, nfront, ncb int) {
	p := 2 + int(nprocRaw)%63 // 2..64 processors
	ncb = 1 + int(ncbRaw)%5000
	nfront = ncb + 1 + int(ncbRaw)%100
	mems = make([]int64, p)
	for i := range mems {
		if len(memsRaw) > 0 {
			mems[i] = int64(memsRaw[i%len(memsRaw)] % 10_000_000)
		}
	}
	for q := 1; q < p; q++ {
		cands = append(cands, q)
	}
	return cands, mems, nfront, ncb
}

// TestAlgorithm1PropertyConservation: Algorithm 1 distributes exactly the
// CB rows it was given, to distinct candidate processors, never to the
// master, with every allocation strictly positive.
func TestAlgorithm1PropertyConservation(t *testing.T) {
	prop := func(nprocRaw, ncbRaw uint16, memsRaw []uint32) bool {
		cands, mems, nfront, ncb := boundedInputs(nprocRaw, ncbRaw, memsRaw)
		allocs := SelectSlavesMemory(cands, func(q int) int64 { return mems[q] }, nfront, ncb, 0)
		if TotalRows(allocs) != ncb {
			t.Logf("rows %d != ncb %d", TotalRows(allocs), ncb)
			return false
		}
		seen := map[int]bool{0: true} // master is proc 0
		for _, a := range allocs {
			if a.Rows <= 0 || seen[a.Proc] {
				return false
			}
			seen[a.Proc] = true
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(1)); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithm1PropertyPrefersLowMemory: every chosen processor has a
// metric no larger than every unchosen candidate's metric (Algorithm 1
// sorts by memory and takes a prefix).
func TestAlgorithm1PropertyPrefersLowMemory(t *testing.T) {
	prop := func(nprocRaw, ncbRaw uint16, memsRaw []uint32) bool {
		cands, mems, nfront, ncb := boundedInputs(nprocRaw, ncbRaw, memsRaw)
		metric := func(q int) int64 { return mems[q] }
		allocs := SelectSlavesMemory(cands, metric, nfront, ncb, 0)
		chosen := map[int]bool{}
		var maxChosen int64 = -1
		for _, a := range allocs {
			chosen[a.Proc] = true
			if m := metric(a.Proc); m > maxChosen {
				maxChosen = m
			}
		}
		for _, q := range cands {
			if !chosen[q] && metric(q) < maxChosen {
				t.Logf("unchosen %d (mem %d) below chosen max %d", q, metric(q), maxChosen)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(2)); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithm1PropertyLevels: after the hypothetical allocation, the
// spread of the chosen processors' levels (metric + rows*nfront) is at
// most nfront + the equitable remainder step — i.e. the algorithm levels
// memory up to row granularity.
func TestAlgorithm1PropertyLevels(t *testing.T) {
	prop := func(nprocRaw, ncbRaw uint16, memsRaw []uint32) bool {
		cands, mems, nfront, ncb := boundedInputs(nprocRaw, ncbRaw, memsRaw)
		metric := func(q int) int64 { return mems[q] }
		allocs := SelectSlavesMemory(cands, metric, nfront, ncb, 0)
		if len(allocs) == 0 {
			return ncb == 0
		}
		// Levels after receiving the assigned rows.
		lo, hi := int64(1<<62), int64(-1<<62)
		for _, a := range allocs {
			lvl := metric(a.Proc) + int64(a.Rows)*int64(nfront)
			if lvl < lo {
				lo = lvl
			}
			if lvl > hi {
				hi = lvl
			}
		}
		// Unfilled chosen processors can be below, but the filled spread is
		// bounded by one row of granularity per equity round plus the
		// level-fill rounding (strictly: 2*nfront is a safe bound).
		return hi-lo <= 2*int64(nfront)+1
	}
	if err := quick.Check(prop, quickCfg(3)); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithm1PropertySurfaceOrPeakPreserving: either the paper's
// defining inequality holds (the deficit of the chosen set relative to
// its highest member stays within the front surface), or the
// peak-preserving extension kicked in — in which case no processor may
// end above the highest candidate's level by more than the rounding
// granularity.
func TestAlgorithm1PropertySurfaceOrPeakPreserving(t *testing.T) {
	prop := func(nprocRaw, ncbRaw uint16, memsRaw []uint32) bool {
		cands, mems, nfront, ncb := boundedInputs(nprocRaw, ncbRaw, memsRaw)
		metric := func(q int) int64 { return mems[q] }
		allocs := SelectSlavesMemory(cands, metric, nfront, ncb, 0)
		if len(allocs) <= 1 {
			return true
		}
		var hiChosen, hiAll int64
		for _, a := range allocs {
			if m := metric(a.Proc); m > hiChosen {
				hiChosen = m
			}
		}
		for _, q := range cands {
			if m := metric(q); m > hiAll {
				hiAll = m
			}
		}
		var deficit int64
		for _, a := range allocs {
			deficit += hiChosen - metric(a.Proc)
		}
		surface := int64(ncb) * int64(nfront)
		if deficit <= surface {
			return true
		}
		// Extended set: final levels must stay near or below the highest
		// candidate level (peak preservation), within rounding slack.
		for _, a := range allocs {
			lvl := metric(a.Proc) + int64(a.Rows)*int64(nfront)
			if lvl > hiAll+2*int64(nfront)+surface/int64(len(allocs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(4)); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadPropertyConservation: the baseline slave selection also
// conserves rows and never assigns to the master.
func TestWorkloadPropertyConservation(t *testing.T) {
	prop := func(nprocRaw, ncbRaw uint16, loadsRaw []uint32) bool {
		cands, loads64, _, ncb := boundedInputs(nprocRaw, ncbRaw, loadsRaw)
		masterLoad := int64(500_000)
		allocs := SelectSlavesWorkload(cands, masterLoad, loads64, ncb, 1_000_000, 2_000)
		if TotalRows(allocs) != ncb {
			return false
		}
		seen := map[int]bool{0: true}
		for _, a := range allocs {
			if a.Rows <= 0 || seen[a.Proc] {
				return false
			}
			seen[a.Proc] = true
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(5)); err != nil {
		t.Fatal(err)
	}
}

// TestPoolPropertyPopAtPreservesOthers: PopAt(k) removes exactly the k-th
// task from the top and keeps the relative order of the remaining tasks.
func TestPoolPropertyPopAtPreservesOthers(t *testing.T) {
	prop := func(itemsRaw []uint16, kRaw uint8) bool {
		var p Pool
		for _, v := range itemsRaw {
			p.Push(int(v))
		}
		if p.Empty() {
			return p.PopAt(0) == -1
		}
		before := p.Items()
		k := int(kRaw) % len(before)
		got := p.PopAt(k)
		if got != before[k] {
			return false
		}
		after := p.Items()
		want := append(append([]int{}, before[:k]...), before[k+1:]...)
		if len(after) != len(want) {
			return false
		}
		for i := range want {
			if after[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(6)); err != nil {
		t.Fatal(err)
	}
}

// TestSelectTaskPropertySafeOrSubtreeOrTop: Algorithm 2 returns either
// (a) a task that fits under the reference peak, (b) a subtree task, or
// (c) the top of the pool — never anything else; it never skips a
// *fitting* task for a later non-subtree one; and it flags exactly the
// picks over the bound, waiting only on a non-subtree one when allowed.
func TestSelectTaskPropertySafeOrSubtreeOrTop(t *testing.T) {
	prop := func(itemsRaw []uint16, cur, peak uint32, subMask uint8, canWait bool) bool {
		var p Pool
		for _, v := range itemsRaw {
			p.Push(int(v) % 1000)
		}
		if p.Empty() {
			return SelectTask(&p, TaskInfo{}, int64(cur), int64(peak), true, canWait) == Decision{K: -1}
		}
		info := TaskInfo{
			InSubtree: func(n int) bool { return n%int(subMask%7+2) == 0 },
			MemCost:   func(n int) int64 { return int64(n) * 100 },
		}
		d := SelectTask(&p, info, int64(cur), int64(peak), true, canWait)
		items := p.Items()
		k := d.K
		if k < 0 || k >= len(items) {
			return false
		}
		picked := items[k]
		fits := func(n int) bool { return info.MemCost(n)+int64(cur) <= int64(peak) }
		if d.Over == fits(picked) {
			return false
		}
		if d.Wait != (d.Over && canWait && !info.InSubtree(picked)) {
			return false
		}
		if k == 0 {
			return true // top is always legal (rules 1 and fallback)
		}
		// A non-top pick must fit or be a subtree task...
		if !fits(picked) && !info.InSubtree(picked) {
			return false
		}
		// ...and nothing above it may have been a fitting or subtree task
		// (the scan takes the first qualifying one).
		for _, n := range items[:k] {
			if fits(n) || info.InSubtree(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(7)); err != nil {
		t.Fatal(err)
	}
}
