package sched

// Pool is the local pool of ready tasks of one processor (paper Figure 7).
// It is managed as a stack: newly ready tasks are pushed on top, and the
// default policy pops the top, which yields a depth-first traversal of the
// assembly tree. Algorithm 2 scans the stack for a memory-safe task
// instead.
type Pool struct {
	items []int // node ids; top is items[len-1]
}

// Push adds a ready task on top of the stack.
func (p *Pool) Push(node int) { p.items = append(p.items, node) }

// Len returns the number of ready tasks.
func (p *Pool) Len() int { return len(p.items) }

// Empty reports whether the pool has no tasks.
func (p *Pool) Empty() bool { return len(p.items) == 0 }

// At returns the task at depth k from the top (0 = top) without removing
// it (-1 if out of range).
func (p *Pool) At(k int) int {
	idx := len(p.items) - 1 - k
	if idx < 0 || idx >= len(p.items) {
		return -1
	}
	return p.items[idx]
}

// PopAt removes and returns the task at depth k from the top (0 = top),
// preserving the order of the others.
func (p *Pool) PopAt(k int) int {
	n := len(p.items)
	idx := n - 1 - k
	if idx < 0 || idx >= n {
		return -1
	}
	v := p.items[idx]
	p.items = append(p.items[:idx], p.items[idx+1:]...)
	return v
}

// TaskInfo provides the per-node facts Algorithm 2 needs.
type TaskInfo struct {
	// InSubtree reports whether the node belongs to a leaf subtree.
	InSubtree func(node int) bool
	// MemCost is the memory this task allocates on this processor when
	// activated (front entries for type 1, master part for type 2).
	MemCost func(node int) int64
}

// Reason names the branch of SelectTask that made a Decision.
type Reason uint8

const (
	TopFits  Reason = iota // the top task fits (depth-first: always, it has no bound)
	Subtree                // a leaf-subtree task, taken whatever its cost
	Deviated               // an off-top task fits
	Waited                 // nothing fits, and the caller may wait
	Forced                 // nothing fits, so the top goes over the bound
)

// Decision is the outcome of SelectTask.
type Decision struct {
	K      int  // pool depth (0 = top) of the chosen task; -1 for an empty pool
	Wait   bool // activate nothing now (Reason Waited)
	Over   bool // the chosen task takes memory above the reference peak
	Reason Reason
}

// SelectTask is the task selection from a processor's pool, one rule for
// the simulator and the executor. Depth-first selection (memoryAware
// false) takes the top. Memory-aware selection is Algorithm 2 of the
// paper: given the processor's current memory cur (including the
// remaining peak of the subtree being processed) and the reference peak
// ref, it
//
//  1. takes the top task if it is inside a subtree (subtrees are
//     expensive; stay depth-first);
//  2. otherwise scans from the top and takes the first task that fits
//     under ref, or the first subtree task encountered;
//  3. if nothing qualifies, waits when canWait is set, and otherwise
//     falls back to the top task over the bound.
//
// A task is over the bound when cost + cur > ref; only subtree tasks and
// the fallback top can be.
func SelectTask(p *Pool, info TaskInfo, cur, ref int64, memoryAware, canWait bool) Decision {
	n := len(p.items)
	if n == 0 {
		return Decision{K: -1}
	}
	if !memoryAware {
		return Decision{}
	}
	if top := p.items[n-1]; info.InSubtree(top) {
		return Decision{Over: info.MemCost(top)+cur > ref, Reason: Subtree}
	}
	// Scan top to bottom in place: this runs on every activation (under
	// the executor's pool lock in parmf), so it must not copy the pool.
	for k := range n {
		node := p.items[n-1-k]
		switch {
		case info.MemCost(node)+cur <= ref:
			if k == 0 {
				return Decision{Reason: TopFits}
			}
			return Decision{K: k, Reason: Deviated}
		case info.InSubtree(node):
			return Decision{K: k, Over: true, Reason: Subtree}
		}
	}
	if canWait {
		return Decision{Wait: true, Over: true, Reason: Waited}
	}
	return Decision{Over: true, Reason: Forced}
}
