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

// Peek returns the top task without removing it (-1 if empty).
func (p *Pool) Peek() int {
	if len(p.items) == 0 {
		return -1
	}
	return p.items[len(p.items)-1]
}

// At returns the task at depth k from the top (0 = top) without removing
// it (-1 if out of range).
func (p *Pool) At(k int) int {
	idx := len(p.items) - 1 - k
	if idx < 0 || idx >= len(p.items) {
		return -1
	}
	return p.items[idx]
}

// PopTop removes and returns the top task (the MUMPS default policy).
func (p *Pool) PopTop() int {
	n := len(p.items)
	if n == 0 {
		return -1
	}
	v := p.items[n-1]
	p.items = p.items[:n-1]
	return v
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

// Items returns the tasks from top to bottom (a copy).
func (p *Pool) Items() []int {
	out := make([]int, len(p.items))
	for k := range p.items {
		out[k] = p.items[len(p.items)-1-k]
	}
	return out
}

// TaskInfo provides the per-node facts Algorithm 2 needs.
type TaskInfo struct {
	// InSubtree reports whether the node belongs to a leaf subtree.
	InSubtree func(node int) bool
	// MemCost is the memory this task allocates on this processor when
	// activated (front entries for type 1, master part for type 2).
	MemCost func(node int) int64
}

// SelectMemoryAware is Algorithm 2 of the paper. Given the processor's
// current memory occupation (including the remaining peak of the subtree
// being processed) and the memory peak observed since the beginning of the
// factorization, it returns the pool index (depth from top) of the task to
// activate:
//
//  1. if the top task is inside a subtree, take it (subtrees are
//     expensive; stay depth-first);
//  2. otherwise scan from the top: take the first task that fits under the
//     observed peak, or the first subtree task encountered;
//  3. if nothing qualifies, fall back to the top task.
func SelectMemoryAware(p *Pool, info TaskInfo, currentMem, observedPeak int64) int {
	if p.Empty() {
		return -1
	}
	if info.InSubtree(p.Peek()) {
		return 0
	}
	// Scan top to bottom in place: this runs on every activation (under
	// the executor's pool lock in parmf), so it must not copy the pool.
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
