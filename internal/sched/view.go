// Package sched implements the paper's scheduling strategies as pure,
// independently-testable decision logic:
//
//   - the workload-based slave selection of MUMPS (Section 3, the baseline),
//   - Algorithm 1, the memory-based slave selection (Section 4),
//   - the static-knowledge injection: subtree peaks and incoming-master
//     prediction folded into the selection metric (Section 5.1),
//   - Algorithm 2, the memory-aware task selection from the local pool
//     (Section 5.2), in SelectTask, which also makes the depth-first
//     choice and the wait-or-force call when nothing fits.
//
// The parallel simulator (internal/parsim) feeds these functions with its
// message-derived views, and the shared-memory executor (internal/parmf)
// with its workers' live memory and loads; both apply the decisions.
package sched

// View is one processor's (possibly stale) knowledge of every processor's
// state, maintained from broadcast increments: instantaneous memory,
// the projected memory level of the subtree each processor is currently
// traversing, and the predicted cost of its next incoming master task.
//
// The Section 5.1 metric combines them as
//
//	max(Mem, Subtree) + Incoming
//
// Subtree is an absolute projected level (the processor's memory at
// subtree entry plus the subtree's stack peak), not a delta: the
// instantaneous memory already contains the partially built subtree
// stack, so summing the peak on top — the paper's literal formula —
// would count that part twice and make mid-subtree processors look more
// expensive the further they have progressed.
type View struct {
	Mem      []int64 // instantaneous active memory (entries)
	Subtree  []int64 // projected level base+peak of the current subtree (0 if none)
	Incoming []int64 // cost of the largest incoming (soon-ready) master task
	Load     []int64 // workload: elimination flops queued + running
}

// NewView returns a zeroed view over p processors.
func NewView(p int) *View {
	return &View{
		Mem:      make([]int64, p),
		Subtree:  make([]int64, p),
		Incoming: make([]int64, p),
		Load:     make([]int64, p),
	}
}

// Metric returns the memory metric of processor q. useSubtree folds in
// the projected subtree level (by max), usePrediction adds the predicted
// incoming master cost; both false reduces it to the bare Section-4
// instantaneous metric.
func (v *View) Metric(q int, useSubtree, usePrediction bool) int64 {
	m := v.Mem[q]
	if useSubtree && v.Subtree[q] > m {
		m = v.Subtree[q]
	}
	if usePrediction {
		m += v.Incoming[q]
	}
	return m
}

// AddMem applies a memory increment (positive or negative) for q.
func (v *View) AddMem(q int, delta int64) { v.Mem[q] += delta }

// SetSubtree records the projected memory level (memory at subtree entry
// plus the subtree's stack peak) q is working under (0 clears it).
func (v *View) SetSubtree(q int, level int64) { v.Subtree[q] = level }

// SetIncoming records the predicted next master-task cost on q.
func (v *View) SetIncoming(q int, cost int64) { v.Incoming[q] = cost }

// AddLoad applies a workload increment for q.
func (v *View) AddLoad(q int, delta int64) { v.Load[q] += delta }
