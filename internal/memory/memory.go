// Package memory models the per-processor memory of the multifrontal
// factorization, mirroring the paper's three storage areas (Section 2):
// the factors area (monotonically growing), the stack of contribution
// blocks, and the active frontal matrices. All quantities are in matrix
// entries. Peaks and optional time-series traces are recorded for the
// experiment tables and the Figure 4/6/8-style memory evolution plots.
package memory

import (
	"fmt"

	"repro/internal/des"
)

// TracePoint is one sample of a processor's memory evolution.
type TracePoint struct {
	T      des.Time
	Stack  int64 // contribution blocks
	Active int64 // contribution blocks + live fronts
}

// Proc tracks one processor's memory.
type Proc struct {
	Factors int64 // factor entries stored so far
	Stack   int64 // stacked contribution blocks
	Fronts  int64 // active frontal matrices (incl. slave row blocks)

	StackPeak  int64 // peak of Stack
	ActivePeak int64 // peak of Stack + Fronts (the paper's stack-memory metric)
	TotalPeak  int64 // peak of Factors + Stack + Fronts (in-core execution)

	// Peak composition: the state when ActivePeak was last raised.
	PeakStack  int64    // Stack component at the active peak
	PeakFronts int64    // Fronts component at the active peak
	PeakTime   des.Time // when the active peak was reached
	PeakNote   string   // snapshot (see Tracker.SnapshotFn) at the peak

	trace    []TracePoint
	tracing  bool
	lastTime des.Time
	snap     func() string
}

// Active returns the current active memory (stack + fronts).
func (p *Proc) Active() int64 { return p.Stack + p.Fronts }

// EnableTrace starts recording a memory trace.
func (p *Proc) EnableTrace() { p.tracing = true }

// Trace returns the recorded samples.
func (p *Proc) Trace() []TracePoint { return p.trace }

func (p *Proc) bump(t des.Time) {
	if p.Stack > p.StackPeak {
		p.StackPeak = p.Stack
	}
	if tot := p.Factors + p.Stack + p.Fronts; tot > p.TotalPeak {
		p.TotalPeak = tot
	}
	if a := p.Active(); a > p.ActivePeak {
		p.ActivePeak = a
		p.PeakStack = p.Stack
		p.PeakFronts = p.Fronts
		p.PeakTime = t
		if p.snap != nil {
			p.PeakNote = p.snap()
		}
	}
	if p.tracing {
		p.trace = append(p.trace, TracePoint{T: t, Stack: p.Stack, Active: p.Active()})
		p.lastTime = t
	}
}

// Tracker aggregates P processors.
type Tracker struct {
	Procs []Proc
	eng   *des.Engine
	// maxActive is the largest ActivePeak over Procs, raised with it.
	maxActive int64
}

// NewTracker returns a tracker for p processors using the engine's clock.
func NewTracker(eng *des.Engine, p int) *Tracker {
	return &Tracker{Procs: make([]Proc, p), eng: eng}
}

// SetSnapshot installs a diagnostic callback invoked whenever processor
// p's active peak is raised; its result is stored in PeakNote. Used by
// the simulator to explain what a peak is made of (which fronts, slave
// blocks, CB pieces) the way the paper explains individual table cells.
func (t *Tracker) SetSnapshot(p int, fn func() string) { t.Procs[p].snap = fn }

func (t *Tracker) now() des.Time {
	if t.eng == nil {
		return 0
	}
	return t.eng.Now()
}

// bump records processor p's peaks after a mutation and carries a raised
// active peak into the running maximum.
func (t *Tracker) bump(p int) {
	pr := &t.Procs[p]
	pr.bump(t.now())
	t.maxActive = max(t.maxActive, pr.ActivePeak)
}

// PushCB stacks a contribution block of the given size on processor p.
func (t *Tracker) PushCB(p int, entries int64) {
	t.Procs[p].Stack += entries
	t.bump(p)
}

// PopCB removes a contribution block from processor p's stack.
func (t *Tracker) PopCB(p int, entries int64) {
	t.Procs[p].Stack -= entries
	if t.Procs[p].Stack < 0 {
		panic(fmt.Sprintf("memory: negative stack on proc %d: popped %d entries, %d over what was stacked",
			p, entries, -t.Procs[p].Stack))
	}
	t.bump(p)
}

// AllocFront allocates an active front (or slave row block) on p.
func (t *Tracker) AllocFront(p int, entries int64) {
	t.Procs[p].Fronts += entries
	t.bump(p)
}

// FreeFront releases an active front on p.
func (t *Tracker) FreeFront(p int, entries int64) {
	t.Procs[p].Fronts -= entries
	if t.Procs[p].Fronts < 0 {
		panic(fmt.Sprintf("memory: negative front area on proc %d: freed %d entries, %d over what was allocated",
			p, entries, -t.Procs[p].Fronts))
	}
	t.bump(p)
}

// AddFactors accounts factor entries produced on p.
func (t *Tracker) AddFactors(p int, entries int64) {
	t.Procs[p].Factors += entries
	t.bump(p)
}

// MaxTotalPeak returns the maximum over processors of the in-core total
// (factors + stack + fronts). Comparing it with MaxActivePeak quantifies
// the paper's out-of-core argument: with factors on disk ("factors are
// not reaccessed before the solve phase"), the stack is all that remains
// in memory, so minimizing it is what enables larger problems.
func (t *Tracker) MaxTotalPeak() int64 {
	var m int64
	for i := range t.Procs {
		if t.Procs[i].TotalPeak > m {
			m = t.Procs[i].TotalPeak
		}
	}
	return m
}

// MaxActivePeak returns the maximum over processors of the active-memory
// peak — the paper's "maximum stack memory peak" metric (Tables 2-5). It
// is kept as the peaks rise, so reading it costs O(1): the memory-aware
// scheduler reads it on every activation.
func (t *Tracker) MaxActivePeak() int64 { return t.maxActive }

// MaxStackPeak returns the maximum over processors of the CB-stack-only
// peak.
func (t *Tracker) MaxStackPeak() int64 {
	var m int64
	for i := range t.Procs {
		if t.Procs[i].StackPeak > m {
			m = t.Procs[i].StackPeak
		}
	}
	return m
}

// TotalFactors returns the total factor entries across processors.
func (t *Tracker) TotalFactors() int64 {
	var s int64
	for i := range t.Procs {
		s += t.Procs[i].Factors
	}
	return s
}

// AvgActivePeak returns the mean per-processor active peak — a balance
// indicator (MaxActivePeak / AvgActivePeak ~ 1 means well balanced).
func (t *Tracker) AvgActivePeak() float64 {
	if len(t.Procs) == 0 {
		return 0
	}
	var s int64
	for i := range t.Procs {
		s += t.Procs[i].ActivePeak
	}
	return float64(s) / float64(len(t.Procs))
}
