package trace

import "sync/atomic"

// progress is the lock-free completed-work ledger a live scrape reads:
// the executors bump the done counters as fronts finish, the analysis
// layer sets the denominators before the run starts, and the meter
// observer mirrors the resident gauge. Everything is atomics — an
// instrumented executor pays two atomic adds per front and an untraced
// (nil-tracer) run pays a nil check, nothing else.
type progress struct {
	totFronts atomic.Int64 // analysis-time front count (denominator)
	totFlops  atomic.Int64 // analysis-time elimination flops (denominator)
	fronts    atomic.Int64 // fronts completed so far
	flops     atomic.Int64 // elimination flops completed so far
	startNs   atomic.Int64 // clock value when SetTotals armed the run
	resCur    atomic.Int64 // last observed resident gauge value
	resPeak   atomic.Int64 // max observed resident gauge value
}

// SetTotals arms the progress ledger with the analysis-time denominators
// (front count and assembly.TotalFlops) and resets the done counters and
// the resident mirror — the executors call it at the start of every
// factorization, so a tracer reused across runs (cmd/factor's in-core vs
// out-of-core comparison) restarts its progress cleanly each time.
func (t *Tracer) SetTotals(fronts, flops int64) {
	if t == nil {
		return
	}
	t.prog.totFronts.Store(fronts)
	t.prog.totFlops.Store(flops)
	t.prog.fronts.Store(0)
	t.prog.flops.Store(0)
	t.prog.resCur.Store(0)
	t.prog.resPeak.Store(0)
	t.prog.startNs.Store(t.clock())
}

// FrontDone records one completed front and its elimination flops.
// Safe from any worker goroutine; a nil tracer ignores the call.
func (t *Tracer) FrontDone(flops int64) {
	if t == nil {
		return
	}
	t.prog.fronts.Add(1)
	t.prog.flops.Add(flops)
}

// observeResident mirrors the resident gauge into the progress atomics
// (called from the meter observer, under the meter's lock, so the peak
// mirror sees every value the meter's own peak saw).
func (t *Tracer) observeResident(cur int64) {
	t.prog.resCur.Store(cur)
	for {
		p := t.prog.resPeak.Load()
		if cur <= p || t.prog.resPeak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// ProgressSnapshot is one consistent-enough reading of the progress
// ledger: done/total fronts and flops, the flop-weighted completion
// ratio, elapsed wall time since the run was armed, a linear ETA, and
// the live resident gauge with the peak observed so far. It is what the
// observability server's /progress endpoint returns per run.
type ProgressSnapshot struct {
	FrontsDone  int64 `json:"fronts_done"`
	FrontsTotal int64 `json:"fronts_total"`
	FlopsDone   int64 `json:"flops_done"`
	FlopsTotal  int64 `json:"flops_total"`
	// Ratio is the completed fraction in [0, 1]: flop-weighted when the
	// flop denominator is known, front-weighted otherwise.
	Ratio          float64 `json:"ratio"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ETASeconds linearly extrapolates the remaining wall time from the
	// completed ratio; 0 when done or not yet estimable.
	ETASeconds float64 `json:"eta_seconds"`
	// ResidentEntries / ResidentPeakEntries mirror the shared resident
	// meter (model entries): the current gauge and the exact maximum
	// observed so far — the live view of ExecStats.ResidentPeak.
	ResidentEntries     int64 `json:"resident_entries"`
	ResidentPeakEntries int64 `json:"resident_peak_entries"`
}

// Active reports whether the ledger has been armed or bumped — a zero
// ProgressSnapshot from an idle tracer is not worth rendering.
func (p ProgressSnapshot) Active() bool {
	return p.FrontsTotal > 0 || p.FrontsDone > 0
}

// Progress reads the ledger. Safe concurrently with the executors; a nil
// tracer returns the zero snapshot.
func (t *Tracer) Progress() ProgressSnapshot {
	if t == nil {
		return ProgressSnapshot{}
	}
	p := ProgressSnapshot{
		FrontsDone:          t.prog.fronts.Load(),
		FrontsTotal:         t.prog.totFronts.Load(),
		FlopsDone:           t.prog.flops.Load(),
		FlopsTotal:          t.prog.totFlops.Load(),
		ResidentEntries:     t.prog.resCur.Load(),
		ResidentPeakEntries: t.prog.resPeak.Load(),
	}
	if el := t.clock() - t.prog.startNs.Load(); el > 0 {
		p.ElapsedSeconds = float64(el) / 1e9
	}
	switch {
	case p.FlopsTotal > 0:
		p.Ratio = float64(p.FlopsDone) / float64(p.FlopsTotal)
	case p.FrontsTotal > 0:
		p.Ratio = float64(p.FrontsDone) / float64(p.FrontsTotal)
	}
	if p.Ratio > 1 {
		p.Ratio = 1
	}
	if p.Ratio > 0 && p.Ratio < 1 {
		p.ETASeconds = p.ElapsedSeconds * (1 - p.Ratio) / p.Ratio
	}
	return p
}
