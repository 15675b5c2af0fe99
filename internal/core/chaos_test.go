package core_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// chaosResult is one armed run's outcome: the solution when it
// completed, the first error otherwise, and the executor stats either
// way (partial on failure).
type chaosResult struct {
	x     []float64
	stats parmf.WorkStats
	err   error
}

// runChaos executes one parallel out-of-core factorize+solve with the
// given injector armed on everything (executor task points, the store's
// spill I/O points, the solve point) and the spill buffer squeezed so
// blocks really travel through the fault paths.
func runChaos(t *testing.T, a *sparse.CSC, in *faults.Injector, ctx context.Context) chaosResult {
	t.Helper()
	cfg := core.DefaultConfig(order.ND, 4)
	cfg.OOC = ooc.Options{
		Dir:           t.TempDir(),
		BufferEntries: 1 << 11,
		RetryMax:      2,
		RetryBase:     50 * time.Microsecond,
	}
	cfg.Faults = in
	an, err := core.Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := parmf.DefaultConfig(4)
	f, err := an.Run(ctx, core.Plan{Parallel: &pcfg, File: true})
	if err != nil {
		return chaosResult{err: err}
	}
	defer f.Close()
	b := make([]float64, a.N)
	rng := rand.New(rand.NewSource(3))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := f.Solve(ctx, b, 1)
	if err != nil {
		return chaosResult{stats: f.Sched.WorkStats, err: err}
	}
	return chaosResult{x: x, stats: f.Sched.WorkStats}
}

// assertBitwise asserts a completed chaos run reproduced the clean run's
// solution bit for bit — fault handling must be numerically invisible.
func assertBitwise(t *testing.T, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("solution length %d, want %d", len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("solution diverged at %d: %g vs %g (fault handling must not change numerics)", i, got[i], ref[i])
		}
	}
}

// assertDescriptive asserts a failed chaos run surfaced a real error: a
// wrapped faults.ErrInjected (or context cause) with enough text to
// debug from, never a bare or empty failure.
func assertDescriptive(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatal("run succeeded, expected a descriptive error")
	}
	if msg := err.Error(); len(msg) < 10 || !strings.Contains(msg, want) {
		t.Fatalf("error %q is not descriptive (want substring %q)", msg, want)
	}
}

// TestChaosSuite sweeps deterministic fault schedules over every
// workload problem through the parallel out-of-core path and asserts the
// robustness contract: every run either completes with a bitwise
// identical solution or fails with a descriptive error — and never
// hangs, panics the process, or leaks the result silently.
func TestChaosSuite(t *testing.T) {
	for _, p := range workload.SmallSuite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			a := p.NumericMatrix()
			clean := runChaos(t, a, nil, context.Background())
			if clean.err != nil {
				t.Fatalf("clean run failed: %v", clean.err)
			}
			if clean.stats.Retries != 0 || clean.stats.DegradedBlocks != 0 || clean.stats.CancelledTasks != 0 {
				t.Fatalf("clean run has nonzero fault counters: %+v", clean.stats)
			}

			t.Run("transient-write-retried", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.SpillWrite, Kind: faults.KindError, Nth: 2, Count: 3},
				), context.Background())
				if r.err != nil {
					t.Fatalf("transient write faults must be absorbed: %v", r.err)
				}
				assertBitwise(t, clean.x, r.x)
				if r.stats.Retries == 0 {
					t.Error("retries not reported in ExecStats")
				}
			})

			t.Run("short-write-repaired", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.SpillWrite, Kind: faults.KindShortWrite, Nth: 1, Count: 2},
				), context.Background())
				if r.err != nil {
					t.Fatalf("short writes must be repaired: %v", r.err)
				}
				assertBitwise(t, clean.x, r.x)
			})

			t.Run("persistent-write-degrades", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.SpillWrite, Kind: faults.KindError, Count: -1},
				), context.Background())
				if r.err != nil {
					t.Fatalf("persistent write failure must degrade, not fail: %v", r.err)
				}
				assertBitwise(t, clean.x, r.x)
				if r.stats.DegradedBlocks == 0 {
					t.Error("degraded blocks not reported in ExecStats")
				}
			})

			t.Run("write-delay-harmless", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.SpillWrite, Kind: faults.KindDelay, Nth: 3, Count: 4, Delay: time.Millisecond},
				), context.Background())
				if r.err != nil {
					t.Fatalf("delays must not fail the run: %v", r.err)
				}
				assertBitwise(t, clean.x, r.x)
			})

			t.Run("task-error-descriptive", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.Task, Kind: faults.KindError, Nth: 5},
				), context.Background())
				assertDescriptive(t, r.err, "node")
				if !errors.Is(r.err, faults.ErrInjected) {
					t.Errorf("error %v does not wrap faults.ErrInjected", r.err)
				}
			})

			t.Run("task-panic-contained", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.Task, Kind: faults.KindPanic, Nth: 3},
				), context.Background())
				assertDescriptive(t, r.err, "panic")
			})

			t.Run("read-error-fails-solve", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.SpillRead, Kind: faults.KindError, Count: -1},
				), context.Background())
				assertDescriptive(t, r.err, "read")
			})

			t.Run("read-corrupt-fails-solve", func(t *testing.T) {
				// A bit flipped after a spill read must fail the solve
				// with the record's checksum error, never return an x.
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.SpillRead, Kind: faults.KindCorrupt, Nth: 3},
				), context.Background())
				assertDescriptive(t, r.err, "checksum mismatch")
				if r.x != nil {
					t.Error("a solution was returned from corrupted factors")
				}
			})

			t.Run("decode-error-not-retried", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.Decode, Kind: faults.KindError, Nth: 2},
				), context.Background())
				assertDescriptive(t, r.err, "decode")
				if r.stats.Retries != 0 {
					t.Errorf("decode errors must not be retried (corruption, not transience); got %d retries", r.stats.Retries)
				}
			})

			t.Run("solve-error-descriptive", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.Solve, Kind: faults.KindError, Nth: 4},
				), context.Background())
				assertDescriptive(t, r.err, "solve")
			})

			t.Run("cancel-drains", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				go func() {
					time.Sleep(2 * time.Millisecond)
					cancel()
				}()
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.Task, Kind: faults.KindDelay, Count: -1, Delay: time.Millisecond},
				), ctx)
				if r.err == nil {
					t.Skip("run won the race against cancellation")
				}
				if !errors.Is(r.err, context.Canceled) {
					t.Fatalf("cancelled run error %v does not wrap context.Canceled", r.err)
				}
			})
		})
	}
}

// TestChaosRandomSchedules fires seeded random multi-point schedules at
// every problem: whatever combination of faults lands, the property is
// the same — a bitwise identical completion or a descriptive error.
func TestChaosRandomSchedules(t *testing.T) {
	points := faults.Points()
	kinds := []faults.Kind{faults.KindError, faults.KindDelay, faults.KindShortWrite, faults.KindPanic, faults.KindCorrupt}
	for pi, p := range workload.SmallSuite() {
		p, pi := p, pi
		t.Run(p.Name, func(t *testing.T) {
			a := p.NumericMatrix()
			clean := runChaos(t, a, nil, context.Background())
			if clean.err != nil {
				t.Fatalf("clean run failed: %v", clean.err)
			}
			rng := rand.New(rand.NewSource(int64(1000 + pi)))
			for round := 0; round < 3; round++ {
				rules := make([]faults.Rule, 1+rng.Intn(3))
				for i := range rules {
					rules[i] = faults.Rule{
						Point: points[rng.Intn(len(points))],
						Kind:  kinds[rng.Intn(len(kinds))],
						Nth:   int64(1 + rng.Intn(8)),
						Count: int64(rng.Intn(4)), // 0 means once
						Delay: time.Duration(rng.Intn(500)) * time.Microsecond,
					}
				}
				r := runChaos(t, a, faults.New(rules...), context.Background())
				if r.err == nil {
					assertBitwise(t, clean.x, r.x)
					continue
				}
				if msg := r.err.Error(); len(msg) < 10 {
					t.Fatalf("round %d (rules %+v): error %q is not descriptive", round, rules, msg)
				}
			}
		})
	}
}

// TestUnarmedRunUnchanged extends the TestUntracedRunUnchanged pattern
// to the fault layer: a nil injector plus a live context that never
// fires (so the executor runs its cancellation watcher) must leave the
// factors bitwise identical and the executor's work stats equal to a
// Background run — the robustness plane costs nothing when unarmed. The
// schedule-dependent stats differ from run to run (which worker claimed
// which task), so only their invariants are asserted.
func TestUnarmedRunUnchanged(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	an, err := core.Analyze(a, core.DefaultConfig(order.AMF, 2))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := an.FactorizeParallel(parmf.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	pcfg := parmf.DefaultConfig(2)
	ctxRun, err := an.Run(live, core.Plan{Parallel: &pcfg})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Stats.WorkStats.Equal(ctxRun.Sched.WorkStats) {
		t.Errorf("live-context run changed work stats:\n%+v\nvs\n%+v",
			plain.Stats.WorkStats, ctxRun.Sched.WorkStats)
	}
	checkScheduleInvariants(t, plain.Stats)
	checkScheduleInvariants(t, *ctxRun.Sched)
	// The factors themselves must match bit for bit too.
	cslab := ctxRun.Front.Slab()
	for q, v := range plain.Front().Slab() {
		if v != cslab[q] {
			t.Fatalf("factor entry %d differs bitwise", q)
		}
	}

	// OOC path: nil injector stats == armed-but-never-firing injector
	// stats (the schedule targets hit numbers a tiny run never reaches).
	ref := runChaos(t, a, nil, context.Background())
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	idle := runChaos(t, a, faults.New(
		faults.Rule{Point: faults.SpillWrite, Kind: faults.KindError, Nth: 1 << 40},
	), context.Background())
	if idle.err != nil {
		t.Fatal(idle.err)
	}
	assertBitwise(t, ref.x, idle.x)
	if !ref.stats.Equal(idle.stats) {
		t.Errorf("idle injector changed work stats:\n%+v\nvs\n%+v", ref.stats, idle.stats)
	}
}

// checkScheduleInvariants asserts what the executor guarantees about the
// schedule-dependent stats of an in-core run, whatever the schedule: one
// peak per worker, PeakStack their maximum, each worker's stack peak under
// its active peak, every worker under the bound unless an activation was
// forced over it, and the resident peak covering all factors and the
// largest worker peak. The multiset of worker peaks itself is not
// invariant: when one worker claims every tree task the other reports 0.
func checkScheduleInvariants(t *testing.T, st parmf.Stats) {
	t.Helper()
	if len(st.WorkerPeaks) != st.Workers || len(st.WorkerStackPeaks) != st.Workers {
		t.Fatalf("%d worker peaks, %d stack peaks for %d workers",
			len(st.WorkerPeaks), len(st.WorkerStackPeaks), st.Workers)
	}
	var max int64
	for w, p := range st.WorkerPeaks {
		if p > max {
			max = p
		}
		if st.WorkerStackPeaks[w] > p {
			t.Errorf("worker %d: stack peak %d > active peak %d", w, st.WorkerStackPeaks[w], p)
		}
		if st.Forced == 0 && p > st.PeakBound {
			t.Errorf("worker %d: peak %d > bound %d with no forced activation", w, p, st.PeakBound)
		}
	}
	if max != st.PeakStack {
		t.Errorf("PeakStack %d, max worker peak %d", st.PeakStack, max)
	}
	if st.ResidentPeak < st.FactorEntries || st.ResidentPeak < st.PeakStack {
		t.Errorf("resident peak %d below factors %d or worker peak %d",
			st.ResidentPeak, st.FactorEntries, st.PeakStack)
	}
	if st.SlaveSteals > st.SlaveTasks {
		t.Errorf("%d slave steals of %d slave tasks", st.SlaveSteals, st.SlaveTasks)
	}
}
