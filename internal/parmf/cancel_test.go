package parmf_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/assembly"
	"repro/internal/faults"
	"repro/internal/front"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/seqmf"
	"repro/internal/sparse"
)

// settleGoroutines polls until the process goroutine count drops back to
// the baseline (background goroutines — pool watchers, spill writers,
// prefetchers — need a moment to observe cancellation), failing with a
// full stack dump if it never does. Callers must not use t.Parallel: the
// count is process-global.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after cancelled run: %d, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// slowTasks arms a persistent per-task delay so a mid-run cancellation
// reliably lands while the pool is working.
func slowTasks() *faults.Injector {
	return faults.New(faults.Rule{
		Point: faults.Task,
		Kind:  faults.KindDelay,
		Count: -1,
		Delay: 2 * time.Millisecond,
	})
}

// TestCancelledRunNoGoroutineLeak cancels in-flight parallel runs at
// several worker counts and asserts the pool drains (descriptive error
// wrapping the context cause, no goroutines left behind).
func TestCancelledRunNoGoroutineLeak(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	assembly.SortChildrenLiu(tree)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			pf, err := parmf.Factorize(ctx, pa, tree, parmf.DefaultConfig(workers), front.Options{Faults: slowTasks()})
			cancel()
			if err == nil {
				// The run won the race; nothing to drain, but still no leak.
				t.Log("run completed before cancellation")
				_ = pf
			} else if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run error = %v, want wrap of context.Canceled", err)
			}
			settleGoroutines(t, base)
		})
	}
}

// TestCancelledOOCRunNoGoroutineLeak is the out-of-core variant: the
// spill writer and the store's context watcher must stop too, and the
// store must stay Closeable after the drain.
func TestCancelledOOCRunNoGoroutineLeak(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	assembly.SortChildrenLiu(tree)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			store, err := ooc.NewFileStore(ooc.Options{Dir: t.TempDir(), BufferEntries: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			opt := front.Options{Faults: slowTasks()}
			if workers == 1 {
				_, err = seqmf.Factorize(ctx, pa, tree, opt, store)
			} else {
				cfg := parmf.DefaultConfig(workers)
				cfg.Store = store
				_, err = parmf.Factorize(ctx, pa, tree, cfg, opt)
			}
			cancel()
			if err == nil {
				t.Log("run completed before cancellation")
			} else if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled OOC run error = %v, want wrap of context.Canceled", err)
			}
			if err := store.Close(); err != nil {
				t.Fatalf("Close after cancelled run: %v", err)
			}
			settleGoroutines(t, base)
		})
	}
}

// TestCancelledSolveNoGoroutineLeak cancels a tree-parallel solve
// mid-pass: both pass pools and the store's prefetcher must drain.
func TestCancelledSolveNoGoroutineLeak(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	assembly.SortChildrenLiu(tree)
	pf, err := parmf.Factorize(context.Background(), pa, tree, parmf.DefaultConfig(4), front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, pa.N)
	for i := range b {
		b[i] = 1
	}
	base := runtime.NumGoroutine()
	ts := pf.Solver(4)
	ts.SetFaults(faults.New(faults.Rule{
		Point: faults.Solve,
		Kind:  faults.KindDelay,
		Count: -1,
		Delay: time.Millisecond,
	}))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	_, err = ts.SolveOriginalMultiCtx(ctx, b, 1)
	cancel()
	if err == nil {
		t.Log("solve completed before cancellation")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve error = %v, want wrap of context.Canceled", err)
	}
	settleGoroutines(t, base)
}
