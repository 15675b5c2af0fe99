package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/faults"
	"repro/internal/front"
	"repro/internal/memory"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// TestOptionsReachEveryEntryPoint pins that the numeric options set on
// core.Config reach the executor unchanged through every plan of Run:
// the kernel family the stats name is the one the analysis resolves to
// (an explicit parmf.Config can no longer override it), and a tracer and
// a fault schedule set there are armed in all four.
func TestOptionsReachEveryEntryPoint(t *testing.T) {
	a := sparse.Grid3D(7, 7, 7)
	cfg := core.DefaultConfig(order.ND, 2)
	cfg.OOC.Dir = t.TempDir()
	an, err := core.Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name string
		opt  front.Options
	}{
		{"default", front.Options{}},
		{"simd", front.Options{Kernel: dense.KernelSIMD}},
		{"auto", front.Options{Kernel: dense.KernelAuto}},
		{"element-wise", front.Options{BlockRows: -1}},
	}
	for _, fam := range families {
		_, want := fam.opt.Resolve()
		for _, ep := range plans {
			run := *an
			run.Config.Options = fam.opt
			tr := trace.New(2)
			run.Config.Tracer = tr
			st, err := runStats(&run, ep.plan)
			if err != nil {
				t.Fatalf("%s/%s: %v", fam.name, ep.name, err)
			}
			if st.Kernel != want.String() {
				t.Errorf("%s/%s: kernel %q, want %q", fam.name, ep.name, st.Kernel, want)
			}
			if n := countSpans(tr, trace.SpanFactor); n < an.Tree.Len() {
				t.Errorf("%s/%s: tracer recorded %d factor spans for %d fronts", fam.name, ep.name, n, an.Tree.Len())
			}

			run.Config.Tracer = nil
			in := faults.New(faults.Rule{Point: faults.Task, Kind: faults.KindError, Nth: 3})
			run.Config.Faults = in
			if _, err := runStats(&run, ep.plan); !errors.Is(err, faults.ErrInjected) {
				t.Errorf("%s/%s: armed task fault gave err %v, want an injected fault", fam.name, ep.name, err)
			}
			if in.Fired() != 1 {
				t.Errorf("%s/%s: fault fired %d times, want 1", fam.name, ep.name, in.Fired())
			}
		}
	}
}

// runStats runs plan p and returns the executor stats.
func runStats(an *core.Analysis, p core.Plan) (memory.ExecStats, error) {
	f, err := an.Run(context.Background(), p)
	if err != nil {
		return memory.ExecStats{}, err
	}
	defer f.Close()
	return f.Stats, nil
}

// countSpans counts the begin events named name across the worker tracks.
func countSpans(tr *trace.Tracer, name string) int {
	n := 0
	for _, tk := range tr.Tracks() {
		for _, e := range tk.Events {
			if e.Kind == trace.KindBegin && e.Name == name {
				n++
			}
		}
	}
	return n
}
