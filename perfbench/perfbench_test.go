package main

// The benchmark's own tests run on the reduced problem suite:
//
//	cd perfbench && go test ./...

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
)

// smallOptions runs one pass of every timed call on the reduced suite.
func smallOptions(t *testing.T, seed int64) options {
	return options{
		Suite:   workload.SmallSuite(),
		Seed:    seed,
		Seconds: 1e-9,
		Workers: runtime.NumCPU(),
		Spill:   t.TempDir(),
	}
}

func TestMetricSpecs(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	kinds := map[string]bool{kindDet: true, kindTimed: true, kindSched: true}
	seen := map[string]bool{}
	for _, sp := range append(append([]spec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(sp.Name) || seen[sp.Name] {
			t.Errorf("metric name %q invalid or repeated", sp.Name)
		}
		seen[sp.Name] = true
		if !unit.MatchString(sp.Unit) || (sp.Better != "lower" && sp.Better != "higher") || !kinds[sp.Kind] {
			t.Errorf("metric %s: bad unit %q, better %q or kind %q", sp.Name, sp.Unit, sp.Better, sp.Kind)
		}
	}
	for _, sp := range endToEnd {
		if sp.Kind == kindSched {
			t.Errorf("end-to-end metric %s depends on the schedule", sp.Name)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metrics and workloads the
// program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(got), len(want))
		}
		for i, sp := range want {
			if got[i] != (metric{sp.Name, sp.Unit, sp.Better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program reports %+v", what, i, got[i], sp)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, b.Workloads[i].Name, w.Name)
		}
	}
}

// deterministic returns the run's deterministic metrics.
func deterministic(r *result, specs []spec) map[string]float64 {
	m := map[string]float64{}
	for _, sp := range specs {
		if sp.Kind == kindDet {
			m[sp.Name] = r.Values[sp.Name]
		}
	}
	return m
}

func sameValues(t *testing.T, what string, a, b map[string]float64) {
	t.Helper()
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %s = %v then %v", what, k, v, b[k])
		}
	}
}

// TestEndToEnd runs every workload on the reduced suite: no failed
// operation, every metric positive, and the deterministic metrics
// identical across two runs and across two seeds.
func TestEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var runs []*result
			for _, seed := range []int64{1, 1, 2} {
				r, err := runEndToEnd(smallOptions(t, seed), w)
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("seed %d: %d of %d operations failed: %v", seed, r.Failed, r.Attempted, r.Failures)
				}
				for _, sp := range endToEnd {
					if v := r.Values[sp.Name]; !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("seed %d: %s = %v, want a positive number", seed, sp.Name, v)
					}
					// Even the shortest run samples every timing on every matrix.
					if n := r.Stats[sp.Name].N; sp.Name != "setup_s" && n < len(w.Matrices) {
						t.Errorf("seed %d: %s has %d samples over %d matrices", seed, sp.Name, n, len(w.Matrices))
					}
				}
				runs = append(runs, r)
			}
			det := func(r *result) map[string]float64 {
				m := deterministic(r, endToEnd)
				unsteady := r.Unsteady
				if w.OOC {
					// On the reduced trees the spill writer can drain the
					// buffer before the stack peaks, so the out-of-core
					// resident peak depends on its progress; at full scale
					// the buffer is full at the peak and the value repeats.
					delete(m, "resident_peak_entries")
					unsteady = slices.DeleteFunc(slices.Clone(unsteady), func(n string) bool { return n == "resident_peak_entries" })
				}
				if len(unsteady) > 0 {
					t.Errorf("deterministic metrics %v differ between repetitions", unsteady)
				}
				return m
			}
			sameValues(t, "same seed", det(runs[0]), det(runs[1]))
			sameValues(t, "two seeds", det(runs[0]), det(runs[2]))
		})
	}
}

// TestLayers runs the layer pass on every workload: every metric is
// reported, the analysis components account for core.analyze_s, and the
// deterministic metrics repeat exactly.
func TestLayers(t *testing.T) {
	components := []string{"order.compute_s", "sparse.permute_s", "etree.symbolic_s", "assembly.build_tree_s", "assembly.liu_map_s"}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var runs []*result
			for i := 0; i < 2; i++ {
				o := smallOptions(t, 1)
				o.Seconds = 0.5 // several passes, so the medians settle
				r, err := runLayers(o, w)
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Failures)
				}
				for _, sp := range perLayer {
					// Only parsim.gain_pct may be negative: on the reduced
					// trees the memory-based strategy can lose.
					if v := r.Values[sp.Name]; math.IsNaN(v) || math.IsInf(v, 0) || (v < 0 && sp.Name != "parsim.gain_pct") {
						t.Errorf("%s = %v", sp.Name, v)
					}
				}
				sum := 0.0
				for _, c := range components {
					sum += r.Values[c]
				}
				if a := r.Values["core.analyze_s"]; sum < 0.5*a || sum > 1.5*a {
					t.Errorf("analysis components sum to %.4gs, core.analyze_s is %.4gs", sum, a)
				}
				runs = append(runs, r)
			}
			for _, r := range runs {
				if len(r.Unsteady) > 0 {
					t.Errorf("deterministic metrics %v differ between passes", r.Unsteady)
				}
			}
			sameValues(t, "two runs", deterministic(runs[0], perLayer), deterministic(runs[1], perLayer))
		})
	}
}

// TestTracedPhasesWithinWall checks that no worker is billed more traced
// phase time than the traced run's wall clock allows.
func TestTracedPhasesWithinWall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := smallOptions(t, 1)
			ps, _, err := setup(o, w)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warmUp(ps); err != nil {
				t.Fatal(err)
			}
			tot := &passTotals{samples: samples{}}
			r := &result{}
			for _, p := range ps {
				if err := executorLayers(o, w, p, tot, r); err != nil {
					t.Fatal(err)
				}
			}
			sum := func(names ...string) float64 {
				s := 0.0
				for _, n := range names {
					for _, v := range tot.samples[n] {
						s += v
					}
				}
				return s
			}
			factor := sum("front.assemble_s", "front.extend_add_s", "front.eliminate_s")
			if factor <= 0 || factor > tot.capacity || tot.busy > tot.capacity {
				t.Errorf("front phases %.4gs, busy %.4gs, workers x factor wall %.4gs", factor, tot.busy, tot.capacity)
			}
			if solve := sum("front.solve_fwd_s", "front.solve_bwd_s"); solve <= 0 || solve > tot.solveCapacity {
				t.Errorf("solve phases %.4gs, workers x solve wall %.4gs", solve, tot.solveCapacity)
			}
		})
	}
}

// TestCheckCountsFailures checks the failure accounting: a wrong bit, a
// large residual or an error each fail one operation.
func TestCheckCountsFailures(t *testing.T) {
	o := smallOptions(t, 1)
	ps, _, err := setup(o, workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warmUp(ps); err != nil {
		t.Fatal(err)
	}
	p := ps[0]
	r := &result{}
	r.check(p, "exact", append([]float64(nil), p.XRef...), nil)
	flipped := append([]float64(nil), p.XRef...)
	flipped[0] = math.Float64frombits(math.Float64bits(flipped[0]) ^ 1)
	r.check(p, "one bit off", flipped, nil)
	r.check(p, "error", nil, os.ErrInvalid)
	if r.Attempted != 3 || r.Failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2: %v", r.Attempted, r.Failed, r.Failures)
	}
	bad := append([]float64(nil), p.XRef...)
	for i := range bad {
		bad[i] *= 2
	}
	if res := p.residual(bad); !(res > residualTol) {
		t.Errorf("doubled solution has scaled residual %g", res)
	}
}

func TestEnvironmentHeader(t *testing.T) {
	o := smallOptions(t, 7)
	env := environment(o, workloads[0], 0, "default")
	for _, want := range []string{"go=go", "nproc=", "gomaxprocs=", "kernel=default", "cpu=", "spill_fs=", "seed=7"} {
		if !strings.Contains(env, want) {
			t.Errorf("environment header %q lacks %q", env, want)
		}
	}
}

func TestRefusesOversubscribedRun(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs at least two CPUs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	err := run([]string{"-workload", "smallfront", "-spill", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("run with GOMAXPROCS=1 returned %v, want a refusal", err)
	}
}
