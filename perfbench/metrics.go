package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// Metric kinds: how a metric behaves between runs of the same code.
const (
	kindDet   = "deterministic" // repeats exactly, on any seed
	kindTimed = "timed"         // host wall clock, median of the run's samples
	kindSched = "schedule"      // varies with goroutine scheduling and runtime background work
)

// spec describes one reported metric.
type spec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Kind   string
}

// endToEnd are the metrics a user of the solver sees, reported with
// tracing off (-trace 0), in this order.
var endToEnd = []spec{
	{"setup_s", "s", "lower", kindTimed},
	{"tts_s", "s", "lower", kindTimed},
	{"factor_s", "s", "lower", kindTimed},
	{"par_factor_s", "s", "lower", kindTimed},
	{"solve_s", "s", "lower", kindTimed},
	{"sim_s", "s", "lower", kindTimed},
	{"factor_entries", "entries", "lower", kindDet},
	{"stack_peak_entries", "entries", "lower", kindDet},
	{"resident_peak_entries", "entries", "lower", kindDet},
	{"sim_peak_entries", "entries", "lower", kindDet},
}

// perLayer are the metrics of single modules, reported by the layer pass
// (-trace 1), in this order.
var perLayer = []spec{
	{"core.analyze_s", "s", "lower", kindTimed},
	{"core.analyze_alloc_mb", "MB", "lower", kindSched},
	{"order.compute_s", "s", "lower", kindTimed},
	{"sparse.symmetrize_s", "s", "lower", kindTimed},
	{"sparse.permute_s", "s", "lower", kindTimed},
	{"etree.symbolic_s", "s", "lower", kindTimed},
	{"assembly.build_tree_s", "s", "lower", kindTimed},
	{"assembly.liu_map_s", "s", "lower", kindTimed},
	{"assembly.fronts", "count", "lower", kindDet},
	{"assembly.max_front", "rows", "lower", kindDet},
	{"assembly.gflop", "GFLOP", "lower", kindDet},
	{"assembly.seq_peak_entries", "entries", "lower", kindDet},
	{"dense.gflops", "GFLOP/s", "higher", kindTimed},
	{"front.assemble_s", "s", "lower", kindTimed},
	{"front.extend_add_s", "s", "lower", kindTimed},
	{"front.eliminate_s", "s", "lower", kindTimed},
	{"front.extend_add_ops", "count", "lower", kindDet},
	{"front.solve_fwd_s", "s", "lower", kindTimed},
	{"front.solve_bwd_s", "s", "lower", kindTimed},
	{"parmf.speedup", "x", "higher", kindTimed},
	{"parmf.busy_frac", "ratio", "higher", kindSched},
	{"parmf.tasks", "count", "lower", kindDet},
	{"parmf.deviations", "count", "lower", kindSched},
	{"parmf.waits", "count", "lower", kindSched},
	{"parmf.forced", "count", "lower", kindSched},
	{"parmf.worker_peak_entries", "entries", "lower", kindSched},
	{"parmf.peak_over_bound", "ratio", "lower", kindSched},
	{"parmf.solve_s", "s", "lower", kindTimed},
	{"nodepar.split_fronts", "count", "higher", kindDet},
	{"nodepar.slave_tasks", "count", "higher", kindDet},
	{"nodepar.slave_steals", "count", "lower", kindSched},
	{"nodepar.root_front_s", "s", "lower", kindTimed},
	{"nodepar.master_s", "s", "lower", kindTimed},
	{"nodepar.tile_s", "s", "lower", kindTimed},
	{"ooc.spill_mb", "MB", "lower", kindDet},
	{"ooc.blocks", "count", "lower", kindDet},
	{"ooc.put_waits", "count", "lower", kindSched},
	{"ooc.spill_write_s", "s", "lower", kindTimed},
	{"ooc.blocks_read", "count", "lower", kindSched},
	{"ooc.prefetch_hit_ratio", "ratio", "higher", kindSched},
	{"ooc.retries", "count", "lower", kindDet},
	{"parsim.memory_s", "s", "lower", kindTimed},
	{"parsim.workload_s", "s", "lower", kindTimed},
	{"parsim.makespan_ticks", "ticks", "lower", kindDet},
	{"parsim.gain_pct", "%", "higher", kindDet},
	{"trace.overhead", "ratio", "lower", kindTimed},
	{"trace.events", "count", "lower", kindSched},
	{"host.calib_s", "s", "lower", kindTimed},
	{"host.gc_frac", "ratio", "lower", kindTimed},
}

// samples collects the per-step values of the metrics of one run, or of
// one matrix of a run.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// stat summarizes the samples behind one reported value.
type stat struct {
	N        int     // samples
	Min, Max float64 // sums over the parts of each part's extreme
}

// result is one run's outcome: operation accounting and metric values.
type result struct {
	Attempted int
	Failed    int
	Reps      int
	Kernel    string   // resolved dense kernel family (ExecStats.Kernel)
	Failures  []string // first few failure descriptions, for stderr
	Values    map[string]float64
	Stats     map[string]stat
	Unsteady  []string // deterministic metrics whose samples differ
}

// fail records a failed operation with its reason.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// finish reduces the samples to the reported values: a metric is the sum
// over the parts that sampled it of the median of the part's samples.
// A metric no part sampled is an error in the benchmark itself.
func (r *result) finish(specs []spec, parts []samples) error {
	r.Values, r.Stats = make(map[string]float64, len(specs)), make(map[string]stat, len(specs))
	for _, sp := range specs {
		var v float64
		var st stat
		steady := true
		for _, s := range parts {
			x := s[sp.Name]
			if len(x) == 0 {
				continue
			}
			v += median(x)
			st.N += len(x)
			st.Min += slices.Min(x)
			st.Max += slices.Max(x)
			steady = steady && slices.Min(x) == slices.Max(x)
		}
		if st.N == 0 {
			return fmt.Errorf("perfbench: metric %s was not measured", sp.Name)
		}
		r.Values[sp.Name], r.Stats[sp.Name] = v, st
		if sp.Kind == kindDet && !steady {
			r.Unsteady = append(r.Unsteady, sp.Name)
		}
	}
	return nil
}

// writeTable prints every metric by name with its value, unit,
// better-direction and kind, one per line.
func writeTable(w io.Writer, r *result, specs []spec) {
	fmt.Fprintf(w, "%-28s %14s  %-8s %-7s %-13s %3s %14s %14s\n", "metric", "median", "unit", "better", "kind", "n", "min", "max")
	for _, sp := range specs {
		st := r.Stats[sp.Name]
		fmt.Fprintf(w, "%-28s %14.6g  %-8s %-7s %-13s %3d %14.6g %14.6g\n",
			sp.Name, r.Values[sp.Name], sp.Unit, sp.Better, sp.Kind, st.N, st.Min, st.Max)
	}
}

// writeJSON prints the one-line result object the run ends with.
func writeJSON(w io.Writer, r *result, specs []spec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, sp := range specs {
		metrics[sp.Name] = value{r.Values[sp.Name], sp.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, strings.TrimSpace(string(out)))
	return err
}
