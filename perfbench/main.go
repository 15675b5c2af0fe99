// Command perfbench is the solver's benchmark: it runs one workload
// through the public core facade, checks every solution, and prints every
// metric by name with its unit, ending with one JSON line.
//
//	bash perfbench/run.sh --workload smallfront --seed 1 --seconds 55 --trace 0
//
// -trace 0 measures the end-to-end metrics with tracing off; -trace 1
// runs the layer pass, which times the modules' public functions from
// outside and reads per-phase seconds from one traced run. README.md
// describes the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: smallfront or ooc")
	seed := fs.Int64("seed", 1, "seed of the generated values and right-hand sides")
	seconds := fs.Float64("seconds", 55, "seconds to measure for, after set-up and warm-up")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	spill := fs.String("spill", ".bench_build/spill", "directory for out-of-core spill files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("perfbench: -trace must be 0 or 1, got %d", *traced)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("perfbench: -seconds must be positive")
	}
	o := options{Suite: workload.Suite(), Seed: *seed, Seconds: *seconds, Workers: runtime.NumCPU()}
	// Parallel timings taken with fewer OS threads than workers measure
	// oversubscription, not the solver.
	if p := runtime.GOMAXPROCS(0); p < o.Workers {
		return fmt.Errorf("perfbench: GOMAXPROCS=%d is below workers=%d; refusing to report parallel metrics", p, o.Workers)
	}
	if err := os.MkdirAll(*spill, 0o755); err != nil {
		return err
	}
	if o.Spill, err = os.MkdirTemp(*spill, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(o.Spill)

	specs, measure := endToEnd, runEndToEnd
	if *traced == 1 {
		specs, measure = perLayer, runLayers
	}
	r, err := measure(o, w)
	if err != nil {
		return err
	}
	fmt.Println(environment(o, w, *traced, r.Kernel))
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	for _, m := range r.Unsteady {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING: deterministic metric %s differs between repetitions\n", m)
	}
	fmt.Printf("# %s: %d passes, %d operations, %d failed\n", w.Name, r.Reps, r.Attempted, r.Failed)
	writeTable(os.Stdout, r, specs)
	return writeJSON(os.Stdout, r, specs)
}
