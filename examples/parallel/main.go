// Parallel: one analysis, every way to run it. Part 1 factors one SPD
// system through the four plans of core.Run — the sequential or the
// shared-memory parallel executor, factors in memory or spilled to disk
// as produced — and shows they solve to the same bits, next to their
// wall times, measured resident peaks and the simulator's prediction.
// Part 2 measures the out-of-core saving across the Table-1 suite: with
// the factors on disk ("not reaccessed before the solve phase"), the
// stack is what stays resident. Part 3 compares the scheduling
// strategies in the simulator as processors are added — the MUMPS
// workload baseline, the paper's memory-based strategy and the hybrid
// its conclusion calls for. Part 4 runs the real executor at the same
// worker counts, then with each slave selection and each root-front
// decomposition, next to the simulator's predicted peak.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

const workers = 8

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	// A 3D Poisson problem, symmetric positive definite.
	a := sparse.Grid3D(20, 20, 20)
	an := analyze(a, workers)
	st := an.Stats()
	fmt.Printf("matrix: n=%d nnz=%d; ND ordering, %d fronts, max front %d, %d subtrees, sequential peak %d entries\n\n",
		a.N, a.NNZ(), st.Fronts, st.MaxFront, st.Subtrees, st.SeqPeak)
	plans(ctx, an, a)
	suite(ctx)
	strategies(a)
	executor(ctx, a)
}

func analyze(a *sparse.CSC, procs int) *core.Analysis {
	an, err := core.Analyze(a, core.DefaultConfig(order.ND, procs))
	if err != nil {
		log.Fatal(err)
	}
	return an
}

// run factors through plan p, solves b and closes the factors, returning
// them (their statistics stay readable), the solution and the
// factorization and solve wall times.
func run(ctx context.Context, an *core.Analysis, p core.Plan, b []float64) (*core.Factors, []float64, time.Duration, time.Duration) {
	t0 := time.Now()
	f, err := an.Run(ctx, p)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	factorT := time.Since(t0)
	t0 = time.Now()
	x, err := f.Solve(ctx, b, 1)
	if err != nil {
		log.Fatal(err)
	}
	return f, x, factorT, time.Since(t0)
}

// plans runs the four plans of one analysis. Static pivoting and the
// deterministic assembly order make their factors, and so their
// solutions, bitwise identical.
func plans(ctx context.Context, an *core.Analysis, a *sparse.CSC) {
	rng := rand.New(rand.NewSource(42))
	x0 := make([]float64, a.N)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	b := a.MulVec(x0)
	sim, err := an.Simulate(parsim.MemoryBased())
	if err != nil {
		log.Fatal(err)
	}
	pcfg := parmf.DefaultConfig(workers)
	t := metrics.New(fmt.Sprintf("part 1: four plans of one analysis (simulated per processor: %d in-core, %d out-of-core)",
		sim.MaxTotalPeak, sim.MaxActivePeak),
		"plan", "factor (s)", "solve (s)", "resident peak", "stack peak", "spilled MiB", "||x - x0||", "x == x_seq")
	var ref []float64
	var sched *parmf.Stats
	for _, p := range []struct {
		name string
		plan core.Plan
	}{
		{"sequential in-core", core.Plan{}},
		{"sequential out-of-core", core.Plan{File: true}},
		{"parallel in-core", core.Plan{Parallel: &pcfg}},
		{"parallel out-of-core", core.Plan{Parallel: &pcfg, File: true}},
	} {
		f, x, factorT, solveT := run(ctx, an, p.plan, b)
		if ref == nil {
			ref = x
		}
		if f.Sched != nil {
			sched = f.Sched
		}
		var spilled float64
		if f.Store != nil {
			spilled = float64(f.Store.Stats().BytesWritten) / (1 << 20)
		}
		var e float64
		for i := range x {
			e += (x[i] - x0[i]) * (x[i] - x0[i])
		}
		t.AddRow(p.name, fmt.Sprintf("%.3f", factorT.Seconds()), fmt.Sprintf("%.3f", solveT.Seconds()),
			f.Stats.ResidentPeak, f.Stats.PeakStack, fmt.Sprintf("%.1f", spilled),
			fmt.Sprintf("%.3g", math.Sqrt(e)), slices.Equal(x, ref))
	}
	fmt.Println(t.Render())
	fmt.Printf("parallel: %d tasks, %d deviations, %d forced activations, worker peaks %v (bound %d)\n\n",
		sched.Tasks, sched.Deviations, sched.Forced, sched.WorkerPeaks, sched.PeakBound)
}

// suite measures the sequential out-of-core saving on every Table-1
// problem: the measured OOC column approaches the simulated stack-only
// one, the part the memory-minimizing schedules shrink.
func suite(ctx context.Context) {
	t := metrics.New("part 2: sequential resident peaks across the suite, entries (ND ordering)",
		"problem", "sim in-core", "sim OOC", "mea in-core", "mea OOC", "mea saving %", "x_ooc == x_incore")
	for _, p := range workload.SmallSuite() {
		a := p.NumericMatrix()
		an := analyze(a, 1)
		sim, err := an.Simulate(parsim.MemoryBased())
		if err != nil {
			log.Fatal(err)
		}
		b := make([]float64, a.N)
		for i := range b {
			b[i] = float64(i%13) - 6
		}
		in, xi, _, _ := run(ctx, an, core.Plan{}, b)
		out, xo, _, _ := run(ctx, an, core.Plan{File: true}, b)
		t.AddRow(p.Name, sim.MaxTotalPeak, sim.MaxActivePeak, in.Stats.ResidentPeak, out.Stats.ResidentPeak,
			fmt.Sprintf("%.1f", metrics.PercentDecrease(in.Stats.ResidentPeak, out.Stats.ResidentPeak)),
			slices.Equal(xi, xo))
	}
	fmt.Println(t.Render())
	fmt.Println()
}

var simulated = []struct {
	name string
	st   parsim.Strategy
}{
	{"workload (MUMPS baseline)", parsim.Workload()},
	{"memory-based (paper)", parsim.MemoryBased()},
	{"hybrid (conclusion)", parsim.Hybrid()},
}

// strategies sweeps the processor count in the simulator. Perfect memory
// scalability would divide the sequential peak by P; the balance column
// (max / mean per-processor peak) shows how far each strategy is from it.
func strategies(a *sparse.CSC) {
	t := metrics.New("part 3: simulated max per-processor stack peak (entries)",
		"P", "strategy", "peak", "balance", "gain %", "makespan (ms)", "time loss %")
	for _, p := range []int{2, 8, 32} {
		an := analyze(a, p)
		var basePeak, baseTime int64
		for i, s := range simulated {
			res, err := an.Simulate(s.st)
			if err != nil {
				log.Fatal(err)
			}
			if i == 0 {
				basePeak, baseTime = res.MaxActivePeak, int64(res.Makespan)
			}
			t.AddRow(p, s.name, res.MaxActivePeak, fmt.Sprintf("%.2f", float64(res.MaxActivePeak)/res.AvgActivePeak),
				fmt.Sprintf("%.1f", metrics.PercentDecrease(basePeak, res.MaxActivePeak)),
				fmt.Sprintf("%.2f", float64(res.Makespan)/1e6),
				fmt.Sprintf("%.1f", metrics.PercentIncrease(baseTime, int64(res.Makespan))))
		}
	}
	fmt.Println(t.Render())
	fmt.Println("The hybrid keeps the memory strategy's slave choices inside the set of")
	fmt.Println("processors the workload balancer would consider, trading a little of the")
	fmt.Println("memory gain for a smaller time penalty.")
	fmt.Println()
}

// executor runs the real hybrid executor (tree tasks plus within-front
// row-block and 2D root tasks). The simulator charges whole fronts and
// simulated messages, the executor the master part plus live row-block
// shares, so the measured peak tracks the prediction without matching it.
func executor(ctx context.Context, a *sparse.CSC) {
	t := metrics.New("part 4: real executor, memory-aware policy; factors bitwise identical in every row",
		"run", "wall (s)", "worker peak", "predicted peak", "split fronts", "slave tasks", "steals", "2D roots", "root front (s)")
	b := make([]float64, a.N)
	row := func(name string, an *core.Analysis, cfg parmf.Config, sim parsim.Strategy) {
		res, err := an.Simulate(sim)
		if err != nil {
			log.Fatal(err)
		}
		f, _, factorT, _ := run(ctx, an, core.Plan{Parallel: &cfg}, b)
		s := f.Sched
		t.AddRow(name, fmt.Sprintf("%.3f", factorT.Seconds()), s.PeakStack, res.MaxActivePeak,
			s.SplitFronts, s.SlaveTasks, s.SlaveSteals, s.Root2DFronts, fmt.Sprintf("%.3f", float64(s.RootFrontNs)/1e9))
	}
	for _, w := range []int{1, 2, 4, 8} {
		row(fmt.Sprintf("%d workers", w), analyze(a, w), parmf.DefaultConfig(w), parsim.MemoryBased())
	}
	an := analyze(a, workers)
	for _, v := range []struct {
		name   string
		slaves parmf.SlavePolicy
		sim    parsim.Strategy
		grid   int
	}{
		{"workload slaves, 1D root", parmf.SlavesWorkload, parsim.Workload(), -1},
		{"memory slaves (Alg. 1), 1D root", parmf.SlavesMemory, parsim.MemoryBased(), -1},
		{"memory slaves, 2D auto grid", parmf.SlavesMemory, parsim.MemoryBased(), 0},
		{"memory slaves, 2D flat 1-row grid", parmf.SlavesMemory, parsim.MemoryBased(), 1},
	} {
		cfg := parmf.DefaultConfig(workers)
		cfg.SlavePolicy, cfg.RootGrid = v.slaves, v.grid
		row(fmt.Sprintf("%d workers, %s", workers, v.name), an, cfg, v.sim)
	}
	fmt.Println(t.Render())
	fmt.Println("The root front ends the tree's parallelism: a 1D split leaves the panel's")
	fmt.Println("U sweep on the master, while the 2D tile grid turns it into claimable")
	fmt.Println("tasks. Tile and row-block boundaries are pure functions of the front, so")
	fmt.Println("every row computes the same factors.")
}
