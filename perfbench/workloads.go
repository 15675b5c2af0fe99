package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// workloadSpec is one set of inputs the benchmark runs through the
// solver. See README.md for why each was chosen.
type workloadSpec struct {
	Name     string
	Matrices []string // workload.Suite problem names
	Ordering order.Method
	NRHS     int
	OOC      bool // factor into a file-backed store instead of in memory
}

var workloads = []workloadSpec{
	{Name: "smallfront", Matrices: []string{"BMWCRA_1", "ULTRASOUND3", "XENON2"}, Ordering: order.AMD, NRHS: 8},
	{Name: "ooc", Matrices: []string{"ULTRASOUND3"}, Ordering: order.ND, NRHS: 16, OOC: true},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("perfbench: unknown workload %q (want smallfront or ooc)", name)
}

// simProcs is the simulated processor count (the default of
// cmd/experiments), the regime of the paper's Tables 2-6.
const simProcs = 32

// options are the run-wide settings.
type options struct {
	Suite   []workload.Problem
	Seed    int64
	Seconds float64 // measuring time, after set-up and warm-up
	Workers int
	Spill   string // directory for out-of-core spill files
}

// problem is one matrix of a workload with its seeded inputs and the
// analysis that the reuse metrics share.
type problem struct {
	Name    string
	A       *sparse.CSC
	B       []float64 // N x NRHS row-major, original ordering
	NRHS    int
	An      *core.Analysis
	XRef    []float64  // in-core sequential solution
	Entries int64      // factor entries of the warm-up factorization
	Seq     seqFactors // latest sequential factors, which solves run against
	normA   float64
}

// config is the analysis configuration every call uses: the library
// defaults, with out-of-core spill files kept in the benchmark's own
// directory.
func (o options) config(w workloadSpec) core.Config {
	cfg := core.DefaultConfig(w.Ordering, o.Workers)
	cfg.OOC.Dir = o.Spill
	return cfg
}

// generate makes the workload's matrices and right-hand sides from the
// seed: the seed fills the values of pattern-only generators (GUPTA3)
// and every right-hand-side block; the other generators are fixed.
func generate(o options, w workloadSpec) ([]*problem, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	var ps []*problem
	for _, name := range w.Matrices {
		p, err := workload.ByName(o.Suite, name)
		if err != nil {
			return nil, err
		}
		a := p.Matrix()
		if err := sparse.FillDominant(a, rng); err != nil {
			return nil, fmt.Errorf("perfbench: fill %s: %w", name, err)
		}
		b := make([]float64, a.N*w.NRHS)
		for i := range b {
			b[i] = 2*rng.Float64() - 1
		}
		ps = append(ps, &problem{Name: name, A: a, B: b, NRHS: w.NRHS, normA: normInf(a)})
	}
	return ps, nil
}

// setup generates the inputs and runs the analysis the reuse metrics
// depend on, returning the seconds it took.
func setup(o options, w workloadSpec) ([]*problem, float64, error) {
	runtime.GC()
	t0 := time.Now()
	ps, err := generate(o, w)
	if err != nil {
		return nil, 0, err
	}
	for _, p := range ps {
		if p.An, err = core.Analyze(p.A, o.config(w)); err != nil {
			return nil, 0, fmt.Errorf("perfbench: analyze %s: %w", p.Name, err)
		}
	}
	return ps, time.Since(t0).Seconds(), nil
}

// warmUp runs one untimed in-core sequential factorization and solve per
// matrix; its solution is the reference every later solution must match
// bit for bit.
func warmUp(ps []*problem) (kernel string, err error) {
	for _, p := range ps {
		x, f, err := p.An.FactorizeAndSolve(p.B, p.NRHS)
		if err != nil {
			return "", fmt.Errorf("perfbench: warm-up %s: %w", p.Name, err)
		}
		kernel = f.Stats.Kernel
		p.Entries = f.Stats.FactorEntries
		if r := p.residual(x); !(r <= residualTol) {
			return "", fmt.Errorf("perfbench: warm-up %s: scaled residual %.3g above %.0g", p.Name, r, residualTol)
		}
		p.XRef = x
	}
	return kernel, nil
}

// residualTol bounds the scaled residual of every solution column.
const residualTol = 1e-12

// residual returns the largest scaled residual
// ‖b−Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞) over the right-hand-side columns.
func (p *problem) residual(x []float64) float64 {
	n, k := p.A.N, p.NRHS
	worst := 0.0
	xc := make([]float64, n)
	for c := 0; c < k; c++ {
		var nx, nb float64
		for i := 0; i < n; i++ {
			xc[i] = x[i*k+c]
			nx = math.Max(nx, math.Abs(xc[i]))
			nb = math.Max(nb, math.Abs(p.B[i*k+c]))
		}
		ax := p.A.MulVec(xc)
		var nr float64
		for i := 0; i < n; i++ {
			nr = math.Max(nr, math.Abs(p.B[i*k+c]-ax[i]))
		}
		r := nr / (p.normA*nx + nb)
		if math.IsNaN(r) || r > worst || math.IsNaN(worst) {
			worst = r
		}
	}
	return worst
}

// normInf is ‖A‖∞ honoring symmetric (lower-triangle) storage.
func normInf(a *sparse.CSC) float64 {
	rows := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i, v := a.RowIdx[p], math.Abs(a.Val[p])
			rows[i] += v
			if a.Kind == sparse.Symmetric && i != j {
				rows[j] += v
			}
		}
	}
	m := 0.0
	for _, r := range rows {
		m = math.Max(m, r)
	}
	return m
}

// sameBits reports whether two solutions are bitwise identical.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
