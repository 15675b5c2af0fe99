// Parallel: factor the same SPD system sequentially and with the real
// shared-memory parallel executor, cross-check the factors entry by entry,
// and compare wall-clock times and per-worker memory peaks — the live
// counterpart of the simulator comparison in examples/quickstart.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	// A 3D Poisson problem, symmetric positive definite.
	a := sparse.Grid3D(24, 24, 24)
	fmt.Printf("matrix: n=%d, nnz=%d (%v)\n", a.N, a.NNZ(), a.Kind)

	// Symbolic analysis with nested dissection; the 4-processor static
	// mapping also defines the leaf-subtree tasks the executor batches.
	an, err := core.Analyze(a, core.DefaultConfig(order.ND, 4))
	if err != nil {
		log.Fatal(err)
	}
	st := an.Stats()
	fmt.Printf("analysis: %d fronts, max front %d, %d subtrees, sequential peak %d entries\n",
		st.Fronts, st.MaxFront, st.Subtrees, st.SeqPeak)

	t0 := time.Now()
	sf, err := an.Factorize()
	if err != nil {
		log.Fatal(err)
	}
	seqT := time.Since(t0)
	fmt.Printf("sequential: %.3fs, peak %d entries\n", seqT.Seconds(), sf.Stats.PeakStack)

	t0 = time.Now()
	pf, err := an.FactorizeParallel(parmf.DefaultConfig(4))
	if err != nil {
		log.Fatal(err)
	}
	parT := time.Since(t0)
	fmt.Printf("parallel:   %.3fs with %d workers (speedup %.2fx)\n",
		parT.Seconds(), pf.Stats.Workers, seqT.Seconds()/parT.Seconds())
	for w, p := range pf.Stats.WorkerPeaks {
		fmt.Printf("  worker %d: peak %d entries (bound %d)\n", w, p, pf.Stats.PeakBound)
	}
	fmt.Printf("  %d tasks, %d deviations, %d forced activations\n",
		pf.Stats.Tasks, pf.Stats.Deviations, pf.Stats.Forced)

	// Static pivoting makes the two factorizations identical.
	// Both in-core stores lay the blocks out alike: compare L and U in one
	// pass over the slabs.
	var maxDiff float64
	pslab := pf.Front().Slab()
	for p, v := range sf.Front().Slab() {
		maxDiff = math.Max(maxDiff, math.Abs(v-pslab[p]))
	}
	fmt.Printf("cross-check: max |LU_seq - LU_par| = %.3g\n", maxDiff)

	// And the parallel factors solve the system.
	rng := rand.New(rand.NewSource(42))
	x0 := make([]float64, a.N)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	b := a.MulVec(x0)
	x, err := pf.SolveOriginal(b)
	if err != nil {
		log.Fatal(err)
	}
	var errNorm float64
	for i := range x {
		errNorm += (x[i] - x0[i]) * (x[i] - x0[i])
	}
	fmt.Printf("solve: ||x - x0|| = %.3g\n", math.Sqrt(errNorm))

	// The solve phase is tree-parallel too, and deterministic: a blocked
	// multi-RHS solve over the workers matches the sequential factors'
	// solve bit for bit, column by column.
	const nrhs = 3
	bs := make([]float64, a.N*nrhs)
	for i := 0; i < a.N; i++ {
		for c := 0; c < nrhs; c++ {
			bs[i*nrhs+c] = b[i] / float64(c+1)
		}
	}
	xp, err := pf.SolveOriginalMulti(bs, nrhs)
	if err != nil {
		log.Fatal(err)
	}
	xq, err := sf.SolveOriginalMulti(bs, nrhs)
	if err != nil {
		log.Fatal(err)
	}
	for i := range xp {
		if xp[i] != xq[i] {
			log.Fatalf("parallel and sequential multi-RHS solves differ at %d", i)
		}
	}
	fmt.Printf("multi-rhs: %d systems, parallel == sequential bitwise\n", nrhs)
}
