// Command memsched analyzes, factorizes and simulates one matrix.
//
// Usage:
//
//	memsched -matrix NAME|-mm FILE [-ordering METIS|PORD|AMD|AMF|RCM]
//	         [-procs P] [-strategy workload|memory] [-split N] [-numeric]
//
// -matrix selects a problem from the paper's Table-1 suite by name;
// -mm reads a MatrixMarket file instead. The tool prints the analysis
// statistics, the simulated parallel memory/time results for the chosen
// strategy, and (with -numeric) runs the real sequential factorization
// with a residual check.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/parsim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("memsched: ")
	name := flag.String("matrix", "", "suite problem name (see experiments -table 1)")
	mmFile := flag.String("mm", "", "MatrixMarket file to read instead of a suite problem")
	ordering := flag.String("ordering", "METIS", "fill-reducing ordering")
	procs := flag.Int("procs", 32, "simulated processor count")
	strategy := flag.String("strategy", "memory", "scheduling strategy: workload, memory or hybrid")
	split := flag.Int64("split", 0, "split masters larger than this many entries (0 = off)")
	numeric := flag.Bool("numeric", false, "also run the sequential numeric factorization")
	flag.Parse()

	var a *sparse.CSC
	switch {
	case *mmFile != "":
		f, err := os.Open(*mmFile)
		if err != nil {
			log.Fatal(err)
		}
		a, err = sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	case *name != "":
		p, err := workload.ByName(workload.Suite(), *name)
		if err != nil {
			log.Fatal(err)
		}
		a = p.Matrix()
	default:
		log.Fatal("need -matrix NAME or -mm FILE")
	}

	m, err := order.Parse(strings.ToUpper(*ordering))
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig(m, *procs)
	cfg.SplitThreshold = *split
	an, err := core.Analyze(a, cfg)
	if err != nil {
		log.Fatal(err)
	}
	st := an.Stats()
	fmt.Printf("matrix:      n=%d nnz=%d %v\n", st.N, st.NNZ, a.Kind)
	fmt.Printf("analysis:    %d fronts, max front %d, %d subtrees, %d type-2 nodes, %d split\n",
		st.Fronts, st.MaxFront, st.Subtrees, st.Type2Nodes, st.SplitCount)
	fmt.Printf("model:       factors %d entries, %.3g flops, sequential peak %d entries\n",
		st.FactorEntries, float64(st.Flops), st.SeqPeak)

	var strat parsim.Strategy
	switch strings.ToLower(*strategy) {
	case "workload":
		strat = parsim.Workload()
	case "memory":
		strat = parsim.MemoryBased()
	case "hybrid":
		strat = parsim.Hybrid()
	default:
		log.Fatalf("unknown strategy %q", *strategy)
	}
	res, err := an.Simulate(strat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation:  P=%d strategy=%s\n", *procs, *strategy)
	fmt.Printf("  max stack peak     %d entries (%.2fM)\n", res.MaxActivePeak, float64(res.MaxActivePeak)/1e6)
	fmt.Printf("  in-core total peak %d entries (OOC saving %.1f%%)\n",
		res.MaxTotalPeak, 100*float64(res.MaxTotalPeak-res.MaxActivePeak)/float64(res.MaxTotalPeak))
	fmt.Printf("  avg stack peak     %.0f entries (balance %.2f)\n",
		res.AvgActivePeak, float64(res.MaxActivePeak)/res.AvgActivePeak)
	fmt.Printf("  factorization time %.3f s (simulated)\n", float64(res.Makespan)/1e9)
	fmt.Printf("  messages           %d (%.1f MB)\n", res.Messages, float64(res.Bytes)/1e6)
	fmt.Printf("  slave selections   %d, Algorithm-2 deviations %d\n",
		res.SlaveSelections, res.Alg2Deviations)

	if *numeric {
		if !a.HasValues() {
			log.Fatal("matrix has no values; cannot factorize numerically")
		}
		rng := rand.New(rand.NewSource(1))
		b := make([]float64, a.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, f, err := an.FactorizeAndSolve(b, 1)
		if err != nil {
			log.Fatal(err)
		}
		ax := a.MulVec(x)
		var rn, bn float64
		for i := range b {
			d := ax[i] - b[i]
			rn += d * d
			bn += b[i] * b[i]
		}
		fmt.Printf("numeric:     peak stack %d entries, relative residual %.2e\n",
			f.Stats.PeakStack, rn/bn)
	}
}
