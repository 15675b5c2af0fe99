package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/assembly"
	"repro/internal/faults"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/workload"
)

// TestFactorizeOOCAllocs pins the out-of-core write path's allocations:
// records are carved out of one slab of chunks, so a sequential
// FactorizeOOC allocates at most oocAllocs more than the in-core
// Factorize of the same analysis — the store, its spill file and writer,
// the tables Bind sizes from the layout, the slab — whatever the number
// of fronts. A record buffer per front over the budget, as before the
// chunks, costs hundreds more on these trees.
func TestFactorizeOOCAllocs(t *testing.T) {
	const oocAllocs = 40
	for _, name := range []string{"SHIP_003", "PRE2"} {
		p, err := workload.ByName(workload.SmallSuite(), name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(order.ND, 2)
		cfg.OOC.Dir = t.TempDir()
		an, err := Analyze(p.NumericMatrix(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		inCore := testing.AllocsPerRun(3, func() {
			if _, err := an.Factorize(); err != nil {
				t.Fatal(err)
			}
		})
		outOfCore := testing.AllocsPerRun(3, func() {
			_, st, err := an.FactorizeOOC()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if outOfCore > inCore+oocAllocs {
			t.Errorf("%s: FactorizeOOC makes %.0f allocations over %d fronts, in-core Factorize %.0f; want at most %d more",
				name, outOfCore, an.Tree.Len(), inCore, oocAllocs)
		}
		t.Logf("%s: %.0f allocations out of core, %.0f in core, %d fronts", name, outOfCore, inCore, an.Tree.Len())
	}
}

// TestDegradedOversizedBlockSolvesBitwise: the first block larger than
// the spill budget, whose records span several chunks, fails every write
// attempt, so the store keeps it in memory, copied out of its chunks;
// the out-of-core solve still gives the in-core solution's bits.
func TestDegradedOversizedBlockSolvesBitwise(t *testing.T) {
	const budget = 2048
	p, err := workload.ByName(workload.SmallSuite(), "PRE2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(order.ND, 2)
	cfg.OOC = ooc.Options{Dir: t.TempDir(), BufferEntries: budget, RetryMax: 1, RetryBase: time.Microsecond}
	an, err := Analyze(p.NumericMatrix(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The sequential executor queues the fronts in postorder and each
	// passes the spill-write fault point once, so the k-th front's first
	// attempt is hit k+1 and its one retry hit k+2.
	k, entries := -1, int64(0)
	for i, ni := range an.Tree.Postorder() {
		nd := &an.Tree.Nodes[ni]
		if entries = assembly.FactorEntries(nd, an.Tree.Kind); entries > budget {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatalf("no block over the %d-entry budget", budget)
	}
	an.Config.OOC.Faults = faults.New(faults.Rule{Point: faults.SpillWrite, Kind: faults.KindError, Nth: int64(k + 1), Count: 2})
	sf, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	of, st, err := an.FactorizeOOC()
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()
	if s := st.Stats(); s.DegradedBlocks != 1 || s.DegradedEntries != entries || s.Blocks != an.Tree.Len()-1 {
		t.Fatalf("%d blocks degraded (%d entries), %d spilled; want front %d's %d entries degraded and %d spilled",
			s.DegradedBlocks, s.DegradedEntries, s.Blocks, k, entries, an.Tree.Len()-1)
	}
	nrhs := 3
	b := make([]float64, an.Tree.N*nrhs)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	xs, err := sf.SolveOriginalMulti(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	xo, err := of.SolveOriginalMulti(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(xo[i]) {
			t.Fatalf("x[%d]: %g out of core, %g in core (should be bitwise identical)", i, xo[i], xs[i])
		}
	}
}
