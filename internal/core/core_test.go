package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/front"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// TestSurface pins the size of the facade: the exported functions and
// methods of package core, test files aside. Deleting an entry point
// lowers the count; adding one means retiring another.
func TestSurface(t *testing.T) {
	const maxExported = 16
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				names = append(names, fd.Name.Name)
			}
		}
	}
	if len(names) > maxExported {
		t.Errorf("package core exports %d functions and methods, at most %d allowed: %v", len(names), maxExported, names)
	}
}

func TestAnalyzeFactorizeSimulate(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	an, err := Analyze(a, DefaultConfig(order.ND, 4))
	if err != nil {
		t.Fatal(err)
	}
	st := an.Stats()
	if st.N != a.N || st.Fronts == 0 || st.Flops <= 0 || st.SeqPeak <= 0 {
		t.Fatalf("bad stats %+v", st)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.PeakStack != an.SeqPeak {
		t.Errorf("numeric peak %d != analysis SeqPeak %d", f.Stats.PeakStack, an.SeqPeak)
	}
	for _, s := range []parsim.Strategy{parsim.Workload(), parsim.MemoryBased()} {
		res, err := an.Simulate(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.NodesDone != an.Tree.Len() {
			t.Fatal("incomplete simulation")
		}
	}
}

// TestDefaultConfigKernel pins the shipped kernel family: the SIMD
// kernels exactly where the vector path is available, the bitwise
// default family everywhere else.
func TestDefaultConfigKernel(t *testing.T) {
	want := dense.KernelDefault
	if dense.SIMDAvailable() {
		want = dense.KernelSIMD
	}
	if got := DefaultConfig(order.AMD, 2).Kernel.Resolve(); got != want {
		t.Fatalf("DefaultConfig kernel resolves to %v, want %v (SIMD available: %v)", got, want, dense.SIMDAvailable())
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, DefaultConfig(order.AMD, 2)); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := Analyze(&sparse.CSC{ColPtr: []int{0}}, DefaultConfig(order.AMD, 2)); err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestAnalyzeDefaultsProcs(t *testing.T) {
	a := sparse.Grid2D(8, 8)
	cfg := DefaultConfig(order.AMD, 0) // invalid proc count
	an, err := Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if an.Mapping.P != 1 {
		t.Errorf("P = %d, want clamped to 1", an.Mapping.P)
	}
}

func TestWithSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := sparse.Grid3DUnsym(8, 8, 8, rng)
	an, err := Analyze(a, DefaultConfig(order.ND, 8))
	if err != nil {
		t.Fatal(err)
	}
	big := an.LargestMaster()
	if big == 0 {
		t.Skip("no non-root masters")
	}
	sp, err := an.WithSplit(big/2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sp.SplitCount == 0 {
		t.Fatal("nothing split at half the largest master")
	}
	if sp.Tree.Len() <= an.Tree.Len() {
		t.Error("split tree not larger")
	}
	if sp.LargestMaster() >= big {
		t.Errorf("largest master not reduced: %d -> %d", big, sp.LargestMaster())
	}
	// Both analyses remain simulable and consistent.
	r1, err := an.Simulate(parsim.MemoryBased())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sp.Simulate(parsim.MemoryBased())
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalFactors != r2.TotalFactors {
		t.Errorf("splitting changed factor entries: %d vs %d (unsym chains preserve them)",
			r1.TotalFactors, r2.TotalFactors)
	}
	// Splitting at analysis time and afterwards is one pipeline.
	cfg := an.Config
	cfg.SplitThreshold, cfg.SplitMinPiv = big/2, 4
	direct, err := Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Tree, sp.Tree) {
		t.Error("Analyze with SplitThreshold and WithSplit built different trees")
	}
	if !reflect.DeepEqual(direct.Mapping, sp.Mapping) {
		t.Error("Analyze with SplitThreshold and WithSplit built different mappings")
	}
	if direct.SeqPeak != sp.SeqPeak || direct.SplitCount != sp.SplitCount {
		t.Errorf("SeqPeak/SplitCount %d/%d direct, %d/%d via WithSplit",
			direct.SeqPeak, direct.SplitCount, sp.SeqPeak, sp.SplitCount)
	}
}

func TestSplitViaConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := sparse.Grid3DUnsym(7, 7, 7, rng)
	cfg := DefaultConfig(order.ND, 4)
	pre, err := Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SplitThreshold = pre.LargestMaster() / 2
	an, err := Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if an.SplitCount == 0 {
		t.Error("config-driven split did nothing")
	}
}

func TestStatsCounts(t *testing.T) {
	a := sparse.Grid3D(9, 9, 9)
	an, err := Analyze(a, DefaultConfig(order.ND, 8))
	if err != nil {
		t.Fatal(err)
	}
	st := an.Stats()
	if st.Subtrees != len(an.Mapping.SubRoot) {
		t.Errorf("subtrees %d vs %d", st.Subtrees, len(an.Mapping.SubRoot))
	}
	t2 := 0
	for i := range an.Tree.Nodes {
		if an.Mapping.Types[i] == assembly.Type2 {
			t2++
		}
	}
	if st.Type2Nodes != t2 {
		t.Errorf("type2 count %d vs %d", st.Type2Nodes, t2)
	}
	if st.FactorEntries != assembly.TotalFactorEntries(an.Tree) {
		t.Error("factor entries mismatch")
	}
}

// TestFactorizeOOC: the sequential out-of-core wrapper spills every
// block, holds no in-memory slab, stays resident below the in-core run
// and solves bitwise like it.
func TestFactorizeOOC(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	cfg := DefaultConfig(order.ND, 4)
	cfg.OOC.Dir = t.TempDir()
	an, err := Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	of, st, err := an.FactorizeOOC()
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()
	if of.Front() != nil {
		t.Error("OOC factors expose an in-memory container")
	}
	if st.Stats().Blocks != an.Tree.Len() {
		t.Errorf("spilled %d blocks, want %d", st.Stats().Blocks, an.Tree.Len())
	}
	if of.Stats.ResidentPeak >= sf.Stats.ResidentPeak {
		t.Errorf("OOC resident peak %d not below in-core %d",
			of.Stats.ResidentPeak, sf.Stats.ResidentPeak)
	}
	// Same factors → identical solves.
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	xs, err := sf.SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	xo, err := of.SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(xo[i]) {
			t.Fatalf("x[%d]: %g vs %g (should be bitwise identical)", i, xs[i], xo[i])
		}
	}
}

// TestFactorizeParallelOOC: the parallel out-of-core wrapper spills
// every block and solves bitwise like the sequential in-core oracle.
func TestFactorizeParallelOOC(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	cfg := DefaultConfig(order.ND, 4)
	cfg.OOC.Dir = t.TempDir()
	an, err := Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pf, st, err := an.FactorizeParallelOOC(parmf.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if st.Stats().Blocks != an.Tree.Len() {
		t.Errorf("spilled %d blocks, want %d", st.Stats().Blocks, an.Tree.Len())
	}
	sf, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	xs, err := sf.SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	xp, err := pf.SolveOriginalMulti(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(xp[i]) {
			t.Fatalf("x[%d]: %g vs %g (should be bitwise identical)", i, xs[i], xp[i])
		}
	}
}

// TestSpillFileMatchesAcrossExecutors: the file store reserves every
// record in postorder, so the parallel executor — whatever order its
// workers finish fronts in, with or without within-front tasks — writes
// the sequential executor's spill file byte for byte (default kernel
// family, whose factors are bitwise identical across executors). Both
// stores share one layout: record by record, the file is the in-core
// slab, each node's range framed by a header and a checksum word.
func TestSpillFileMatchesAcrossExecutors(t *testing.T) {
	for _, name := range []string{"SHIP_003", "PRE2"} {
		p, err := workload.ByName(workload.SmallSuite(), name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(order.ND, 8)
		cfg.Kernel = dense.KernelDefault
		cfg.OOC.Dir = t.TempDir()
		an, err := Analyze(p.NumericMatrix(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sf, st, err := an.FactorizeOOC()
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(st.Path())
		sf.Close()
		if err != nil {
			t.Fatal(err)
		}
		in, err := an.Factorize()
		if err != nil {
			t.Fatal(err)
		}
		if err := recordsAreSlab(want, in.Front()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, workers := range []int{2, 8} {
			pcfg := parmf.DefaultConfig(workers)
			if workers == 8 {
				pcfg.FrontSplit = 32 // within-front tasks and a 2D root too
			}
			pf, st, err := an.FactorizeParallelOOC(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(st.Path())
			pf.Close()
			if err != nil {
				t.Fatal(err)
			}
			if workers == 8 && pf.Stats.SplitFronts == 0 {
				t.Errorf("%s: no front split at FrontSplit 32", name)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %d-worker spill file (%d bytes) differs from the sequential one (%d bytes)",
					name, workers, len(got), len(want))
			}
		}
	}
}

// recordsAreSlab returns an error unless the spill file raw holds the
// layout's regions — every node's L record in postorder, then for
// unsymmetric matrices every node's U record in postorder — each record
// framing that node's part of the in-core slab, bit for bit: three
// header words (npiv, front order, part), the part, a checksum word.
func recordsAreSlab(raw []byte, in *front.Factors) error {
	word := func(at int) uint64 { return binary.NativeEndian.Uint64(raw[8*at:]) }
	at := 0
	for p := range front.Part(front.Parts(in.Layout.Kind)) {
		for _, ni := range in.Layout.Tree.Postorder() {
			nd, blk := &in.Layout.Tree.Nodes[ni], in.Block(ni, p)
			if 8*(at+len(blk)+4) > len(raw) {
				return fmt.Errorf("node %d part %v: file ends at byte %d", ni, p, len(raw))
			}
			if h := [3]uint64{word(at), word(at + 1), word(at + 2)}; h != [3]uint64{uint64(nd.NPiv()), uint64(nd.NFront()), uint64(p)} {
				return fmt.Errorf("node %d part %v: record header %v", ni, p, h)
			}
			for k, v := range blk {
				if word(at+3+k) != math.Float64bits(v) {
					return fmt.Errorf("node %d part %v: record word %d differs from the slab", ni, p, k)
				}
			}
			at += len(blk) + 4
		}
	}
	if 8*at != len(raw) {
		return fmt.Errorf("%d bytes of records, file has %d", 8*at, len(raw))
	}
	return nil
}

// TestFactorizeParallelMatchesSequential: the parallel wrapper defaults
// its workers to the analysis procs, batches the mapping's subtrees into
// fewer tasks than fronts, and stores the oracle's slab entry for entry.
func TestFactorizeParallelMatchesSequential(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	an, err := Analyze(a, DefaultConfig(order.ND, 4))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	pf, err := an.FactorizeParallel(parmf.DefaultConfig(0)) // 0 → Procs
	if err != nil {
		t.Fatal(err)
	}
	if pf.Stats.Workers != 4 {
		t.Errorf("workers %d, want analysis procs 4", pf.Stats.Workers)
	}
	// Subtree tasks come from the mapping, so fewer tasks than fronts.
	if pf.Stats.Tasks >= pf.Stats.Fronts {
		t.Errorf("tasks %d not batched below fronts %d", pf.Stats.Tasks, pf.Stats.Fronts)
	}
	if pf.Stats.FactorEntries != sf.Stats.FactorEntries {
		t.Errorf("factor entries %d vs %d", pf.Stats.FactorEntries, sf.Stats.FactorEntries)
	}
	pslab := pf.Front().Slab()
	for p, v := range sf.Front().Slab() {
		if v != pslab[p] {
			t.Fatalf("factor entry %d differs: %g vs %g", p, v, pslab[p])
		}
	}
}

// TestFactorizeAndSolve covers the facade's factor-and-solve variants:
// the sequential and tree-parallel paths must agree bit for bit on a
// multi-RHS block (in original ordering) and actually solve the system.
func TestFactorizeAndSolve(t *testing.T) {
	a := sparse.Grid3D(6, 6, 6)
	if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(a, DefaultConfig(order.ND, 4))
	if err != nil {
		t.Fatal(err)
	}
	const nrhs = 4
	rng := rand.New(rand.NewSource(2))
	b := make([]float64, a.N*nrhs)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xs, sf, err := an.FactorizeAndSolve(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	if sf == nil {
		t.Fatal("nil sequential factors")
	}
	xp, pf, err := an.FactorizeParallelAndSolve(parmf.DefaultConfig(4), b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Stats.Workers != 4 {
		t.Fatalf("parallel run used %d workers", pf.Stats.Workers)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(xp[i]) {
			t.Fatalf("parallel x differs at %d: %v != %v", i, xp[i], xs[i])
		}
	}
	// Residual check column 0: the block is row-major n x nrhs.
	x0 := make([]float64, a.N)
	b0 := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		x0[i], b0[i] = xs[i*nrhs], b[i*nrhs]
	}
	ax := a.MulVec(x0)
	for i := range ax {
		if d := ax[i] - b0[i]; !(math.Abs(d) <= 1e-8) {
			t.Fatalf("residual at %d: %g", i, d)
		}
	}
	// Validation surfaces from the solve layer.
	if _, _, err := an.FactorizeAndSolve(b, 0); err == nil {
		t.Error("zero nrhs accepted")
	}
	if _, _, err := an.FactorizeParallelAndSolve(parmf.DefaultConfig(2), b[:3], nrhs); err == nil {
		t.Error("short block accepted")
	}
}
