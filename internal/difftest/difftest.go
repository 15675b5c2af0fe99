// Package difftest is the executors' differential harness: one table of
// factorizations (executor, worker count, within-front partition, factor
// store, kernel family, right-hand-side count), each checked bit for bit
// against its kernel family's sequential in-core reference on every
// Table-1 problem.
//
// The table is cut into groups, one per property, and each group is run
// by the test of its name in the package whose executor path it covers:
// CrossValidate, SolveMulti and SIMD from parmf, Hybrid and Type3 from
// nodepar, OOC from ooc. Within one test binary every problem is
// analysed once per suite scale and every reference factored once,
// whichever of the binary's groups asks first.
package difftest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/front"
	"repro/internal/memory"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/seqmf"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// Group is the property a row of the table checks.
type Group int

const (
	CrossValidate Group = iota // parmf: default-family tree-parallel runs at 1, 2 and 8 workers
	SolveMulti                 // parmf: the oracle's blocked 3-column and tree-parallel solves
	SIMD                       // parmf: the simd family, sequential and forced-split parallel, in core and spilled
	Hybrid                     // nodepar: type-2 row blocks, roots included
	Type3                      // nodepar: split roots on the automatic and the flat 2D tile grid
	OOC                        // ooc: sequential and parallel runs spilling to a file store
)

// partition is how a parallel run cuts fronts into within-front tasks.
type partition int

const (
	whole     partition = iota // parmf.DefaultConfig: every front is one task
	type2                      // fronts from the type-2 threshold up on 1D row blocks, roots included
	type3                      // the same, with split roots on the automatic 2D tile grid
	type3Flat                  // the same, with split roots on a flat 1 x W grid
	forced                     // every front of forcedSplit rows or more split, roots on a 2-row grid
)

// forcedSplit is the forced partition's split threshold: low enough that
// the small-scale problems have fronts to split.
const forcedSplit = 128

func (p partition) String() string {
	return [...]string{"whole", "type2", "type3", "type3flat", "forced"}[p]
}

type storeKind int

const (
	mem  storeKind = iota // factors stay in memory (front.Factors)
	file                  // factors spill to an ooc.FileStore as produced
)

// row is one configuration of the harness: one factorization, checked
// against its kernel family's sequential in-core reference.
type row struct {
	group   Group
	kernel  dense.Kernel
	workers int // 0 runs seqmf, more run parmf
	part    partition
	store   storeKind
	nrhs    int // 1: one column; 3: a block
}

func (r row) String() string {
	s := r.kernel.String() + "-seq"
	if r.workers > 0 {
		s = fmt.Sprintf("%v-par%d-%v", r.kernel, r.workers, r.part)
	}
	return fmt.Sprintf("%s-%s-nrhs%d", s, [...]string{"mem", "file"}[r.store], r.nrhs)
}

// inCore is the map key of r's in-core twin: the same factorization
// into memory, whichever group runs it. A one-worker run's twin is the
// reference, whose ExecStats every one-worker row reproduces exactly.
func (r row) inCore() row {
	r.group, r.store, r.nrhs = 0, mem, 0
	if r.workers == 1 {
		r.workers, r.part = 0, whole
	}
	return r
}

const (
	def  = dense.KernelDefault
	simd = dense.KernelSIMD
)

// rows is the table. A family's sequential in-core factorization is its
// reference; SolveMulti's row checks the oracle's solves, and SIMD's
// first row the simd reference itself. The SIMD rows run on SmallSuite
// at every scale.
var rows = []row{
	// group, kernel, workers, partition, store, nrhs
	{SolveMulti, def, 0, whole, mem, 3}, // the element-wise oracle

	{CrossValidate, def, 1, whole, mem, 1},
	{CrossValidate, def, 2, whole, mem, 1},
	{CrossValidate, def, 8, whole, mem, 1},

	{Hybrid, def, 2, type2, mem, 1},
	{Hybrid, def, 8, type2, mem, 1},

	{Type3, def, 2, type3, mem, 1},
	{Type3, def, 2, type3Flat, mem, 1},
	{Type3, def, 8, type3, mem, 1},
	{Type3, def, 8, type3Flat, mem, 1},

	{OOC, def, 0, whole, file, 3},
	{OOC, def, 1, whole, file, 1},
	{OOC, def, 2, whole, file, 1},
	{OOC, def, 8, whole, file, 1},

	{SIMD, simd, 0, whole, mem, 1}, // sequential simd
	{SIMD, simd, 0, whole, file, 1},
	{SIMD, simd, 1, forced, mem, 1},
	{SIMD, simd, 2, forced, mem, 1},
	{SIMD, simd, 2, forced, file, 1},
	{SIMD, simd, 8, forced, mem, 1},
}

// Run runs g's rows on every Table-1 problem, one parallel subtest per
// problem and one sub-subtest per row: at Suite scale, or SmallSuite
// under -short; the SIMD rows on SmallSuite at every scale. Each row is
// factored once and checked against its family's sequential in-core
// reference — the element-wise oracle for the default family,
// sequential simd for simd:
//
//   - the factors are bitwise identical, spilled blocks read back off
//     disk included (the default kernels replicate the element-wise
//     operation order, every partition is a pure function of the front,
//     the simd chains compute the same bits at every partition, and the
//     spill format round-trips float bits);
//   - the solves are bitwise identical to the reference's, for a
//     3-column block also through the tree-parallel solver at 1, 2 and 8
//     workers;
//   - seqmf and one-worker parmf replay the reference traversal: equal
//     ExecStats (the resident peak aside when spilling), and no
//     Algorithm-2 deviation or forced activation;
//   - at more workers the within-front paths the partition asks for ran;
//   - a file store holds every block, keeps the resident peak at or
//     below the in-core twin's, and a sequential solve streams it exactly
//     once forward and once backward, whatever the column count.
//
// Every reference is checked once when it is factored: its kernel stat,
// and its residual (at most 1e-7 for the oracle, within 10x of the
// oracle's for simd). SolveMulti's row adds the oracle's blocked 3-column
// solve against per-column solves and the tree-parallel solves against
// the blocked one.
func Run(t *testing.T, g Group) {
	suite := workload.Suite()
	if scaleOf(g) == small {
		suite = workload.SmallSuite()
	}
	for _, wp := range suite {
		t.Run(wp.Name, func(t *testing.T) {
			t.Parallel()
			key := fmt.Sprint(scaleOf(g), wp.Name)
			p := lookup(key)
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.tree == nil {
				p.analyse(wp)
			}
			for _, r := range rows {
				if r.group == g {
					t.Run(r.String(), func(t *testing.T) { p.check(t, r) })
				}
			}
			p.ran = append(p.ran, g)
			if !slices.ContainsFunc(siblings(g), func(h Group) bool { return !slices.Contains(p.ran, h) }) {
				drop(key)
			}
		})
	}
}

const (
	full = iota
	small
)

func scaleOf(g Group) int {
	if g == SIMD || testing.Short() {
		return small
	}
	return full
}

// binaries lists the groups each test binary runs: parmf's, nodepar's
// and ooc's.
var binaries = [][]Group{{CrossValidate, SolveMulti, SIMD}, {Hybrid, Type3}, {OOC}}

// siblings are the groups that share g's analysed problems: those its
// binary runs at its scale, g included.
func siblings(g Group) []Group {
	for _, b := range binaries {
		if slices.Contains(b, g) {
			return slices.DeleteFunc(slices.Clone(b), func(h Group) bool { return scaleOf(h) != scaleOf(g) })
		}
	}
	return []Group{g}
}

// cache holds the test binary's analysed problems by scale and name, so
// that the groups one binary runs share analyses and references. A
// problem is dropped once all its siblings ran on it; a later run (as
// under -count) analyses it afresh.
var cache = struct {
	sync.Mutex
	m map[string]*problem
}{m: map[string]*problem{}}

func lookup(key string) *problem {
	cache.Lock()
	defer cache.Unlock()
	p := cache.m[key]
	if p == nil {
		p = &problem{}
		cache.m[key] = p
	}
	return p
}

func drop(key string) {
	cache.Lock()
	defer cache.Unlock()
	delete(cache.m, key)
}

// problem is one suite problem analysed at one scale, with the
// references of its kernel families and the resident peaks of its
// in-core rows. mu serialises the groups that share it.
type problem struct {
	mu     sync.Mutex
	ran    []Group // the groups that ran on it
	a, pa  *sparse.CSC
	tree   *assembly.Tree
	b1, b3 []float64 // one right-hand side, and a 3-column block

	split                   int  // the mapping's type-2 threshold
	rootSplits              bool // a root front reaches split
	forcedFront, forcedRoot bool // a front / a root front reaches forcedSplit

	refs  map[dense.Kernel]*reference
	peaks map[row]int64 // ResidentPeak of the in-core rows, by row.inCore
}

func (p *problem) analyse(wp workload.Problem) {
	a := wp.NumericMatrix()
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	assembly.SortChildrenLiu(tree)
	p.a, p.pa, p.tree = a, pa, tree
	p.b1, p.b3 = RHSBlock(a.N, 1, 99), RHSBlock(a.N, 3, 99)
	p.refs, p.peaks = map[dense.Kernel]*reference{}, map[row]int64{}
	maxFront, rootFront := 0, 0
	for i := range tree.Nodes {
		nf, root := tree.Nodes[i].NFront(), tree.Nodes[i].Parent < 0
		maxFront = max(maxFront, nf)
		if root {
			rootFront = max(rootFront, nf)
		}
		if nf >= forcedSplit && nf > dense.DefaultBlockRows {
			p.forcedFront = true
			p.forcedRoot = p.forcedRoot || root
		}
	}
	p.split = assembly.DefaultType2MinFront(maxFront)
	p.rootSplits = rootFront >= p.split && rootFront > dense.DefaultBlockRows
}

// reference is a kernel family's sequential in-core factorization and
// its solves of the problem's right-hand sides.
type reference struct {
	f      *seqmf.Factors
	x1, x3 []float64 // SolveOriginalMulti(b1, 1), SolveOriginalMulti(b3, 3)
	err    error
}

// reference factors and checks kern's reference on first use: the
// element-wise oracle for the default family, the simd kernels for simd.
func (p *problem) reference(kern dense.Kernel) (*reference, error) {
	if ref, ok := p.refs[kern]; ok {
		return ref, ref.err
	}
	ref := &reference{}
	p.refs[kern] = ref
	opt := front.Options{Kernel: kern}
	bound := 1e-7
	if kern == def {
		opt.BlockRows = -1
	} else {
		oracle, err := p.reference(def)
		if err != nil {
			ref.err = fmt.Errorf("oracle: %w", err)
			return ref, ref.err
		}
		bound = 10*Residual(p.a, oracle.x1, p.b1) + 1e-13
	}
	ref.f, ref.err = seqmf.Factorize(context.Background(), p.pa, p.tree, opt, nil)
	if ref.err == nil {
		ref.x1, ref.err = ref.f.SolveOriginalMulti(p.b1, 1)
	}
	if ref.err == nil {
		ref.x3, ref.err = ref.f.SolveOriginalMulti(p.b3, 3)
	}
	if ref.err == nil && ref.f.Stats.Kernel != kern.String() {
		ref.err = fmt.Errorf("kernel stat %q, want %v", ref.f.Stats.Kernel, kern)
	}
	if ref.err == nil {
		if res := Residual(p.a, ref.x1, p.b1); !(res <= bound) {
			ref.err = fmt.Errorf("residual %g over %g", res, bound)
		}
	}
	if ref.err == nil {
		p.peaks[row{kernel: kern}.inCore()] = ref.f.Stats.ResidentPeak
	}
	return ref, ref.err
}

// run is one row's factorization as the harness sees it.
type run struct {
	factors interface {
		Store() front.Store
		SolveOriginalMulti(b []float64, nrhs int) ([]float64, error)
	}
	exec memory.ExecStats
	par  *parmf.Stats // nil for seqmf
}

func (p *problem) factor(r row, st front.Store) (run, error) {
	opt := front.Options{Kernel: r.kernel}
	if r.workers == 0 {
		f, err := seqmf.Factorize(context.Background(), p.pa, p.tree, opt, st)
		if err != nil {
			return run{}, err
		}
		return run{f, f.Stats, nil}, nil
	}
	cfg := parmf.DefaultConfig(r.workers)
	cfg.Store = st
	switch r.part {
	case type2:
		cfg.FrontSplit, cfg.RootGrid = p.split, -1
	case type3:
		cfg.FrontSplit = p.split
	case type3Flat:
		cfg.FrontSplit, cfg.RootGrid = p.split, 1
	case forced:
		cfg.FrontSplit, cfg.RootGrid = forcedSplit, 2
	}
	f, err := parmf.Factorize(context.Background(), p.pa, p.tree, cfg, opt)
	if err != nil {
		return run{}, err
	}
	return run{f, f.Stats.ExecStats, &f.Stats}, nil
}

func (p *problem) check(t *testing.T, r row) {
	ref, err := p.reference(r.kernel)
	if err != nil {
		t.Fatalf("%v reference: %v", r.kernel, err)
	}
	if r.workers == 0 && r.store == mem {
		p.checkReference(t, r, ref)
		return
	}
	var fs *ooc.FileStore
	var st front.Store // stays a nil interface for mem rows
	if r.store == file {
		// A buffer of a sixteenth of the factors, so spilling matters.
		budget := max(assembly.TotalFactorEntries(p.tree)/16, 256)
		if fs, err = ooc.NewFileStore(ooc.Options{Dir: t.TempDir(), BufferEntries: budget}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		st = fs
	}
	f, err := p.factor(r, st)
	if err != nil {
		t.Fatal(err)
	}

	if r.workers <= 1 {
		want := ref.f.Stats
		if fs != nil {
			want.ResidentPeak = f.exec.ResidentPeak // checked against the twin below
		}
		if f.exec != want {
			t.Errorf("stats %+v, reference %+v", f.exec, want)
		}
	} else if f.exec.FactorEntries != ref.f.Stats.FactorEntries || f.exec.Kernel != ref.f.Stats.Kernel {
		t.Errorf("%d factor entries through %q kernels, reference %d through %q",
			f.exec.FactorEntries, f.exec.Kernel, ref.f.Stats.FactorEntries, ref.f.Stats.Kernel)
	}
	if s := f.par; s != nil && r.workers == 1 && (s.Deviations != 0 || s.Forced != 0 || s.Waits != 0) {
		t.Errorf("1-worker run deviated: %d deviations, %d waits, %d forced", s.Deviations, s.Waits, s.Forced)
	}
	if s := f.par; s != nil && r.workers > 1 {
		if err := p.pathsRan(r.part, s); err != nil {
			t.Error(err)
		}
	}
	if fs == nil {
		p.peaks[r.inCore()] = f.exec.ResidentPeak
	} else {
		if in, err := p.twinPeak(r); err != nil {
			t.Errorf("in-core twin: %v", err)
		} else if f.exec.ResidentPeak > in {
			t.Errorf("spilled resident peak %d > in-core %d", f.exec.ResidentPeak, in)
		}
		if got := fs.Stats().Blocks; got != p.tree.Len() {
			t.Errorf("spilled %d blocks, want %d", got, p.tree.Len())
		}
	}

	before := ooc.Stats{}
	if fs != nil {
		before = fs.Stats()
	}
	b, want := p.b1, ref.x1
	if r.nrhs == 3 {
		b, want = p.b3, ref.x3
	}
	x, err := f.factors.SolveOriginalMulti(b, r.nrhs)
	if err == nil {
		err = SameBits("x", x, want)
	}
	if err != nil {
		t.Fatal(err)
	}
	if fs != nil && r.workers == 0 {
		after := fs.Stats()
		reads, direct, blocks := after.BlocksRead-before.BlocksRead, after.DirectReads-before.DirectReads, int64(after.Blocks)
		if reads < 2*blocks || reads > 2*blocks+direct {
			t.Errorf("%d-RHS solve read %d blocks, want 2 passes over %d (+%d direct)", r.nrhs, reads, blocks, direct)
		}
	}
	if r.nrhs == 3 {
		treeSolves(t, p, f.factors.Store(), r.kernel, ref.x3)
	}
	if err := CompareFactors(p.tree, ref.f.Store(), f.factors.Store()); err != nil {
		t.Fatal(err)
	}
	if fs != nil {
		if err := fs.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
}

// twinPeak is the resident peak of r's in-core twin, factored here when
// no row of the binary's groups has run it yet.
func (p *problem) twinPeak(r row) (int64, error) {
	twin := r.inCore()
	if peak, ok := p.peaks[twin]; ok {
		return peak, nil
	}
	f, err := p.factor(twin, nil)
	if err != nil {
		return 0, err
	}
	p.peaks[twin] = f.exec.ResidentPeak
	return f.exec.ResidentPeak, nil
}

// checkReference runs a reference row's checks beyond those reference
// ran: for a 3-column block, the blocked solve against per-column solves
// and the tree-parallel solves against the blocked one.
func (p *problem) checkReference(t *testing.T, r row, ref *reference) {
	if r.nrhs != 3 {
		return
	}
	n := p.a.N
	for c := 0; c < 3; c++ {
		x, err := ref.f.SolveOriginalMulti(Col(p.b3, n, 3, c), 1)
		if err == nil {
			err = SameBits(fmt.Sprintf("block column %d vs single solve", c), Col(ref.x3, n, 3, c), x)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	treeSolves(t, p, ref.f.Store(), r.kernel, ref.x3)
}

// treeSolves checks the tree-parallel solve of the 3-column block over st
// at 1, 2 and 8 workers against want.
func treeSolves(t *testing.T, p *problem, st front.Store, kern dense.Kernel, want []float64) {
	t.Helper()
	for _, workers := range []int{1, 2, 8} {
		x, err := parmf.NewTreeSolver(st, p.tree, p.pa.Kind, workers, kern).SolveOriginalMulti(p.b3, 3)
		if err == nil {
			err = SameBits(fmt.Sprintf("tree solve at %d workers", workers), x, want)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// pathsRan returns an error when a multi-worker run skipped a
// within-front path its partition asks for.
func (p *problem) pathsRan(part partition, s *parmf.Stats) error {
	switch part {
	case type2:
		if s.SplitFronts == 0 || s.SlaveTasks == 0 {
			return fmt.Errorf("type-2 path idle: %d split fronts, %d slave tasks (threshold %d)",
				s.SplitFronts, s.SlaveTasks, p.split)
		}
	case type3, type3Flat:
		if p.rootSplits && s.Root2DFronts == 0 {
			return fmt.Errorf("a root front reaches threshold %d but no 2D root ran", p.split)
		}
		if s.Root2DFronts > 0 && s.RootFrontNs == 0 {
			return errors.New("2D root ran but RootFrontNs not recorded")
		}
	case forced:
		if p.forcedFront && s.SplitFronts+s.Root2DFronts == 0 {
			return errors.New("no front took a split path")
		}
		if p.forcedRoot && s.Root2DFronts == 0 {
			return errors.New("no root took the 2D path")
		}
	}
	return nil
}

// SameBits returns an error unless got holds want's float bits at every
// position. A NaN never matches, not even the same NaN: no correct factor
// or solution contains one.
func SameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) || math.IsNaN(w) {
			return fmt.Errorf("%s: entry %d is %v, want %v", what, i, got[i], w)
		}
	}
	return nil
}

// CompareFactors returns an error unless got holds want's factorization
// of tree bit for bit: the same factor parts, L and U with their
// structural zeros as front.Layout lays them out, on every front.
func CompareFactors(tree *assembly.Tree, want, got front.Store) error {
	for p := range front.Part(front.Parts(tree.Kind)) {
		for ni := range tree.Nodes {
			w, err := want.Fetch(ni, p)
			if err != nil {
				return fmt.Errorf("node %d: %w", ni, err)
			}
			g, err := got.Fetch(ni, p)
			if err == nil {
				err = SameBits(p.String(), g, w)
				got.Release(ni, p)
			}
			want.Release(ni, p)
			if err != nil {
				return fmt.Errorf("node %d: %w", ni, err)
			}
		}
	}
	return nil
}

// Residual is the relative residual ||a x - b|| / ||b||; NaN if x holds
// one, so bounds are checked as !(Residual <= bound).
func Residual(a *sparse.CSC, x, b []float64) float64 {
	ax := a.MulVec(x)
	var rn, bn float64
	for i := range b {
		d := ax[i] - b[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn / bn)
}

// RHSBlock builds a deterministic n x nrhs row-major RHS block.
func RHSBlock(n, nrhs int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n*nrhs)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// Col extracts column c of a row-major n x nrhs block.
func Col(b []float64, n, nrhs, c int) []float64 {
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[i*nrhs+c]
	}
	return x
}
