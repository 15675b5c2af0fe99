// Per-kernel microbenchmarks for the numeric hot path — the update
// micro-kernels (element-wise / register-blocked / simd),
// the run-merged extend-add, the front arena, the root-front
// decomposition (1D row blocks vs the 2D type-3 tile grid) and the
// blocked multi-RHS solve phase — plus a JSON emitter that makes the
// perf trajectory machine-readable:
//
//	go test -run '^$' -benchjson BENCH_kernels.json .
//
// runs every kernel benchmark through testing.Benchmark and writes an
// environment header (go version, GOARCH/GOAMD64, detected CPU vector
// features, GOMAXPROCS) followed by {name, ns_per_op, mb_per_s,
// allocs_per_op} records to the file — the header makes runs comparable
// across machines, since the simd rows depend on what the CPU has. The
// same cases are exposed as ordinary sub-benchmarks of
// BenchmarkUpdateKernel / BenchmarkExtendAdd / BenchmarkArenaReuse for
// interactive -bench runs.
package repro

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/front"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/seqmf"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/workload"
)

var benchJSON = flag.String("benchjson", "", "write the kernel benchmark results as JSON to this file")

func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && *benchJSON != "" {
		if err := writeKernelBenchJSON(*benchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// ---- update kernels ----------------------------------------------------

const (
	benchFrontN    = 768
	benchFrontNPiv = 384
)

func benchDiagDominant(n int, rng *rand.Rand) *dense.Matrix {
	m := dense.New(n, n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		var sum float64
		for j := range row {
			if j != i {
				v := rng.NormFloat64()
				// An assembled front is full of structural zeros; keep some
				// so the zero-skip paths of the kernels stay on-profile.
				if rng.Float64() < 0.3 {
					v = 0
				}
				row[j] = v
				if v < 0 {
					sum -= v
				} else {
					sum += v
				}
			}
		}
		row[i] = sum + 1
	}
	return m
}

func benchSPD(n int, rng *rand.Rand) *dense.Matrix {
	m := benchDiagDominant(n, rng)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Set(j, i, m.At(i, j)) // symmetrize; diagonal dominance => SPD
		}
	}
	return m
}

type kernelBenchCase struct {
	name string
	fn   func(b *testing.B)
}

func updateKernelCases() []kernelBenchCase {
	rng := rand.New(rand.NewSource(21))
	lu := benchDiagDominant(benchFrontN, rng)
	spd := benchSPD(benchFrontN, rng)
	bytes := int64(8 * benchFrontN * benchFrontN)

	luCase := func(name string, run func(f *dense.Matrix) error) kernelBenchCase {
		return kernelBenchCase{name: "UpdateKernel/lu/" + name, fn: func(b *testing.B) {
			work := dense.New(benchFrontN, benchFrontN)
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				copy(work.A, lu.A)
				if err := run(work); err != nil {
					b.Fatal(err)
				}
			}
		}}
	}
	cholCase := func(name string, run func(f *dense.Matrix) error) kernelBenchCase {
		return kernelBenchCase{name: "UpdateKernel/cholesky/" + name, fn: func(b *testing.B) {
			work := dense.New(benchFrontN, benchFrontN)
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				copy(work.A, spd.A)
				if err := run(work); err != nil {
					b.Fatal(err)
				}
			}
		}}
	}
	return []kernelBenchCase{
		luCase("element", func(f *dense.Matrix) error {
			return dense.PartialLU(f, benchFrontNPiv, 1e-14)
		}),
		luCase("register", func(f *dense.Matrix) error {
			return dense.KernelDefault.PartialLU(f, benchFrontNPiv, 1e-14, dense.DefaultBlockRows)
		}),
		luCase("simd", func(f *dense.Matrix) error {
			return dense.KernelSIMD.PartialLU(f, benchFrontNPiv, 1e-14, dense.DefaultBlockRows)
		}),
		cholCase("element", func(f *dense.Matrix) error {
			return dense.PartialCholesky(f, benchFrontNPiv)
		}),
		cholCase("register", func(f *dense.Matrix) error {
			return dense.KernelDefault.PartialCholesky(f, benchFrontNPiv, dense.DefaultBlockRows)
		}),
		cholCase("simd", func(f *dense.Matrix) error {
			return dense.KernelSIMD.PartialCholesky(f, benchFrontNPiv, dense.DefaultBlockRows)
		}),
	}
}

// BenchmarkUpdateKernel compares the kernel families on one large front
// (order 768, 384 pivots, ~30% structural zeros): element-wise (the
// oracle), register-blocked (the KernelDefault dispatch — bitwise
// identical to element-wise) and simd (fused FMA chains — AVX2/FMA
// assembly where the CPU has it, the bitwise-identical portable fallback
// otherwise).
func BenchmarkUpdateKernel(b *testing.B) {
	for _, c := range updateKernelCases() {
		b.Run(c.name[len("UpdateKernel/"):], c.fn)
	}
}

// ---- extend-add --------------------------------------------------------

func extendAddCases() []kernelBenchCase {
	const nf, ncb = 1024, 512
	rng := rand.New(rand.NewSource(22))
	cb := dense.New(ncb, ncb)
	for i := range cb.A {
		cb.A[i] = rng.NormFloat64()
	}
	// contiguous: one long run (a child whose rows are a parent slice);
	// fragmented: runs of ~4 separated by gaps (interleaved structures).
	contig := make([]int, ncb)
	for i := range contig {
		contig[i] = 17 + i
	}
	frag := make([]int, ncb)
	next := 0
	for i := range frag {
		frag[i] = next
		if (i+1)%4 == 0 {
			next += 2
		}
		next++
	}
	// vector: runs of 32 separated by gaps — long enough that the 4-row
	// blocked vector adds dominate, short enough that run decode still
	// shows up. The middle ground between the two extremes above.
	vec := make([]int, ncb)
	next = 0
	for i := range vec {
		vec[i] = next
		if (i+1)%32 == 0 {
			next += 3
		}
		next++
	}
	bytes := int64(8 * ncb * ncb * 2)

	mk := func(name string, map_ []int, lower bool) kernelBenchCase {
		return kernelBenchCase{name: "ExtendAdd/" + name, fn: func(b *testing.B) {
			f := dense.New(nf, nf)
			runs := dense.AppendRuns(nil, map_)
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				if lower {
					dense.ExtendAddLowerRuns(f, cb, map_, runs)
				} else {
					dense.ExtendAddRuns(f, cb, map_, runs)
				}
			}
		}}
	}
	return []kernelBenchCase{
		mk("full/contiguous", contig, false),
		mk("full/fragmented", frag, false),
		mk("full/vector", vec, false),
		mk("lower/contiguous", contig, true),
		mk("lower/fragmented", frag, true),
		mk("lower/vector", vec, true),
	}
}

// BenchmarkExtendAdd measures the run-merged scatter on three map shapes:
// one long consecutive run (pure vector adds), short fragmented runs of 4
// (the worst case for run detection, served by the inlined scalar path)
// and medium runs of 32 (the 4-row blocked vector-add path).
func BenchmarkExtendAdd(b *testing.B) {
	for _, c := range extendAddCases() {
		b.Run(c.name[len("ExtendAdd/"):], c.fn)
	}
}

// ---- arena -------------------------------------------------------------

func arenaCases() []kernelBenchCase {
	cycle := func(a *front.Arena) {
		// One executor step: assemble a front, stack a CB, retire both a
		// step later — the steady-state shape of the factorize loop.
		fr := a.Matrix(256, 256)
		cb := a.Matrix(128, 128)
		a.Free(fr)
		a.Free(cb)
	}
	return []kernelBenchCase{
		{name: "ArenaReuse/arena", fn: func(b *testing.B) {
			a := front.NewArena()
			cycle(a) // warm the size classes
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				cycle(a)
			}
		}},
		{name: "ArenaReuse/alloc", fn: func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				cycle(nil) // nil arena = plain allocation
			}
		}},
	}
}

// BenchmarkArenaReuse pins the zero-alloc claim: the arena-backed
// front+CB cycle runs at ~0 allocs/op in the steady state, against the
// plain-allocation baseline.
func BenchmarkArenaReuse(b *testing.B) {
	for _, c := range arenaCases() {
		b.Run(c.name[len("ArenaReuse/"):], c.fn)
	}
}

// ---- root front (1D vs 2D type-3) --------------------------------------

// rootFrontAnalysis prepares the root-dominated problem of the suite:
// GUPTA3's root front (order ~2157) carries ~99% of the total elimination
// flops, so the whole-factorization time is effectively the root-front
// time and the 1D-vs-2D decomposition difference is what the benchmark
// measures. Analysis is shared across the cases; the numeric runs are not.
var rootFrontAnalysis = sync.OnceValue(func() *core.Analysis {
	p, err := workload.ByName(workload.Suite(), "GUPTA3")
	if err != nil {
		panic(err)
	}
	a := p.Matrix()
	if !a.HasValues() {
		if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
			panic(err)
		}
	}
	an, err := core.Analyze(a, core.DefaultConfig(order.ND, 8))
	if err != nil {
		panic(err)
	}
	return an
})

func rootFrontCases() []kernelBenchCase {
	mk := func(name string, workers, grid int) kernelBenchCase {
		return kernelBenchCase{name: "RootFront/gupta3/" + name, fn: func(b *testing.B) {
			an := rootFrontAnalysis()
			var rootNs int64
			n := 0
			b.ResetTimer()
			for b.Loop() {
				cfg := parmf.DefaultConfig(workers)
				cfg.RootGrid = grid
				pf, err := an.FactorizeParallel(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rootNs += pf.Stats.RootFrontNs
				n++
			}
			if n > 0 {
				b.ReportMetric(float64(rootNs)/float64(n)/1e6, "root_ms")
			}
		}}
	}
	return []kernelBenchCase{
		// 1 worker never splits: the sequential baseline for both paths.
		mk("seq/w1", 1, -1),
		mk("1d/w2", 2, -1),
		mk("2d/w2", 2, 0),
		mk("1d/w8", 8, -1),
		mk("2d/w8", 8, 0),
	}
}

// BenchmarkRootFront runs the root-dominated GUPTA3 factorization with the
// root front on the 1D row partition vs the 2D (type-3) tile grid at 1, 2
// and 8 workers. ns/op is the whole factorization (~99% root front here);
// the root_ms metric is the measured root-front wall time. The factors are
// bitwise identical across every case — only the decomposition of the root
// front's work changes.
func BenchmarkRootFront(b *testing.B) {
	for _, c := range rootFrontCases() {
		b.Run(c.name[len("RootFront/"):], c.fn)
	}
}

// ---- solve phase -------------------------------------------------------

type solveBenchState struct {
	an *core.Analysis
	sf *seqmf.Factors // in-core factors
	of *seqmf.Factors // OOC factors (spilled to the store below)
	st *ooc.FileStore
}

// solveBenchSetup factors GUPTA3 exactly once per store type and shares
// the factors across every solve case — the factorizations (~0.4 s each)
// would otherwise dwarf the tens-of-ms solves being measured.
var solveBenchSetup = sync.OnceValue(func() *solveBenchState {
	an := rootFrontAnalysis()
	sf, err := an.Factorize()
	if err != nil {
		panic(err)
	}
	of, st, err := an.FactorizeOOC()
	if err != nil {
		panic(err)
	}
	return &solveBenchState{an: an, sf: sf, of: of, st: st}
})

func solveCases() []kernelBenchCase {
	mk := func(store string, workers, nrhs int) kernelBenchCase {
		name := fmt.Sprintf("Solve/gupta3/%s/w%d/nrhs%d", store, workers, nrhs)
		return kernelBenchCase{name: name, fn: func(b *testing.B) {
			s := solveBenchSetup()
			n := s.an.Permuted.N
			rng := rand.New(rand.NewSource(31))
			rhs := make([]float64, n*nrhs)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			f := s.sf
			if store == "ooc" {
				f = s.of
			}
			solve := func() ([]float64, error) { return f.SolveMulti(rhs, nrhs) }
			if workers > 1 {
				ts := parmf.NewTreeSolver(f.Store(), s.an.Tree, s.an.Permuted.Kind, workers, 0)
				solve = func() ([]float64, error) { return ts.SolveMulti(rhs, nrhs) }
			}
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				if _, err := solve(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "solve_ms")
		}}
	}
	var cases []kernelBenchCase
	for _, store := range []string{"incore", "ooc"} {
		for _, workers := range []int{1, 2, 8} {
			for _, nrhs := range []int{1, 16, 64} {
				cases = append(cases, mk(store, workers, nrhs))
			}
		}
	}
	return cases
}

// BenchmarkSolve measures the blocked multi-RHS solve phase on GUPTA3:
// in-core vs out-of-core factors, sequential (w1) vs tree-parallel (w2,
// w8) walks, for 1, 16 and 64 right-hand sides in one blocked pass. The
// factorizations are shared across cases; only the solve is timed
// (solve_ms = wall ms per whole-block solve). All cases produce bitwise
// identical columns; OOC cases stream the factor file exactly twice per
// solve regardless of nrhs.
func BenchmarkSolve(b *testing.B) {
	for _, c := range solveCases() {
		b.Run(c.name[len("Solve/"):], c.fn)
	}
}

// ---- tracing overhead ---------------------------------------------------

func tracingCases() []kernelBenchCase {
	mkRun := func(name string, traced bool) kernelBenchCase {
		return kernelBenchCase{name: "Tracing/gupta3/" + name, fn: func(b *testing.B) {
			an := rootFrontAnalysis()
			var events int64
			n := 0
			b.ResetTimer()
			for b.Loop() {
				cfg := parmf.DefaultConfig(8)
				if traced {
					cfg.Tracer = trace.New(8)
				}
				if _, err := an.FactorizeParallel(cfg); err != nil {
					b.Fatal(err)
				}
				events += int64(cfg.Tracer.Events())
				n++
			}
			if traced && n > 0 {
				b.ReportMetric(float64(events)/float64(n), "events/op")
			}
		}}
	}
	return []kernelBenchCase{
		mkRun("untraced/w8", false),
		mkRun("traced/w8", true),
		// The per-event cost an executor pays when tracing is disabled:
		// one task's worth of nil-tracer calls (must be 0 allocs/op).
		{name: "Tracing/nilops", fn: func(b *testing.B) {
			var tr *trace.Tracer
			b.ReportAllocs()
			for b.Loop() {
				tr.Instant(0, trace.EvClaim, 1, 0)
				tr.Begin(0, trace.SpanTask, 1)
				tr.Begin(0, trace.SpanAssemble, 1)
				tr.End(0, trace.SpanAssemble, 1)
				tr.Begin(0, trace.SpanFactor, 1)
				tr.End(0, trace.SpanFactor, 1)
				tr.Instant(0, trace.EvPut, 1, 64)
				tr.End(0, trace.SpanTask, 1)
			}
		}},
	}
}

// ---- live scrape cost ---------------------------------------------------

func liveScrapeCases() []kernelBenchCase {
	return []kernelBenchCase{
		// One /metrics scrape (incremental fold + Prometheus rendering)
		// while a traced 8-worker GUPTA3 factorization runs underneath —
		// the cost the observability server pays per scrape, measured
		// against live event traffic, not a quiet tracer.
		{name: "LiveScrape/gupta3/scrape/w8", fn: func(b *testing.B) {
			an := rootFrontAnalysis()
			tr := trace.New(8)
			col := trace.NewCollector(tr)
			var stop atomic.Bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				for !stop.Load() {
					cfg := parmf.DefaultConfig(8)
					cfg.Tracer = tr
					if _, err := an.FactorizeParallel(cfg); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				if err := col.Scrape().WritePrometheus(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stop.Store(true)
			<-done
		}},
		// The progress-ledger cost an untraced run pays with no listener
		// attached: a front completion's worth of nil-tracer calls. Must
		// stay at 0 allocs/op (pinned by trace.TestNilTracerZeroAllocs).
		{name: "LiveScrape/nolistener", fn: func(b *testing.B) {
			var tr *trace.Tracer
			b.ReportAllocs()
			for b.Loop() {
				tr.SetTotals(100, 1000)
				tr.FrontDone(10)
				_ = tr.Progress()
			}
		}},
	}
}

// BenchmarkLiveScrape measures the observability server's scrape path:
// one incremental Collector fold plus a full Prometheus rendering while
// a traced 8-worker GUPTA3 factorization generates events underneath,
// and the nil-tracer progress ops an untraced, listenerless run pays.
func BenchmarkLiveScrape(b *testing.B) {
	for _, c := range liveScrapeCases() {
		b.Run(c.name[len("LiveScrape/"):], c.fn)
	}
}

// BenchmarkTracing measures the observability overhead on the GUPTA3
// factorization at 8 workers: an untraced run (nil tracer — the baseline
// the executors must not regress) against a fully traced one (all spans
// plus per-mutation memory counters; events/op reports the recorded
// volume). Tracing/nilops isolates the disabled path itself: a task's
// worth of nil-receiver calls, pinned at 0 allocs/op by
// trace.TestNilTracerZeroAllocs.
func BenchmarkTracing(b *testing.B) {
	for _, c := range tracingCases() {
		b.Run(c.name[len("Tracing/"):], c.fn)
	}
}

// ---- JSON emitter ------------------------------------------------------

type benchRecord struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerS      float64            `json:"mb_per_s"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"` // custom metrics (e.g. root_ms)
}

// benchEnv is the environment header of the JSON output: the build and
// machine facts that make two runs comparable (or not) — the simd rows in
// particular depend on CPUFeatures.
type benchEnv struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOAMD64     string `json:"goamd64,omitempty"` // amd64 microarchitecture level the binary was built for
	CPUFeatures string `json:"cpu_features"`      // dense.SIMDFeatures(): avx2+fma, avx2+fma(off) or portable
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

func benchEnvInfo() benchEnv {
	e := benchEnv{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUFeatures: dense.SIMDFeatures(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				e.GOAMD64 = s.Value
			}
		}
	}
	if e.GOAMD64 == "" {
		e.GOAMD64 = os.Getenv("GOAMD64")
	}
	return e
}

func writeKernelBenchJSON(path string) error {
	var cases []kernelBenchCase
	cases = append(cases, updateKernelCases()...)
	cases = append(cases, extendAddCases()...)
	cases = append(cases, arenaCases()...)
	cases = append(cases, rootFrontCases()...)
	cases = append(cases, solveCases()...)
	cases = append(cases, tracingCases()...)
	cases = append(cases, liveScrapeCases()...)
	var recs []benchRecord
	for _, c := range cases {
		r := testing.Benchmark(c.fn)
		rec := benchRecord{
			Name:        c.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if r.Bytes > 0 && r.T > 0 {
			rec.MBPerS = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		if len(r.Extra) > 0 {
			rec.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				rec.Extra[k] = v
			}
		}
		recs = append(recs, rec)
	}
	doc := struct {
		Env     benchEnv      `json:"env"`
		Results []benchRecord `json:"results"`
	}{benchEnvInfo(), recs}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
