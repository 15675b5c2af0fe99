package trace_test

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/sparse"
	"repro/internal/trace"
)

var traceFile = flag.String("trace-file", "", "validate this Chrome trace file (CI smoke hook) ")

// TestTracedParallelRun is the end-to-end property test of the tentpole
// guarantee: a traced real parmf run (factorization + out-of-core spill +
// tree-parallel solve) produces a trace whose reconstructed memory
// timelines equal the executor's own accounting exactly — the global
// resident series' maximum IS ExecStats.ResidentPeak, and each worker
// series' maximum IS that worker's active peak — and whose Chrome
// rendering is structurally valid.
func TestTracedParallelRun(t *testing.T) {
	a := sparse.Grid3D(10, 10, 10)
	cfg := core.DefaultConfig(order.AMF, 4)
	tr := trace.New(4)
	cfg.Tracer = tr
	an, err := core.Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pf, st, err := an.FactorizeParallelOOC(parmf.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	if _, err := pf.SolveOriginal(b); err != nil {
		t.Fatal(err)
	}

	// Memory timelines are exact, not sampled.
	var resident int64 = -1
	workerPeaks := map[int]int64{}
	for _, s := range tr.MemorySeries() {
		if s.Worker < 0 {
			resident = s.Peak()
		} else {
			workerPeaks[s.Worker] = s.Peak()
		}
	}
	if resident != pf.Stats.ResidentPeak {
		t.Errorf("resident timeline max %d != ExecStats.ResidentPeak %d", resident, pf.Stats.ResidentPeak)
	}
	for w, p := range pf.Stats.WorkerPeaks {
		if workerPeaks[w] != p {
			t.Errorf("worker %d timeline max %d != WorkerPeaks %d", w, workerPeaks[w], p)
		}
	}

	// The Chrome rendering passes its own structural validator: valid
	// JSON, monotonic per-track timestamps, balanced B/E pairs.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("traced run renders an invalid Chrome trace: %v", err)
	}

	// The aggregated snapshot sees every layer of the run.
	snap := tr.Snapshot(pf.Stats.ExecStats)
	phases := map[string]trace.PhaseStat{}
	for _, p := range snap.Phases {
		phases[p.Phase] = p
	}
	for _, want := range []string{
		trace.SpanAssemble, trace.SpanFactor, trace.EvPut, trace.EvClaim,
		trace.SpanSpill, trace.EvOOCPut, trace.SpanSolveFwd, trace.SpanSolveBwd,
	} {
		if phases[want].Count == 0 {
			t.Errorf("snapshot has no %q events", want)
		}
	}
	if got := int(phases[trace.EvPut].Count); got != an.Tree.Len() {
		t.Errorf("put events %d, want one per front (%d)", got, an.Tree.Len())
	}
	if phases[trace.SpanSpill].Bytes == 0 {
		t.Error("spill spans carry no bytes")
	}
	if snap.WallSeconds <= 0 || snap.Workers != 4 {
		t.Errorf("snapshot wall %.3fs workers %d", snap.WallSeconds, snap.Workers)
	}
}

// TestTracedSequentialRun pins the seqmf instrumentation: worker track 0
// carries the front phases and the resident series is exact.
func TestTracedSequentialRun(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	cfg := core.DefaultConfig(order.AMF, 1)
	tr := trace.New(1)
	cfg.Tracer = tr
	an, err := core.Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	var resident int64 = -1
	for _, s := range tr.MemorySeries() {
		if s.Worker < 0 {
			resident = s.Peak()
		}
	}
	if resident != f.Stats.ResidentPeak {
		t.Errorf("resident timeline max %d != ResidentPeak %d", resident, f.Stats.ResidentPeak)
	}
	snap := tr.Snapshot(f.Stats)
	var factorCount int64
	for _, p := range snap.Phases {
		if p.Phase == trace.SpanFactor {
			factorCount = p.Count
		}
	}
	if factorCount != int64(an.Tree.Len()) {
		t.Errorf("factor spans %d, want one per front (%d)", factorCount, an.Tree.Len())
	}
}

// TestTracedAnalysisPhases: a traced Analyze + Factorize lists the four
// analysis phases, one span each, next to the factorization's phases, in
// the snapshot and in the Prometheus rendering; the Chrome rendering stays
// valid with the analysis spans on the global track.
func TestTracedAnalysisPhases(t *testing.T) {
	a := sparse.Grid3D(6, 6, 6)
	cfg := core.DefaultConfig(order.ND, 1)
	tr := trace.New(1)
	cfg.Tracer = tr
	an, err := core.Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot(f.Stats)
	phases := map[string]trace.PhaseStat{}
	for _, p := range snap.Phases {
		phases[p.Phase] = p
	}
	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := trace.LintPrometheus(prom.Bytes()); err != nil {
		t.Errorf("Prometheus rendering fails lint: %v", err)
	}
	for _, want := range []string{
		trace.SpanAnalyzeOrder, trace.SpanAnalyzeSymbolic, trace.SpanAnalyzeTree, trace.SpanAnalyzeMap,
	} {
		if p := phases[want]; p.Count != 1 || p.Open != 0 || p.Seconds <= 0 {
			t.Errorf("phase %q: %+v, want one closed span", want, p)
		}
		if !bytes.Contains(prom.Bytes(), []byte(`mf_phase_seconds_total{phase="`+want+`"}`)) {
			t.Errorf("Prometheus rendering lacks phase %q", want)
		}
	}
	if phases[trace.SpanFactor].Count != int64(an.Tree.Len()) {
		t.Errorf("factor spans %d, want %d", phases[trace.SpanFactor].Count, an.Tree.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("traced analysis renders an invalid Chrome trace: %v", err)
	}
}

// TestUntracedRunUnchanged cross-checks that attaching a tracer changes
// no numbers: the work stats are identical with and without.
func TestUntracedRunUnchanged(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	an, err := core.Analyze(a, core.DefaultConfig(order.AMF, 2))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := an.FactorizeParallel(parmf.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := parmf.DefaultConfig(2)
	cfg.Tracer = trace.New(2)
	traced, err := an.FactorizeParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The work stats are schedule-independent and must match exactly; the
	// resident peak is measured across concurrently running workers, so
	// it varies with the schedule and is not compared.
	if !plain.Stats.WorkStats.Equal(traced.Stats.WorkStats) {
		t.Errorf("tracing changed the run: %+v vs %+v", plain.Stats.WorkStats, traced.Stats.WorkStats)
	}
}

// TestValidateTraceFile validates an externally produced Chrome trace
// when -trace-file is given — the CI smoke step factors a small matrix
// through cmd/parfactor -trace and feeds the file here. Skipped without
// the flag.
func TestValidateTraceFile(t *testing.T) {
	if *traceFile == "" {
		t.Skip("no -trace-file given")
	}
	data, err := os.ReadFile(*traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChromeTrace(data); err != nil {
		t.Fatalf("%s: %v", *traceFile, err)
	}
}
