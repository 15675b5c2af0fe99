package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/memory"
)

func execStatsForTest() memory.ExecStats {
	return memory.ExecStats{ResidentPeak: 5, Fronts: 1, Kernel: "test"}
}

var update = flag.Bool("update", false, "rewrite the golden Chrome trace")

// fakeClock gives every recorded event a deterministic timestamp
// (1 µs apart), so the Chrome rendering is byte-stable for the golden
// comparison.
func fakeClock() func() int64 {
	var t int64
	return func() int64 {
		t += 1000
		return t
	}
}

// scenario records a small deterministic run touching every event kind
// and track type.
func scenario() *Tracer {
	tr := New(2)
	tr.clock = fakeClock()
	tr.MeterObserver()(5)
	tr.Begin(0, SpanTask, 3)
	tr.Begin(0, SpanAssemble, 3)
	tr.End(0, SpanAssemble, 3)
	tr.Begin(0, SpanFactor, 3)
	tr.TrackerObserver()(0, 10, 20)
	tr.End(0, SpanFactor, 3)
	tr.Instant(0, EvPut, 3, 64)
	tr.End(0, SpanTask, 3)
	tr.Begin(1, SpanTile, 3)
	tr.End(1, SpanTile, 3)
	tr.TrackerObserver()(1, 0, 7)
	tr.StoreBegin(SpanSpill, 3)
	tr.StoreEnd(SpanSpill, 3, 128)
	tr.StoreInstant(EvOOCPut, 4, 32)
	tr.MeterObserver()(2)
	return tr
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := scenario().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace differs from golden (run with -update to regenerate)\ngot:\n%s", buf.String())
	}
}

func TestChromeTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := scenario().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("scenario trace invalid: %v", err)
	}
	// And it is plain JSON an ordinary decoder accepts.
	var anyEvents []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &anyEvents); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	if len(anyEvents) == 0 {
		t.Fatal("empty trace")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	mk := func(events ...string) []byte {
		return []byte("[" + strings.Join(events, ",") + "]")
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"not json", []byte("{"), "invalid JSON"},
		{"no name", mk(`{"ph":"i","pid":1,"tid":0,"ts":1}`), "no name"},
		{"bad phase", mk(`{"name":"x","ph":"Q","pid":1,"tid":0,"ts":1}`), "unknown phase"},
		{"no ts", mk(`{"name":"x","ph":"i","pid":1,"tid":0}`), "no ts"},
		{"time travel", mk(
			`{"name":"a","ph":"i","pid":1,"tid":0,"ts":5}`,
			`{"name":"b","ph":"i","pid":1,"tid":0,"ts":3}`), "back in time"},
		{"unmatched end", mk(`{"name":"x","ph":"E","pid":1,"tid":0,"ts":1}`), "no open span"},
		{"crossed spans", mk(
			`{"name":"a","ph":"B","pid":1,"tid":0,"ts":1}`,
			`{"name":"b","ph":"B","pid":1,"tid":0,"ts":2}`,
			`{"name":"a","ph":"E","pid":1,"tid":0,"ts":3}`), "does not match"},
		{"unclosed span", mk(`{"name":"a","ph":"B","pid":1,"tid":0,"ts":1}`), "unclosed"},
	}
	for _, tc := range cases {
		err := ValidateChromeTrace(tc.data)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Distinct tids keep independent clocks and stacks.
	ok := mk(
		`{"name":"a","ph":"B","pid":1,"tid":0,"ts":5}`,
		`{"name":"b","ph":"i","pid":1,"tid":1,"ts":1}`,
		`{"name":"a","ph":"E","pid":1,"tid":0,"ts":6}`)
	if err := ValidateChromeTrace(ok); err != nil {
		t.Errorf("per-track independence broken: %v", err)
	}
}

func TestSnapshotAggregation(t *testing.T) {
	s := scenario().Snapshot(execStatsForTest())
	if s.Workers != 2 {
		t.Fatalf("workers %d", s.Workers)
	}
	byName := map[string]PhaseStat{}
	for _, p := range s.Phases {
		byName[p.Phase] = p
	}
	if p := byName[SpanTask]; p.Count != 1 || p.Seconds <= 0 {
		t.Errorf("task phase %+v", p)
	}
	if p := byName[SpanSpill]; p.Count != 1 || p.Bytes != 128 {
		t.Errorf("spill phase %+v", p)
	}
	if p := byName[EvPut]; p.Count != 1 || p.Bytes != 64 {
		t.Errorf("put phase %+v", p)
	}
	if s.PerWorker[0].PeakActive != 20 || s.PerWorker[0].PeakStack != 10 {
		t.Errorf("worker 0 peaks %+v", s.PerWorker[0])
	}
	if s.PerWorker[1].PeakActive != 7 {
		t.Errorf("worker 1 peaks %+v", s.PerWorker[1])
	}

	var prom bytes.Buffer
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE mf_resident_peak_entries gauge",
		"mf_resident_peak_entries 5",
		`mf_phase_bytes_total{phase="spill-write"} 128`,
		`mf_worker_peak_active_entries{worker="0"} 20`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(js.Bytes(), &round); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if round.Stats.ResidentPeak != 5 || round.Workers != 2 {
		t.Errorf("round-tripped snapshot %+v", round)
	}
}

func TestMemorySeriesAndCSV(t *testing.T) {
	tr := scenario()
	series := tr.MemorySeries()
	if len(series) != 3 { // resident + 2 workers
		t.Fatalf("series count %d", len(series))
	}
	if series[0].Name != "resident" || series[0].Peak() != 5 {
		t.Errorf("resident series %+v", series[0])
	}
	var csv bytes.Buffer
	if err := tr.WriteMemoryCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "series,t_ns,stack_entries,active_entries\n") {
		t.Errorf("CSV header missing: %q", csv.String())
	}
	if !strings.Contains(csv.String(), "worker 0,") {
		t.Errorf("CSV missing worker rows:\n%s", csv.String())
	}
	if got := Sparkline(series[0].Active, 8, tr.EndNs(), 5); len(got) != 8 {
		t.Errorf("sparkline %q", got)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Begin(0, SpanTask, 1)
	tr.End(0, SpanTask, 1)
	tr.Instant(0, EvPut, 1, 8)
	tr.StoreBegin(SpanSpill, 1)
	tr.StoreEnd(SpanSpill, 1, 8)
	tr.StoreInstant(EvOOCPut, 1, 8)
	tr.EnsureWorkers(4)
	if tr.MeterObserver() != nil || tr.TrackerObserver() != nil {
		t.Error("nil tracer observers must be nil")
	}
	if tr.Tracks() != nil || tr.Workers() != 0 || tr.Events() != 0 || tr.EndNs() != 0 {
		t.Error("nil tracer must report empty state")
	}
	if s := tr.Snapshot(execStatsForTest()); s.Events != 0 {
		t.Errorf("nil tracer snapshot %+v", s)
	}
}

// TestNilTracerZeroAllocs pins the disabled path: the per-event calls an
// executor makes with a nil tracer allocate nothing.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Begin(0, SpanTask, 1)
		tr.Begin(0, SpanFactor, 1)
		tr.End(0, SpanFactor, 1)
		tr.Instant(0, EvPut, 1, 64)
		tr.End(0, SpanTask, 1)
		tr.StoreInstant(EvOOCPut, 1, 64)
		tr.GlobalBegin(SpanAnalyzeOrder)
		tr.GlobalEnd(SpanAnalyzeOrder)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocates %.1f per task", allocs)
	}
}
