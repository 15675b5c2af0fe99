package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/sparse"
	"repro/internal/trace"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestConcurrentRuns is the registry's concurrency test: two traced
// parallel out-of-core factorizations registered on one server at the
// same time, scraped over HTTP while both are in flight. Every scrape
// must be exposition-format clean, each run's flops-done must never go
// backwards, the final scrape must report the executor's authoritative
// ResidentPeak bit for bit, and retiring the runs must empty /runs.
// Run it under -race to exercise the collector against the workers.
func TestConcurrentRuns(t *testing.T) {
	srv, err := obs.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := srv.Registry()

	type job struct {
		name string
		a    *sparse.CSC
		run  *obs.Run
		an   *core.Analysis
		st   *ooc.FileStore
		res  memory.ExecStats
	}
	jobs := []*job{
		{name: "grid3d-9", a: sparse.Grid3D(9, 9, 9)},
		{name: "grid3d-8", a: sparse.Grid3D(8, 8, 8)},
	}
	for _, j := range jobs {
		cfg := core.DefaultConfig(order.ND, 4)
		cfg.Tracer = trace.New(4)
		an, err := core.Analyze(j.a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		j.an = an
		j.run, err = reg.Register(j.name, cfg.Tracer)
		if err != nil {
			t.Fatal(err)
		}
	}
	if a, total := reg.Counts(); a != 2 || total != 2 {
		t.Fatalf("counts = (%d, %d), want (2, 2)", a, total)
	}

	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			f, st, err := j.an.FactorizeParallelOOC(parmf.Config{Workers: 4})
			if err != nil {
				j.run.Fail(err)
				t.Errorf("%s: %v", j.name, err)
				return
			}
			j.st = st
			j.run.SetSpill(st.Stats)
			j.res = f.Stats.ExecStats
			j.run.Complete(f.Stats.ExecStats)
		}(j)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// A registered run has no progress ledger until its executor arms it
	// at the start of the factorization; wait for both to be armed (the
	// ledger stays armed once set) so every scrape below sees one.
	armed := func() bool {
		for _, j := range jobs {
			if !j.run.Progress().Active() {
				return false
			}
		}
		return true
	}
wait:
	for !armed() {
		select {
		case <-done:
			break wait
		case <-time.After(100 * time.Microsecond):
		}
	}

	// Scrape both runs over HTTP until they finish.
	last := map[string]float64{}
	scrape := func() {
		for _, j := range jobs {
			code, body := get(t, srv.URL()+"/metrics?run="+j.run.ID())
			if code != http.StatusOK {
				t.Fatalf("/metrics?run=%s: HTTP %d", j.run.ID(), code)
			}
			if err := trace.LintPrometheus(body); err != nil {
				t.Fatalf("%s scrape: %v\n%s", j.run.ID(), err, body)
			}
			v, ok := trace.PromValue(body, "mf_flops_done_total")
			if st := j.run.Status(); st == obs.StatusRunning && !ok {
				t.Fatalf("%s: running scrape lacks mf_flops_done_total", j.run.ID())
			}
			if ok {
				if v < last[j.run.ID()] {
					t.Fatalf("%s: flops done went backwards: %g -> %g", j.run.ID(), last[j.run.ID()], v)
				}
				last[j.run.ID()] = v
			}
		}
	}
loop:
	for {
		scrape()
		select {
		case <-done:
			break loop
		case <-time.After(2 * time.Millisecond):
		}
	}
	for _, j := range jobs {
		defer j.st.Close()
	}

	// Final scrape: authoritative stats, bit for bit.
	for _, j := range jobs {
		_, body := get(t, srv.URL()+"/metrics?run="+j.run.ID())
		if err := trace.LintPrometheus(body); err != nil {
			t.Fatalf("final %s scrape: %v", j.run.ID(), err)
		}
		v, ok := trace.PromValue(body, "mf_resident_peak_entries")
		if !ok || int64(v) != j.res.ResidentPeak {
			t.Fatalf("%s: final mf_resident_peak_entries = %g (ok=%v), want %d",
				j.run.ID(), v, ok, j.res.ResidentPeak)
		}
		if s := j.run.Snapshot(); s.Stats.ResidentPeak != j.res.ResidentPeak {
			t.Fatalf("%s: snapshot ResidentPeak %d != executor %d", j.run.ID(), s.Stats.ResidentPeak, j.res.ResidentPeak)
		}
	}

	// /progress carries both runs, with spill stats attached.
	_, body := get(t, srv.URL()+"/progress")
	var prog struct {
		Runs []struct {
			ID       string                  `json:"id"`
			Status   string                  `json:"status"`
			Progress *trace.ProgressSnapshot `json:"progress"`
			Spill    *ooc.Stats              `json:"spill"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(body, &prog); err != nil {
		t.Fatalf("/progress: %v\n%s", err, body)
	}
	if len(prog.Runs) != 2 {
		t.Fatalf("/progress runs = %d, want 2", len(prog.Runs))
	}
	for _, r := range prog.Runs {
		if r.Status != "done" {
			t.Fatalf("%s status = %s, want done", r.ID, r.Status)
		}
		if r.Progress == nil || r.Progress.Ratio != 1 {
			t.Fatalf("%s progress = %+v, want ratio 1", r.ID, r.Progress)
		}
		if r.Spill == nil || r.Spill.Blocks == 0 {
			t.Fatalf("%s spill = %+v, want nonzero blocks", r.ID, r.Spill)
		}
	}

	// Retire both; the registry empties but keeps the lifetime total.
	for _, j := range jobs {
		if !reg.Retire(j.run.ID()) {
			t.Fatalf("retire %s failed", j.run.ID())
		}
	}
	if a, total := reg.Counts(); a != 0 || total != 2 {
		t.Fatalf("after retire: counts = (%d, %d), want (0, 2)", a, total)
	}
	if code, _ := get(t, srv.URL()+"/runs"); code != http.StatusOK {
		t.Fatalf("/runs after retire: HTTP %d", code)
	}
	if code, _ := get(t, srv.URL()+"/metrics?run="+jobs[0].run.ID()); code != http.StatusNotFound {
		t.Fatalf("retired run still scrapes: HTTP %d", code)
	}
}

// TestEndpoints covers the static endpoints and selectors against one
// completed sequential OOC run.
func TestEndpoints(t *testing.T) {
	srv, err := obs.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := core.DefaultConfig(order.AMD, 1)
	cfg.Tracer = trace.New(1)
	an, err := core.Analyze(sparse.Grid2D(12, 12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, _ := srv.Registry().Register("grid2d", cfg.Tracer)
	f, st, err := an.FactorizeOOC()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	run.SetSpill(st.Stats)
	run.Complete(f.Stats)

	if code, body := get(t, srv.URL()+"/healthz"); code != 200 || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, srv.URL()+"/"); code != 200 || !strings.Contains(string(body), "run-1") {
		t.Fatalf("index = %d %q", code, body)
	}
	if code, _ := get(t, srv.URL()+"/no-such"); code != http.StatusNotFound {
		t.Fatalf("unknown path: HTTP %d", code)
	}

	// Default-run selection (latest) and explicit selection agree on the
	// run's series (elapsed-time gauges tick between scrapes, so compare
	// a stable one).
	_, def := get(t, srv.URL()+"/metrics")
	_, sel := get(t, srv.URL()+"/metrics?run="+run.ID())
	d, okD := trace.PromValue(def, "mf_resident_peak_entries")
	s, okS := trace.PromValue(sel, "mf_resident_peak_entries")
	if !okD || !okS || d != s {
		t.Fatalf("default /metrics (%g, %v) differs from ?run=<latest> (%g, %v)", d, okD, s, okS)
	}
	if err := trace.LintPrometheus(def); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if v, ok := trace.PromValue(def, "mf_runs_active"); !ok || v != 1 {
		t.Fatalf("mf_runs_active = %g, %v", v, ok)
	}

	// The trace dump of a completed run passes the strict validator.
	code, tr := get(t, srv.URL()+"/trace.json")
	if code != 200 {
		t.Fatalf("/trace.json: HTTP %d", code)
	}
	if err := trace.ValidateChromeTrace(tr); err != nil {
		t.Fatalf("/trace.json invalid: %v", err)
	}
	code, csv := get(t, srv.URL()+"/timeline.csv")
	if code != 200 || !strings.HasPrefix(string(csv), "series,t_ns,stack_entries,active_entries") {
		t.Fatalf("/timeline.csv = %d %q...", code, csv[:min(len(csv), 60)])
	}
	if code, _ := get(t, srv.URL()+"/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: HTTP %d", code)
	}

	// Untraced runs register fine but have no trace artifacts.
	plain, _ := srv.Registry().Register("untraced", nil)
	if code, _ := get(t, srv.URL()+"/trace.json?run="+plain.ID()); code != http.StatusNotFound {
		t.Fatalf("untraced /trace.json: HTTP %d", code)
	}
	if _, body := get(t, srv.URL()+"/metrics?run="+plain.ID()); trace.LintPrometheus(body) != nil {
		t.Fatalf("untraced scrape not lint-clean:\n%s", body)
	}

	// Empty-registry /metrics still serves the registry gauges.
	empty, err := obs.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if code, body := get(t, empty.URL()+"/metrics"); code != 200 || trace.LintPrometheus(body) != nil {
		t.Fatalf("empty /metrics = %d %q", code, body)
	}
	if code, _ := get(t, empty.URL()+"/trace.json"); code != http.StatusNotFound {
		t.Fatalf("empty /trace.json: HTTP %d", code)
	}
}

// TestRunLifecycle covers Fail and the failed-run rendering.
func TestRunLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	run, err := reg.Register("doomed", trace.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if run.Status() != obs.StatusRunning {
		t.Fatalf("status = %s", run.Status())
	}
	run.Fail(fmt.Errorf("synthetic pivot breakdown"))
	if run.Status() != obs.StatusFailed {
		t.Fatalf("status after Fail = %s", run.Status())
	}
	if reg.Latest() != run {
		t.Fatal("Latest lost the failed run")
	}
	if run.Elapsed() < 0 {
		t.Fatal("negative elapsed")
	}
}
