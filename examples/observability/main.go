// Observability: why memory peaked where it did, answered from a running
// and a finished process. An embedded internal/obs server watches a
// traced parallel out-of-core factorization while it runs: the example
// polls its own /progress endpoint over HTTP from a second goroutine and
// prints a progress bar with an ETA as fronts complete (cmd/factor
// serves the same plane behind -listen: /metrics, /progress, /runs,
// /trace.json, /timeline.csv, /debug/pprof). Afterwards it draws the
// paper's Figure 4/6/8 memory-evolution view twice over — the
// simulator's per-processor prediction next to the measured timelines
// the tracer recorded, one sample per mutation of each worker's
// accounting, so the measured peaks equal the executor's bit for bit —
// and ends with an excerpt of the final Prometheus scrape.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

const (
	workers = 4
	cols    = 72
)

func main() {
	log.SetFlags(0)

	// A grid problem big enough that the poller catches it mid-flight.
	a := sparse.Grid3D(26, 26, 26)
	an, err := core.Analyze(a, core.DefaultConfig(order.ND, workers))
	if err != nil {
		log.Fatal(err)
	}
	// The tracer is attached after the symbolic phase, so its clock
	// starts at the factorization.
	tr := trace.New(workers)
	an.Config.Tracer = tr

	srv, err := obs.NewServer("127.0.0.1:0", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	run, err := srv.Registry().Register("grid3d-26", tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("observability plane live on %s\n", srv.URL())
	fmt.Printf("factoring n=%d (%d fronts, %d workers, factors spilled to disk)\n\n", a.N, an.Tree.Len(), workers)

	done := make(chan *core.Factors, 1)
	go func() {
		f, err := an.Run(context.Background(), core.Plan{Parallel: &parmf.Config{Workers: workers}, File: true})
		if err != nil {
			run.Fail(err)
			log.Fatal(err)
		}
		run.SetSpill(f.Store.Stats)
		run.Complete(f.Stats)
		done <- f
	}()

	// Watch the run the way an external dashboard would: over HTTP.
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var f *core.Factors
	for f == nil {
		select {
		case f = <-done:
		case <-tick.C:
			if pr, ok := fetchProgress(srv.URL(), run.ID()); ok && pr.FrontsTotal > 0 {
				fmt.Printf("  [%-30s] %5.1f%%  %4d/%d fronts  eta %5.2fs  resident %d entries\n",
					strings.Repeat("#", int(pr.Ratio*30)), pr.Ratio*100,
					pr.FrontsDone, pr.FrontsTotal, pr.ETASeconds, pr.ResidentEntries)
			}
		}
	}
	defer f.Close()
	pr := run.Progress()
	fmt.Printf("\ndone: %d fronts, %.2fs wall, resident peak %d entries\n\n",
		pr.FrontsDone, pr.ElapsedSeconds, pr.ResidentPeakEntries)

	timelines(an, tr, f)
	scrape(srv.URL(), run.ID())
}

// timelines prints the predicted and the measured per-processor memory
// evolution, each row scaled to its view's peak.
func timelines(an *core.Analysis, tr *trace.Tracer, f *core.Factors) {
	res, err := parsim.Run(parsim.Config{
		Tree: an.Tree, Map: an.Mapping, Strategy: parsim.MemoryBased(), Params: an.Config.Params, Trace: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== predicted (simulator, memory-based): max peak %d entries, makespan %.1f ms virtual ===\n",
		res.MaxActivePeak, float64(res.Makespan)/1e6)
	for p, ptr := range res.Traces {
		pts, peak := simPoints(ptr)
		fmt.Printf("P%d |%s| peak %d\n", p, trace.Sparkline(pts, cols, int64(res.Makespan), res.MaxActivePeak), peak)
	}

	series := tr.MemorySeries()
	var resident int64
	for _, s := range series {
		if s.Worker < 0 && s.Name == "resident" {
			resident = s.Peak()
		}
	}
	fmt.Printf("\n=== measured (parmf, %d workers): max worker peak %d entries, %d trace events ===\n",
		f.Sched.Workers, f.Stats.PeakStack, tr.Events())
	for _, s := range series {
		if s.Worker >= 0 {
			fmt.Printf("W%d |%s| peak %d\n", s.Worker, trace.Sparkline(s.Active, cols, tr.EndNs(), f.Stats.PeakStack), s.Peak())
		}
	}
	fmt.Printf("\npeak divergence: predicted max/proc %d, measured max/worker %d (%+.1f%%)\n",
		res.MaxActivePeak, f.Stats.PeakStack,
		100*float64(f.Stats.PeakStack-res.MaxActivePeak)/float64(res.MaxActivePeak))
	fmt.Printf("resident timeline max %d == ExecStats.ResidentPeak %d: %v\n",
		resident, f.Stats.ResidentPeak, resident == f.Stats.ResidentPeak)
	fmt.Println("\nEach row is one processor's active memory (CB stack + fronts) over time —")
	fmt.Println("virtual for the prediction, wall-clock for the measurement; ' .:-=+*#%@'")
	fmt.Println("spans 0..that view's peak.")
}

// simPoints converts a simulator trace to the tracer's point form so one
// renderer draws both views, and returns its peak.
func simPoints(ptr []memory.TracePoint) ([]trace.Point, int64) {
	pts := make([]trace.Point, len(ptr))
	var peak int64
	for i, t := range ptr {
		pts[i] = trace.Point{T: int64(t.T), V: t.Active}
		peak = max(peak, t.Active)
	}
	return pts, peak
}

// scrape prints an excerpt of the run's final /metrics scrape, which
// carries the executor's authoritative stats.
func scrape(url, id string) {
	resp, err := http.Get(url + "/metrics?run=" + id)
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := trace.LintPrometheus(body); err != nil {
		log.Fatalf("final scrape not exposition-clean: %v", err)
	}
	fmt.Println("\nfinal /metrics excerpt:")
	for _, line := range strings.Split(string(body), "\n") {
		for _, want := range []string{"mf_resident_peak_entries ", "mf_fronts_done_total ",
			"mf_flops_done_total ", "mf_progress_ratio ", "mf_runs_active "} {
			if strings.HasPrefix(line, want) {
				fmt.Println("  " + line)
			}
		}
	}
}

// fetchProgress reads one run's row from the server's /progress JSON.
func fetchProgress(url, id string) (trace.ProgressSnapshot, bool) {
	resp, err := http.Get(url + "/progress")
	if err != nil {
		return trace.ProgressSnapshot{}, false
	}
	defer resp.Body.Close()
	var out struct {
		Runs []struct {
			ID       string                  `json:"id"`
			Progress *trace.ProgressSnapshot `json:"progress"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return trace.ProgressSnapshot{}, false
	}
	for _, r := range out.Runs {
		if r.ID == id && r.Progress != nil {
			return *r.Progress, true
		}
	}
	return trace.ProgressSnapshot{}, false
}
