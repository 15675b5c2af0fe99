// Liveobs: the in-flight observability plane. An embedded internal/obs
// server watches a traced parallel out-of-core factorization while it
// runs: the example polls its own /progress endpoint over HTTP from a
// second goroutine, printing a progress bar with ETA as fronts complete,
// then dumps an excerpt of the final Prometheus scrape. The same plane
// is what cmd/factor exposes behind -listen (see
// README "Observability": curl /metrics, /progress, /runs, /trace.json,
// /timeline.csv or /debug/pprof while a factorization executes).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/sparse"
	"repro/internal/trace"
)

const workers = 4

func main() {
	log.SetFlags(0)

	// A grid problem big enough that the poller catches it mid-flight.
	a := sparse.Grid3D(26, 26, 26)
	cfg := core.DefaultConfig(order.ND, workers)
	cfg.Tracer = trace.New(workers)
	an, err := core.Analyze(a, cfg)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := obs.NewServer("127.0.0.1:0", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	run, err := srv.Registry().Register("grid3d-26", cfg.Tracer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("observability plane live on %s\n", srv.URL())
	fmt.Printf("factoring n=%d (%d fronts, %d workers)\n\n", a.N, an.Tree.Len(), workers)

	done := make(chan error, 1)
	go func() {
		f, st, err := an.FactorizeParallelOOC(parmf.Config{Workers: workers})
		if err != nil {
			run.Fail(err)
			done <- err
			return
		}
		defer st.Close()
		run.SetSpill(st.Stats)
		run.Complete(f.Stats.ExecStats)
		done <- nil
	}()

	// Watch the run the way an external dashboard would: over HTTP.
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
poll:
	for {
		select {
		case err := <-done:
			if err != nil {
				log.Fatal(err)
			}
			break poll
		case <-tick.C:
			if pr, ok := fetchProgress(srv.URL(), run.ID()); ok && pr.FrontsTotal > 0 {
				fmt.Printf("  [%-30s] %5.1f%%  %4d/%d fronts  eta %5.2fs  resident %d entries\n",
					strings.Repeat("#", int(pr.Ratio*30)), pr.Ratio*100,
					pr.FrontsDone, pr.FrontsTotal, pr.ETASeconds, pr.ResidentEntries)
			}
		}
	}

	pr := run.Progress()
	fmt.Printf("\ndone: %d fronts, %.2fs wall, resident peak %d entries\n",
		pr.FrontsDone, pr.ElapsedSeconds, pr.ResidentPeakEntries)

	// The final scrape now carries the executor's authoritative stats.
	resp, err := http.Get(srv.URL() + "/metrics?run=" + run.ID())
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
