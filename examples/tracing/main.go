// Tracing: the paper's Figure 4/6/8 memory-evolution view, twice over —
// the simulator's per-processor prediction next to a *measured* trace of
// the real shared-memory executor factoring the same matrix with the
// same processor count. The real run is recorded by internal/trace
// (attached through core.Config.Tracer): every mutation of each worker's
// stack/active accounting lands in the event stream, so the measured
// sparklines are exact, and the run also exports as Chrome trace_event
// JSON (see cmd/factor -trace for the file form).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

const (
	cols  = 72
	procs = 4
)

func main() {
	log.SetFlags(0)
	a := sparse.Grid3D(12, 12, 12)
	an, err := core.Analyze(a, core.DefaultConfig(order.AMF, procs))
	if err != nil {
		log.Fatal(err)
	}

	// Predicted: the simulator's memory-based strategy with per-processor
	// traces, in virtual time.
	res, err := an.SimulateTraced(parsim.MemoryBased())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== predicted (simulator, memory-based): max peak %d entries, makespan %.1f ms virtual ===\n",
		res.MaxActivePeak, float64(res.Makespan)/1e6)
	for p, ptr := range res.Traces {
		pts := simPoints(ptr)
		fmt.Printf("P%d |%s| peak %d\n",
			p, trace.Sparkline(pts, cols, int64(res.Makespan), res.MaxActivePeak), seriesPeak(pts))
	}
	fmt.Println()

	// Measured: the real executor, same worker count, every span and
	// memory sample recorded by the tracer. Created here — after the
	// symbolic phase — so the trace clock starts at the factorization.
	tr := trace.New(procs)
	an.Config.Tracer = tr
	pf, err := an.FactorizeParallel(parmf.DefaultConfig(procs))
	if err != nil {
		log.Fatal(err)
	}
	series := tr.MemorySeries()
	end := tr.EndNs()
	// Scale the measured strips to the measured per-worker maximum so the
	// two views use comparable ramps (each normalized to its own peak).
	var measMax int64 = 1
	for _, s := range series {
		if s.Worker >= 0 && s.Peak() > measMax {
			measMax = s.Peak()
		}
	}
	fmt.Printf("=== measured (parmf, %d workers): max worker peak %d entries, %d trace events ===\n",
		pf.Stats.Workers, pf.Stats.PeakStack, tr.Events())
	for _, s := range series {
		if s.Worker < 0 {
			continue
		}
		fmt.Printf("W%d |%s| peak %d\n",
			s.Worker, trace.Sparkline(s.Active, cols, end, measMax), s.Peak())
	}
	fmt.Println()

	// Divergence: simulated vs measured per-processor active peaks, and
	// the exactness guarantee of the recorded resident timeline.
	fmt.Printf("peak divergence: predicted max/proc %d, measured max/worker %d (%+.1f%%)\n",
		res.MaxActivePeak, pf.Stats.PeakStack,
		100*float64(pf.Stats.PeakStack-res.MaxActivePeak)/float64(res.MaxActivePeak))
	var resident int64
	for _, s := range series {
		if s.Worker < 0 && s.Name == "resident" {
			resident = s.Peak()
		}
	}
	fmt.Printf("resident timeline max %d == ExecStats.ResidentPeak %d: %v\n",
		resident, pf.Stats.ResidentPeak, resident == pf.Stats.ResidentPeak)
	fmt.Println()
	fmt.Println("Each row is one processor's active memory (CB stack + fronts) over")
	fmt.Println("time — virtual for the prediction, wall-clock for the measurement;")
	fmt.Println("' .:-=+*#%@' spans 0..that view's peak. The measured strips come")
	fmt.Println("from the tracer's exact per-mutation samples, so the printed peaks")
	fmt.Println("equal the executor's accounting bit for bit.")
}

// simPoints converts a simulator trace to the tracer's point form so one
// renderer draws both views.
func simPoints(ptr []memory.TracePoint) []trace.Point {
	pts := make([]trace.Point, len(ptr))
	for i, t := range ptr {
		pts[i] = trace.Point{T: int64(t.T), V: t.Active}
	}
	return pts
}

func seriesPeak(pts []trace.Point) int64 {
	var m int64
	for _, p := range pts {
		if p.V > m {
			m = p.V
		}
	}
	return m
}
