package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Obs is the observability lifecycle of one run: it owns the tracer the
// executors record into, the live HTTP plane -listen asks for, and the
// profile/trace/metrics files the run ends by writing. Build one with
// flags.observability after flag parsing, attach Obs.Tracer to the
// analysis configuration, and call Finish with the run's stats before
// exiting.
type Obs struct {
	// Tracer records the run; nil when none of -trace, -metrics or
	// -listen was given (the executors then skip all event work).
	Tracer *trace.Tracer
	// Server is the live observability plane (-listen); nil otherwise.
	Server *obs.Server
	// Run is this process's registered run on Server (same nil-ness).
	Run *obs.Run

	trace   string
	metrics string
	pprof   string
	linger  time.Duration
	cpuFile *os.File
	faults  *faults.Injector
	stderr  io.Writer // status lines (live URL, linger notice)
}

// observability starts the observability the flags ask for: a CPU
// profile when -pprof is set, a tracer when -trace, -metrics or -listen
// is, and the live HTTP server when -listen is; status lines go to
// stderr. With all flags empty the Obs is inert and Finish is a no-op.
func (c *flags) observability(stderr io.Writer) (*Obs, error) {
	o := &Obs{trace: c.Trace, metrics: c.Metrics, pprof: c.Pprof, linger: c.ListenLinger, stderr: stderr}
	if c.Trace != "" || c.Metrics != "" || c.Listen != "" {
		o.Tracer = trace.New(c.Workers)
	}
	if c.Listen != "" {
		srv, err := obs.NewServer(c.Listen, nil)
		if err != nil {
			return nil, err
		}
		name := c.Matrix
		if name == "" {
			name = filepath.Base(c.MM)
		}
		run, err := srv.Registry().Register(name, o.Tracer)
		if err != nil {
			srv.Close()
			return nil, err
		}
		o.Server, o.Run = srv, run
		fmt.Fprintf(stderr, "observability: live on %s (metrics, progress, runs, pprof)\n", srv.URL())
	}
	if c.Pprof != "" {
		f, err := os.Create(c.Pprof + ".cpu.pprof")
		if err != nil {
			o.closeServer()
			return nil, fmt.Errorf("create CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			o.closeServer()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		o.cpuFile = f
	}
	return o, nil
}

// SetFaults attaches the run's fault injector (from flags.injector):
// live /metrics scrapes and the final -metrics snapshot then carry the
// mf_faults_injected_total series. nil is a no-op.
func (o *Obs) SetFaults(in *faults.Injector) {
	o.faults = in
	if o.Run != nil {
		o.Run.SetFaults(in)
	}
}

// Finish completes the registered run with the executor's authoritative
// stats, keeps the live server up for the -listen-linger window, shuts
// it down, then stops the CPU profile, writes the heap profile, and
// renders the trace and metrics outputs. stats is the run's executor
// stats (zero is fine when the run failed before producing any). Finish
// reports the first error but always attempts every output.
func (o *Obs) Finish(stats memory.ExecStats) error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if o.Run != nil && o.Run.Status() == obs.StatusRunning {
		o.Run.Complete(stats)
	}
	if o.Server != nil {
		if o.linger > 0 {
			fmt.Fprintf(o.stderr, "observability: run done, serving %s for another %v\n", o.Server.URL(), o.linger)
			time.Sleep(o.linger)
		}
		keep(o.Server.Close())
		o.Server = nil
	}
	if o.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(o.cpuFile.Close())
		o.cpuFile = nil
	}
	if o.pprof != "" {
		keep(o.writeHeapProfile(o.pprof + ".heap.pprof"))
	}
	if o.trace != "" && o.Tracer != nil {
		keep(writeTo(o.trace, o.Tracer.WriteChromeTrace))
	}
	if o.metrics != "" && o.Tracer != nil {
		snap := o.Tracer.Snapshot(stats)
		if o.faults != nil {
			for _, fs := range o.faults.Stats() {
				if fs.Fired > 0 {
					snap.Faults = append(snap.Faults, trace.FaultStat{Point: string(fs.Point), Count: fs.Fired})
				}
			}
		}
		if strings.HasSuffix(o.metrics, ".json") {
			keep(writeTo(o.metrics, snap.WriteJSON))
		} else {
			keep(writeTo(o.metrics, snap.WritePrometheus))
		}
	}
	return first
}

// Abort is Finish for a run that died: it marks the registered run
// failed with err (so a lingering /runs scrape reports status "failed"
// and the error text) and then runs the normal shutdown — linger
// window, server close, profiles, trace and metrics outputs, which are
// exactly what post-mortem debugging of the failure wants. stats may be
// partial or zero.
func (o *Obs) Abort(err error, stats memory.ExecStats) error {
	if o.Run != nil && o.Run.Status() == obs.StatusRunning {
		o.Run.Fail(err)
	}
	return o.Finish(stats)
}

// closeServer tears the live plane down on a failed startup path.
func (o *Obs) closeServer() {
	if o.Server != nil {
		o.Server.Close()
		o.Server, o.Run = nil, nil
	}
}

func (o *Obs) writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize up-to-date allocation stats
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTo creates path and streams write into it, closing on all paths.
func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
