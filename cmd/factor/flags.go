package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/faults"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// flags is the command line of one run; register documents each field.
type flags struct {
	Matrix     string
	MM         string
	Ordering   string
	Workers    int
	Split      int64
	FrontSplit int
	BlockRows  int
	RootGrid   int
	Slaves     string
	Policy     string
	Bound      int64
	Kernel     string
	Small      bool
	NRHS       int
	Seq        bool

	// The file store's knobs (Budget, Dir) apply only when Store is
	// "file".
	Store  string
	Budget int64
	Dir    string

	Trace        string
	Metrics      string
	Pprof        string
	Listen       string
	ListenLinger time.Duration
	Timeout      time.Duration
	Faults       string
}

// register declares the flags on fs.
func (c *flags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.Matrix, "matrix", "", "suite problem name (see experiments -table 1)")
	fs.StringVar(&c.MM, "mm", "", "MatrixMarket file to read instead of a suite problem")
	fs.StringVar(&c.Ordering, "ordering", "METIS", "fill-reducing ordering: METIS|PORD|AMD|AMF|RCM|NATURAL")
	fs.IntVar(&c.Workers, "workers", 8, "worker goroutine count (1 runs the sequential executor)")
	fs.Int64Var(&c.Split, "split", 0, "split masters larger than this many entries (0 = off)")
	fs.IntVar(&c.FrontSplit, "front-split", 128, "factor fronts at least this large via within-front master/slave tasks")
	fs.IntVar(&c.BlockRows, "block-rows", dense.DefaultBlockRows, "panel width / tile edge of the blocked kernels and within-front partitions")
	fs.IntVar(&c.RootGrid, "root-grid", 0, "2D (type-3) root-front worker grid rows: 0 = auto (floor(sqrt(workers))), -1 = 1D roots, N > 0 = N grid rows")
	fs.StringVar(&c.Slaves, "slaves", "memory", "slave selection for split fronts: memory (Algorithm 1) or workload")
	fs.StringVar(&c.Policy, "policy", "memory", "task selection: memory (Algorithm 2) or depthfirst")
	fs.Int64Var(&c.Bound, "bound", 0, "per-worker memory bound in entries (0 = sequential peak)")
	fs.StringVar(&c.Kernel, "kernel", "auto", "dense kernel family: default|simd|auto (auto picks simd when AVX2/FMA is available, default otherwise)")
	fs.BoolVar(&c.Small, "small", false, "use the reduced (test-scale) suite")
	fs.IntVar(&c.NRHS, "nrhs", 1, "number of right-hand sides solved as one blocked multi-RHS pass")
	fs.BoolVar(&c.Seq, "seq", false, "also run the sequential in-core factorization: report speedup and the factor and solution diffs")
	fs.StringVar(&c.Store, "store", "mem", "factor store: mem (in-core) or file (spilled to disk as produced, next to an in-core run)")
	fs.Int64Var(&c.Budget, "budget", 0, "-store file: resident spill-buffer budget in entries (0 = factors/16)")
	fs.StringVar(&c.Dir, "dir", "", "-store file: spill directory (default: system temp dir)")
	fs.StringVar(&c.Trace, "trace", "", "write Chrome trace_event JSON of the run to this file (chrome://tracing / Perfetto)")
	fs.StringVar(&c.Metrics, "metrics", "", "write the aggregated counters snapshot to this file (.json = JSON, otherwise Prometheus text format)")
	fs.StringVar(&c.Pprof, "pprof", "", "capture runtime profiles to <prefix>.cpu.pprof and <prefix>.heap.pprof")
	fs.StringVar(&c.Listen, "listen", "", "serve live observability HTTP (/metrics, /progress, /runs, /debug/pprof) on this host:port during the run")
	fs.DurationVar(&c.ListenLinger, "listen-linger", 0, "keep the -listen server up this long after the run completes (lets scrapers catch short runs)")
	fs.DurationVar(&c.Timeout, "timeout", 0, "abort the run after this long (0 = no deadline); the executors drain cleanly and the command exits nonzero")
	fs.StringVar(&c.Faults, "faults", "", "deterministic fault-injection schedule, e.g. 'spill-write:error:2:3,task:delay' (chaos testing; see internal/faults)")
}

// parseFlags parses args into validated flags; usage and parse errors go
// to stderr.
func parseFlags(args []string, stderr io.Writer) (*flags, error) {
	fs := flag.NewFlagSet("factor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c flags
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	return &c, c.validate()
}

// validate checks the numeric ranges and grammars of the flags.
func (c *flags) validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d)", c.Workers)
	}
	if c.FrontSplit < 1 {
		return fmt.Errorf("-front-split must be >= 1 (got %d)", c.FrontSplit)
	}
	if c.BlockRows < 1 {
		return fmt.Errorf("-block-rows must be >= 1 (got %d)", c.BlockRows)
	}
	if c.NRHS < 1 {
		return fmt.Errorf("-nrhs must be >= 1 (got %d)", c.NRHS)
	}
	if c.RootGrid < -1 {
		return fmt.Errorf("-root-grid must be -1 (disable), 0 (auto) or positive grid rows (got %d)", c.RootGrid)
	}
	if c.RootGrid > c.Workers {
		return fmt.Errorf("-root-grid %d exceeds -workers %d (grid rows cannot outnumber workers)", c.RootGrid, c.Workers)
	}
	if c.Bound < 0 {
		return fmt.Errorf("-bound must be >= 0 (got %d)", c.Bound)
	}
	if c.Budget < 0 {
		return fmt.Errorf("-budget must be >= 0 (got %d)", c.Budget)
	}
	switch c.Store {
	case "mem":
		if c.Budget != 0 || c.Dir != "" {
			return fmt.Errorf("-budget and -dir need -store file")
		}
	case "file":
	default:
		return fmt.Errorf("unknown -store %q (want mem or file)", c.Store)
	}
	if _, err := c.method(); err != nil {
		return err
	}
	if _, err := c.slavePolicy(); err != nil {
		return err
	}
	if _, err := c.policy(); err != nil {
		return err
	}
	if _, err := c.kernelFamily(); err != nil {
		return err
	}
	if c.Matrix == "" && c.MM == "" {
		return fmt.Errorf("need -matrix NAME or -mm FILE")
	}
	if err := c.validateOutputs(); err != nil {
		return err
	}
	if c.Listen != "" {
		if _, _, err := net.SplitHostPort(c.Listen); err != nil {
			return fmt.Errorf("-listen %q is not host:port: %v", c.Listen, err)
		}
	}
	if c.ListenLinger < 0 {
		return fmt.Errorf("-listen-linger must be >= 0 (got %v)", c.ListenLinger)
	}
	if c.ListenLinger > 0 && c.Listen == "" {
		return fmt.Errorf("-listen-linger needs -listen")
	}
	if c.Timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (got %v)", c.Timeout)
	}
	if _, err := c.injector(); err != nil {
		return fmt.Errorf("-faults: %v", err)
	}
	return nil
}

// context returns the run context -timeout asks for: a deadline-bound
// context when the flag is positive, plain Background otherwise. The
// caller must invoke cancel on every path (it is never nil).
func (c *flags) context() (context.Context, context.CancelFunc) {
	if c.Timeout > 0 {
		return context.WithTimeout(context.Background(), c.Timeout)
	}
	return context.WithCancel(context.Background())
}

// injector parses -faults into an armed injector (nil when the flag is
// empty — the executors then skip all fault checks at zero cost).
func (c *flags) injector() (*faults.Injector, error) {
	return faults.Parse(c.Faults)
}

// validateOutputs checks the observability paths: each must be a usable
// file path (not an existing directory) and the outputs must not collide
// with each other (-pprof is a prefix, so it collides when a derived
// profile path equals another output).
func (c *flags) validateOutputs() error {
	outs := map[string]string{}
	add := func(flagName, path string) error {
		if path == "" {
			return nil
		}
		if fi, err := os.Stat(path); err == nil && fi.IsDir() {
			return fmt.Errorf("%s %q is a directory", flagName, path)
		}
		if prev, ok := outs[path]; ok {
			return fmt.Errorf("%s %q collides with %s", flagName, path, prev)
		}
		outs[path] = flagName
		return nil
	}
	if err := add("-trace", c.Trace); err != nil {
		return err
	}
	if err := add("-metrics", c.Metrics); err != nil {
		return err
	}
	if c.Pprof != "" {
		if fi, err := os.Stat(c.Pprof); err == nil && fi.IsDir() {
			return fmt.Errorf("-pprof prefix %q is a directory", c.Pprof)
		}
		for _, p := range []string{c.Pprof + ".cpu.pprof", c.Pprof + ".heap.pprof"} {
			if err := add("-pprof", p); err != nil {
				return err
			}
		}
	}
	return nil
}

// method parses -ordering (case-insensitive order.Method names; ND is
// METIS).
func (c *flags) method() (order.Method, error) {
	return order.Parse(strings.ToUpper(c.Ordering))
}

// kernelFamily parses -kernel (default|simd|auto; auto unless given, as
// in core.DefaultConfig). The returned Kernel may be dense.KernelAuto —
// the executors resolve it to the concrete family and report that in
// their stats.
func (c *flags) kernelFamily() (dense.Kernel, error) {
	k, err := dense.ParseKernel(c.Kernel)
	if err != nil {
		return dense.KernelDefault, fmt.Errorf("-kernel: %v", err)
	}
	return k, nil
}

// slavePolicy parses -slaves.
func (c *flags) slavePolicy() (parmf.SlavePolicy, error) {
	switch strings.ToLower(c.Slaves) {
	case "memory":
		return parmf.SlavesMemory, nil
	case "workload":
		return parmf.SlavesWorkload, nil
	}
	return 0, fmt.Errorf("unknown slave policy %q", c.Slaves)
}

// policy parses -policy.
func (c *flags) policy() (parmf.Policy, error) {
	switch strings.ToLower(c.Policy) {
	case "memory":
		return parmf.MemoryAware, nil
	case "depthfirst":
		return parmf.DepthFirst, nil
	}
	return 0, fmt.Errorf("unknown policy %q", c.Policy)
}

// load reads the selected matrix (-mm file or suite problem) and fills
// pattern-only ones with deterministic diagonally dominant values.
func (c *flags) load() (*sparse.CSC, error) {
	switch {
	case c.MM != "":
		f, err := os.Open(c.MM)
		if err != nil {
			return nil, err
		}
		a, err := sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		// The same fill a suite problem gets from NumericMatrix.
		if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
			return nil, err
		}
		return a, nil
	case c.Matrix != "":
		suite := workload.Suite()
		if c.Small {
			suite = workload.SmallSuite()
		}
		p, err := workload.ByName(suite, c.Matrix)
		if err != nil {
			return nil, err
		}
		return p.NumericMatrix(), nil
	}
	return nil, fmt.Errorf("need -matrix NAME or -mm FILE")
}

// coreConfig builds the analysis configuration validated flags describe;
// its numeric options reach every factorization of the run.
func (c *flags) coreConfig() core.Config {
	m, _ := c.method()          // validated
	kern, _ := c.kernelFamily() // validated
	cfg := core.DefaultConfig(m, c.Workers)
	cfg.SplitThreshold = c.Split
	cfg.BlockRows = c.BlockRows
	cfg.Kernel = kern
	cfg.OOC = ooc.Options{Dir: c.Dir, BufferEntries: c.Budget}
	return cfg
}

// parmfConfig builds the parallel executor's scheduling configuration
// validated flags describe.
func (c *flags) parmfConfig() parmf.Config {
	pcfg := parmf.DefaultConfig(c.Workers)
	pcfg.Policy, _ = c.policy()           // validated
	pcfg.SlavePolicy, _ = c.slavePolicy() // validated
	pcfg.PeakBound = c.Bound
	pcfg.FrontSplit = c.FrontSplit
	pcfg.RootGrid = c.RootGrid
	return pcfg
}
