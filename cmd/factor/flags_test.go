package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/order"
	"repro/internal/parmf"
)

func parse(t *testing.T, args ...string) (*flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var c flags
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &c, c.validate()
}

func TestDefaultsValidate(t *testing.T) {
	c, err := parse(t, "-matrix", "PRE2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers != 8 || c.BlockRows < 1 || c.Kernel != "auto" || c.NRHS != 1 {
		t.Fatalf("unexpected defaults %+v", c)
	}
	m, err := c.method()
	if err != nil || m != order.ND {
		t.Fatalf("default ordering %v, %v", m, err)
	}
	sp, err := c.slavePolicy()
	if err != nil || sp != parmf.SlavesMemory {
		t.Fatalf("default slaves %v, %v", sp, err)
	}
}

// TestTimeoutAndFaultsFlags pins the robustness flags:
// negative -timeout and malformed -faults schedules are rejected at
// validation; valid ones produce a deadline-bound context and an armed
// injector.
func TestTimeoutAndFaultsFlags(t *testing.T) {
	if _, err := parse(t, "-matrix", "PRE2", "-timeout", "-1s"); err == nil {
		t.Error("negative -timeout accepted")
	}
	if _, err := parse(t, "-matrix", "PRE2", "-faults", "no-such-point:error"); err == nil {
		t.Error("unknown fault point accepted")
	}
	if _, err := parse(t, "-matrix", "PRE2", "-faults", "task:no-such-kind"); err == nil {
		t.Error("unknown fault kind accepted")
	}

	c, err := parse(t, "-matrix", "PRE2", "-timeout", "30s", "-faults", "spill-write:error:2:3,task:delay")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := c.context()
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Error("-timeout did not set a context deadline")
	}
	in, err := c.injector()
	if err != nil || in == nil {
		t.Fatalf("injector() = %v, %v; want armed injector", in, err)
	}

	// No flags: Background-equivalent context, nil injector (zero cost).
	c, err = parse(t, "-matrix", "PRE2")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = c.context()
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("deadline set without -timeout")
	}
	if in, err := c.injector(); err != nil || in != nil {
		t.Fatalf("injector() without -faults = %v, %v; want nil, nil", in, err)
	}
}

func TestValidationRejects(t *testing.T) {
	cases := [][]string{
		{"-matrix", "PRE2", "-workers", "0"},
		{"-matrix", "PRE2", "-workers", "-2"},
		{"-matrix", "PRE2", "-front-split", "0"},
		{"-matrix", "PRE2", "-front-split", "-64"},
		{"-matrix", "PRE2", "-block-rows", "0"},
		{"-matrix", "PRE2", "-block-rows", "-3"},
		{"-matrix", "PRE2", "-nrhs", "0"},
		{"-matrix", "PRE2", "-nrhs", "-4"},
		{"-matrix", "PRE2", "-ordering", "BOGUS"},
		{"-matrix", "PRE2", "-ordering", ""},
		{"-matrix", "PRE2", "-slaves", "nobody"},
		{"-matrix", "PRE2", "-root-grid", "-2"},
		{"-matrix", "PRE2", "-root-grid", "9"},                  // > default 8 workers
		{"-matrix", "PRE2", "-workers", "2", "-root-grid", "3"}, // > explicit workers
		{"-matrix", "PRE2", "-policy", "fifo"},
		{"-matrix", "PRE2", "-bound", "-1"},
		{"-matrix", "PRE2", "-store", "disk"},
		{"-matrix", "PRE2", "-store", "file", "-budget", "-5"},
		{"-matrix", "PRE2", "-budget", "512"}, // spill knobs need -store file
		{"-matrix", "PRE2", "-dir", "."},
		{}, // neither -matrix nor -mm
	}
	for _, args := range cases {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestPrefetchFlagRemoved: the block-count read-ahead knob is gone (the
// -budget entry budget drives the solve's read-ahead), so the flag is an
// unknown-flag error rather than a silently ignored setting.
func TestPrefetchFlagRemoved(t *testing.T) {
	if _, err := parseFlags([]string{"-matrix", "PRE2", "-store", "file", "-prefetch", "4"}, io.Discard); err == nil {
		t.Error("-prefetch accepted")
	}
}

// TestRootGridAccepts pins the accepted -root-grid range: -1 disables the
// 2D root path, 0 asks for the auto grid, and positive values up to the
// worker count select the grid row count — all flowing into parmf.Config.
func TestRootGridAccepts(t *testing.T) {
	for _, rg := range []string{"-1", "0", "1", "4"} {
		c, err := parse(t, "-matrix", "PRE2", "-root-grid", rg)
		if err != nil {
			t.Fatalf("-root-grid %s rejected: %v", rg, err)
		}
		if pcfg := c.parmfConfig(); pcfg.RootGrid != c.RootGrid {
			t.Fatalf("-root-grid %s: executor config got %d", rg, pcfg.RootGrid)
		}
	}
}

func TestLoadSuiteProblem(t *testing.T) {
	c, err := parse(t, "-matrix", "GUPTA3", "-small", "-kernel", "simd")
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.load()
	if err != nil {
		t.Fatal(err)
	}
	if a.N == 0 || !a.HasValues() {
		t.Fatalf("loaded matrix n=%d values=%v (GUPTA3 must be filled)", a.N, a.HasValues())
	}
	cfg, pcfg := c.coreConfig(), c.parmfConfig()
	if cfg.Kernel != dense.KernelSIMD || pcfg.FrontSplit != 128 {
		t.Fatalf("core config %+v, executor config %+v", cfg, pcfg)
	}
}

// TestKernelFlagGrammar pins the -kernel grammar: default, simd and auto
// are accepted, auto when the flag is absent, as core.DefaultConfig picks;
// anything else — the removed fast family included — is rejected with an
// error naming the accepted values, and -kernel is the only flag that
// selects a kernel family.
func TestKernelFlagGrammar(t *testing.T) {
	accept := []struct {
		args []string
		want dense.Kernel
	}{
		{[]string{"-matrix", "PRE2"}, dense.KernelAuto},
		{[]string{"-matrix", "PRE2", "-kernel", "default"}, dense.KernelDefault},
		{[]string{"-matrix", "PRE2", "-kernel", "simd"}, dense.KernelSIMD},
		{[]string{"-matrix", "PRE2", "-kernel", "auto"}, dense.KernelAuto},
		{[]string{"-matrix", "PRE2", "-kernel", "SIMD"}, dense.KernelSIMD},
	}
	for _, c := range accept {
		fl, err := parse(t, c.args...)
		if err != nil {
			t.Fatalf("args %v rejected: %v", c.args, err)
		}
		k, err := fl.kernelFamily()
		if err != nil || k != c.want {
			t.Fatalf("args %v: kernelFamily() = %v, %v; want %v", c.args, k, err, c.want)
		}
		if cfg := fl.coreConfig(); cfg.Kernel != c.want {
			t.Fatalf("args %v: core config kernel %v; want %v", c.args, cfg.Kernel, c.want)
		}
	}

	reject := [][]string{
		{"-matrix", "PRE2", "-kernel", "turbo"},
		{"-matrix", "PRE2", "-kernel", "fastest"},
		{"-matrix", "PRE2", "-kernel", "fast"},
		{"-matrix", "PRE2", "-kernel", "FAST"},
		{"-matrix", "PRE2", "-kernel", ""}, // names no family (leaving the flag out means auto)
	}
	for _, args := range reject {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		} else if !strings.Contains(err.Error(), "default, simd, auto") {
			t.Errorf("args %v: error does not name the accepted values: %v", args, err)
		}
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	new(flags).register(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if strings.Contains(f.Name, "kernel") && f.Name != "kernel" {
			t.Errorf("flag -%s selects a kernel family besides -kernel", f.Name)
		}
	})
}

func TestLoadUnknown(t *testing.T) {
	c, err := parse(t, "-matrix", "NO_SUCH_PROBLEM")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.load(); err == nil || !strings.Contains(err.Error(), "NO_SUCH_PROBLEM") {
		t.Fatalf("unknown problem error %v", err)
	}
}
