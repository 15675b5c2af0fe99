package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRunBothStoresSmallPRE2 drives the whole command on the reduced
// PRE2 at one worker (the sequential executor) and two (the parallel
// one), in-core and out-of-core, each next to the sequential reference:
// every run must report zero factor and solution differences.
func TestRunBothStoresSmallPRE2(t *testing.T) {
	zeroX := regexp.MustCompile(`(?m)^  max x diff +0 over 2 rhs$`)
	for _, workers := range []string{"1", "2"} {
		for _, store := range []string{"mem", "file"} {
			args := []string{"-matrix", "PRE2", "-small", "-workers", workers, "-store", store, "-seq", "-nrhs", "2"}
			if store == "file" {
				args = append(args, "-dir", t.TempDir())
			}
			var out, errOut bytes.Buffer
			if err := run(args, &out, &errOut); err != nil {
				t.Fatalf("%v: %v (stderr %q)", args, err, errOut.String())
			}
			got := out.String()
			if !zeroX.MatchString(got) || !strings.Contains(got, "max factor diff  0\n") {
				t.Errorf("%v: nonzero or missing reference diffs:\n%s", args, got)
			}
			if store == "file" && !strings.Contains(got, "max |x_incore - x_ooc| = 0 ") {
				t.Errorf("%v: out-of-core solution differs from in-core:\n%s", args, got)
			}
		}
	}
}

// TestStoresSolveBitwiseEqual factors the reduced PRE2 into both stores
// through the command's run path and compares the solutions bit for bit.
func TestStoresSolveBitwiseEqual(t *testing.T) {
	for _, workers := range []int{1, 2} {
		fl, err := parseFlags([]string{"-matrix", "PRE2", "-small", "-store", "file", "-dir", t.TempDir(), "-nrhs", "3"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		r := newTestRunner(t, fl)
		mem, err := r.factorize(context.Background(), workers, false)
		if err != nil {
			t.Fatal(err)
		}
		file, err := r.factorize(context.Background(), workers, true)
		if err != nil {
			t.Fatal(err)
		}
		if file.spill == nil || file.spill.Blocks == 0 || file.Front != nil {
			t.Fatalf("%d workers: file store run spilled nothing: %+v", workers, file.spill)
		}
		for i := range mem.x {
			if math.Float64bits(mem.x[i]) != math.Float64bits(file.x[i]) {
				t.Fatalf("%d workers: x[%d] = %v in-core, %v out-of-core", workers, i, mem.x[i], file.x[i])
			}
		}
		if mem.Stats.FactorEntries != file.Stats.FactorEntries {
			t.Errorf("%d workers: factor entries %d in-core, %d out-of-core", workers, mem.Stats.FactorEntries, file.Stats.FactorEntries)
		}
	}
}

// TestRunErrors pins the failure paths: bad flags are rejected before
// any work, and an expired -timeout aborts with an error naming it.
func TestRunErrors(t *testing.T) {
	if err := run([]string{"-matrix", "PRE2", "-store", "file", "-budget", "-5"}, io.Discard, io.Discard); err == nil {
		t.Error("negative -budget accepted")
	}
	err := run([]string{"-matrix", "PRE2", "-small", "-workers", "2", "-timeout", "1ns"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "run exceeded -timeout") {
		t.Errorf("-timeout 1ns: err = %v", err)
	}
}

// newTestRunner analyzes the problem fl selects and returns a runner over
// it with the command's right-hand sides and no observability.
func newTestRunner(t *testing.T, fl *flags) *runner {
	t.Helper()
	a, err := fl.load()
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(a, fl.coreConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &runner{an: an, pcfg: fl.parmfConfig(), obs: &Obs{}, b: rhs(a.N, fl.NRHS), nrhs: fl.NRHS}
}
