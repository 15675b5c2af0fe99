package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

func TestSuiteShape(t *testing.T) {
	s := Suite()
	if len(s) != 8 {
		t.Fatalf("suite has %d problems, want 8 (Table 1)", len(s))
	}
	wantKind := map[string]sparse.Type{
		"BMWCRA_1": sparse.Symmetric, "GUPTA3": sparse.Symmetric,
		"MSDOOR": sparse.Symmetric, "SHIP_003": sparse.Symmetric,
		"PRE2": sparse.Unsymmetric, "TWOTONE": sparse.Unsymmetric,
		"ULTRASOUND3": sparse.Unsymmetric, "XENON2": sparse.Unsymmetric,
	}
	for _, p := range s {
		k, ok := wantKind[p.Name]
		if !ok {
			t.Errorf("unexpected problem %q", p.Name)
			continue
		}
		if p.Kind != k {
			t.Errorf("%s: kind %v, want %v", p.Name, p.Kind, k)
		}
	}
}

func TestSmallSuiteMatricesValid(t *testing.T) {
	for _, p := range SmallSuite() {
		a := p.Matrix()
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if a.Kind != p.Kind {
			t.Errorf("%s: generated kind %v, declared %v", p.Name, a.Kind, p.Kind)
		}
		if a.N < 100 {
			t.Errorf("%s: suspiciously small (n=%d)", p.Name, a.N)
		}
	}
}

// TestNumericMatrix pins NumericMatrix to the seed-7 FillDominant values
// the executors' tests and the CLIs have always factored, and to Matrix
// itself for problems that carry values.
func TestNumericMatrix(t *testing.T) {
	for _, p := range SmallSuite() {
		got, want := p.NumericMatrix(), p.Matrix()
		if err := sparse.FillDominant(want, rand.New(rand.NewSource(7))); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !got.HasValues() || len(got.Val) != len(want.Val) {
			t.Fatalf("%s: %d values, want %d", p.Name, len(got.Val), len(want.Val))
		}
		for i, v := range want.Val {
			if math.Float64bits(got.Val[i]) != math.Float64bits(v) {
				t.Fatalf("%s: value %d is %v, want %v", p.Name, i, got.Val[i], v)
			}
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	s := SmallSuite()
	for _, p := range s {
		a1 := p.Matrix()
		a2 := p.Matrix()
		if a1.N != a2.N || a1.NNZ() != a2.NNZ() {
			t.Errorf("%s: non-deterministic generation", p.Name)
		}
	}
}

func TestPRE2LargerThanTWOTONE(t *testing.T) {
	// The paper's PRE2 (659k) is much larger than TWOTONE (121k); the
	// analogues must preserve the ordering.
	s := Suite()
	pre2, _ := ByName(s, "PRE2")
	two, _ := ByName(s, "TWOTONE")
	if pre2.Matrix().N <= two.Matrix().N {
		t.Error("PRE2 analogue should be larger than TWOTONE analogue")
	}
}

func TestUnsymmetricFilter(t *testing.T) {
	u := Unsymmetric(Suite())
	if len(u) != 4 {
		t.Fatalf("%d unsymmetric problems, want 4", len(u))
	}
	for _, p := range u {
		if p.Kind != sparse.Unsymmetric {
			t.Errorf("%s in unsymmetric list", p.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName(Suite(), "GUPTA3"); err != nil {
		t.Error(err)
	}
	if _, err := ByName(Suite(), "NOPE"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestCircuitAnaloguesAreStructurallyUnsymmetric(t *testing.T) {
	for _, name := range []string{"PRE2", "TWOTONE"} {
		p, _ := ByName(SmallSuite(), name)
		a := p.Matrix()
		if s := sparse.StructuralSymmetry(a); s >= 0.999 {
			t.Errorf("%s: structural symmetry %v, want < 1", name, s)
		}
	}
}
