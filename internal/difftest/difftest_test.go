package difftest_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/assembly"
	"repro/internal/difftest"
	"repro/internal/front"
	"repro/internal/order"
	"repro/internal/seqmf"
	"repro/internal/sparse"
)

// TestComparatorsRejectNaN pins the comparators' strictness: a NaN in a
// factor or a solution is rejected, even against the same NaN, -0 does
// not match +0, and a NaN solution fails a residual bound.
func TestComparatorsRejectNaN(t *testing.T) {
	a := sparse.Grid2D(6, 6)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
	fa, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := seqmf.Factorize(context.Background(), pa, tree, front.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := difftest.CompareFactors(tree, fa.Store(), fb.Store()); err != nil {
		t.Fatalf("equal factors rejected: %v", err)
	}
	la, lb := fa.Front().Block(0, front.PartL), fb.Front().Block(0, front.PartL)
	lb[0] = math.NaN()
	if difftest.CompareFactors(tree, fa.Store(), fb.Store()) == nil {
		t.Error("NaN factor entry accepted")
	}
	la[0] = lb[0]
	if difftest.CompareFactors(tree, fa.Store(), fb.Store()) == nil {
		t.Error("NaN factor entry accepted against the same NaN")
	}

	x := []float64{1, 0, 2}
	for _, bad := range [][]float64{{1, math.NaN(), 2}, {1, math.Copysign(0, -1), 2}} {
		if difftest.SameBits("x", bad, x) == nil {
			t.Errorf("solution %v accepted for %v", bad, x)
		}
	}
	nan := []float64{math.NaN()}
	if difftest.SameBits("x", nan, nan) == nil {
		t.Error("NaN solution accepted against the same NaN")
	}
	b := make([]float64, a.N)
	b[0] = 1
	xn := make([]float64, a.N)
	xn[0] = math.NaN()
	if res := difftest.Residual(a, xn, b); res <= 1e-7 {
		t.Errorf("NaN solution has residual %g", res)
	}
}
