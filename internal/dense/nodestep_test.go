package dense_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/front"
	"repro/internal/sparse"
)

// The node-step pin lives here, next to the kernels, because only the
// dense package can switch the SIMD dispatch between the vector and the
// portable path within one test binary.

// randomNode returns a front of order f with npiv pivots, its pivot rows
// at a random offset of the permuted index space and its CB rows after
// them in runs of 1-9 consecutive rows with gaps of 1-3, and the order n
// of a block that holds every one of its rows.
func randomNode(rng *rand.Rand, f, npiv int) (*assembly.Node, int) {
	nd := &assembly.Node{Begin: rng.Intn(5)}
	nd.End = nd.Begin + npiv
	g := nd.End + rng.Intn(3)
	for len(nd.Rows) < f-npiv {
		for run := 1 + rng.Intn(9); run > 0 && len(nd.Rows) < f-npiv; run-- {
			nd.Rows = append(nd.Rows, g)
			g++
		}
		g += 1 + rng.Intn(3)
	}
	return nd, g + rng.Intn(3)
}

// randomBlock returns the parts of a factor block of kind for an f x
// npiv front in the store's layout (L f x npiv, and U npiv x f when
// unsymmetric), a fifth of its entries exact zeros and every diagonal a
// safe divisor.
func randomBlock(rng *rand.Rand, f, npiv int, kind sparse.Type) (L, U dense.Matrix) {
	blk := make([]float64, front.PartWords(f, npiv)*int64(front.Parts(kind)))
	for i := range blk {
		if rng.Intn(5) > 0 {
			blk[i] = rng.NormFloat64()
		}
	}
	L = dense.Matrix{R: f, C: npiv, A: blk[:f*npiv]}
	if kind == sparse.Unsymmetric {
		U = dense.Matrix{R: npiv, C: f, A: blk[f*npiv:]}
	}
	for k := 0; k < npiv; k++ {
		L.Set(k, k, 2+rng.Float64())
		if kind == sparse.Unsymmetric {
			U.Set(k, k, 2+rng.Float64())
		}
	}
	return L, U
}

// gather copies node nd's front rows of x — pivot rows, then CB rows —
// into a fresh f x nrhs panel.
func gather(x []float64, nd *assembly.Node, nrhs int) *dense.Matrix {
	W := dense.New(nd.NFront(), nrhs)
	npiv := copy(W.A, x[nd.Begin*nrhs:nd.End*nrhs]) / nrhs
	for k, g := range nd.Rows {
		copy(W.Row(npiv+k), x[g*nrhs:(g+1)*nrhs])
	}
	return W
}

// scatter copies the first rows rows of the front panel W back to x.
func scatter(x []float64, nd *assembly.Node, W *dense.Matrix, rows int) {
	nrhs, npiv := W.C, nd.NPiv()
	for i := 0; i < rows; i++ {
		g := nd.Begin + i
		if i >= npiv {
			g = nd.Rows[i-npiv]
		}
		copy(x[g*nrhs:(g+1)*nrhs], W.Row(i))
	}
}

// TestNodeStepsMatchGatherScatter pins front.ForwardNodePanel and
// front.BackwardNodePanel, which run the kernels in place on the
// right-hand-side block, to the node step they replaced — gather the
// front's rows into a panel, run the whole-front kernel, scatter the
// rows back (every row forward, the pivot rows backward) — bit for bit
// over the whole block, for both kernel families and factor kinds, on
// the vector and the portable path.
func TestNodeStepsMatchGatherScatter(t *testing.T) {
	paths := []struct {
		name  string
		force func(*testing.T)
	}{{"vector", dense.ForceVector}, {"portable", dense.ForcePortable}}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			path.force(t)
			rng := rand.New(rand.NewSource(26))
			for _, kern := range []dense.Kernel{dense.KernelDefault, dense.KernelSIMD} {
				for _, kind := range []sparse.Type{sparse.Symmetric, sparse.Unsymmetric} {
					for _, f := range []int{1, 2, 3, 5, 8, 13, 24, 40} {
						for _, npiv := range []int{0, 1, f / 2, f - 1, f} {
							for _, nrhs := range []int{1, 2, 8, 16, 17} {
								name := fmt.Sprintf("%v/%v/f=%d/npiv=%d/nrhs=%d", kern, kind, f, npiv, nrhs)
								checkNodeStep(t, rng, name, kern, kind, f, npiv, nrhs)
							}
						}
					}
				}
			}
		})
	}
}

func checkNodeStep(t *testing.T, rng *rand.Rand, name string, kern dense.Kernel, kind sparse.Type, f, npiv, nrhs int) {
	t.Helper()
	nd, n := randomNode(rng, f, npiv)
	L, U := randomBlock(rng, f, npiv, kind)
	chol := kind == sparse.Symmetric
	bwd := &U
	if chol {
		bwd = &L
	}
	x0 := make([]float64, n*nrhs)
	for i := range x0 {
		if rng.Intn(4) > 0 { // exact zeros exercise the default forward skip
			x0[i] = rng.NormFloat64()
		}
	}
	same := func(pass string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s %s: x[%d] (row %d) = %v, gather/scatter step %v", name, pass, i, i/nrhs, got[i], want[i])
			}
		}
	}

	want := append([]float64(nil), x0...)
	W := gather(want, nd, nrhs)
	kern.PanelForward(chol, &L, npiv, W)
	scatter(want, nd, W, f)
	got := append([]float64(nil), x0...)
	front.ForwardNodePanel(got, nd, kind, L.A, nrhs, kern)
	same("forward", got, want)

	want = append(want[:0], x0...)
	W = gather(want, nd, nrhs)
	kern.PanelBackward(chol, bwd, npiv, W)
	scatter(want, nd, W, npiv)
	got = append(got[:0], x0...)
	front.BackwardNodePanel(got, nd, kind, bwd.A, nrhs, make([]float64, len(nd.Rows)*nrhs), kern)
	same("backward", got, want)
}
