package dense

import (
	"math"
	"math/rand"
	"testing"
)

// forcePortable pins the portable primitive path for the duration of the
// test and restores the init-time dispatch afterwards.
func forcePortable(t *testing.T) {
	t.Helper()
	was := simdEnabled
	simdEnabled = false
	t.Cleanup(func() { simdEnabled = was })
}

// forceVector requires and pins the hardware vector path; skips when the
// machine has none.
func forceVector(t *testing.T) {
	t.Helper()
	if !simdHW {
		t.Skip("no AVX2/FMA hardware path on this machine")
	}
	was := simdEnabled
	simdEnabled = true
	t.Cleanup(func() { simdEnabled = was })
}

func randSpan(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
		if rng.Float64() < 0.1 {
			s[i] = 0
		}
	}
	return s
}

// TestSIMDPrimitivesMatchPortable pins the core bitwise contract: the
// assembly primitives compute exactly the math.FMA recipe of their
// portable twins at every span length (covering all main-loop/tail
// combinations of the 16/4/1 unrolling).
func TestSIMDPrimitivesMatchPortable(t *testing.T) {
	if !simdHW {
		t.Skip("no AVX2/FMA hardware path on this machine")
	}
	was := simdEnabled
	simdEnabled = true
	defer func() { simdEnabled = was }()

	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 70; n++ {
		d := randSpan(rng, n)
		a := randSpan(rng, n)
		b := randSpan(rng, n)
		c := randSpan(rng, n)
		e := randSpan(rng, n)
		la, lb, lc, ld := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()

		check := func(name string, asm func(dst []float64), ref func(dst []float64)) {
			t.Helper()
			dAsm := append([]float64(nil), d...)
			dRef := append([]float64(nil), d...)
			asm(dAsm)
			ref(dRef)
			for j := range dAsm {
				if math.Float64bits(dAsm[j]) != math.Float64bits(dRef[j]) {
					t.Fatalf("%s n=%d: element %d differs: asm %v ref %v", name, n, j, dAsm[j], dRef[j])
				}
			}
		}
		check("fnmaSpan1",
			func(dst []float64) { fnmaSpan1(dst, a, la) },
			func(dst []float64) { fnmaSpan1Go(dst, a, la) })
		check("fnmaSpan2",
			func(dst []float64) { fnmaSpan2(dst, a, b, la, lb) },
			func(dst []float64) { fnmaSpan2Go(dst, a, b, la, lb) })
		check("fnmaSpan4",
			func(dst []float64) { fnmaSpan4(dst, a, b, c, e, la, lb, lc, ld) },
			func(dst []float64) { fnmaSpan4Go(dst, a, b, c, e, la, lb, lc, ld) })
		// The chain primitives over nk source rows of the span, ss apart
		// (coefficients cs apart for the 1-row chain, contiguous per row
		// for the 4-row one): every 16/8/4 column block and scalar tail.
		for _, nk := range []int{1, 2, 5} {
			const ss, cs = 73, 3
			src := randSpan(rng, (nk-1)*ss+n)
			coef := randSpan(rng, 4*(cs+nk))
			check("fnmaChain1",
				func(dst []float64) { fnmaChain1(dst, src, ss, coef, cs, nk) },
				func(dst []float64) { fnmaChain1Go(dst, src, ss, coef, cs, nk) })
			// The row chains: 1-9 rows of the span's length, scattered
			// out of order over a block twice their count (so the
			// assembly's offsets from a group's first row run both ways),
			// and every leftover count after the groups of four.
			for nr := 1; nr <= 9; nr++ {
				rows := rng.Perm(2 * nr)[:nr]
				coefR := randSpan(rng, nr*(cs+nk))
				run := func(f func(x []float64)) []float64 {
					x := randSpan(rand.New(rand.NewSource(int64(nr))), 2*nr*n)
					f(x)
					return x
				}
				dAsm := run(func(x []float64) { fnmaRows(x, rows, n, src, ss, coefR, cs+nk, nk) })
				dRef := run(func(x []float64) { fnmaRowsGo(x, rows, n, src, ss, coefR, cs+nk, nk) })
				for j := range dAsm {
					if math.Float64bits(dAsm[j]) != math.Float64bits(dRef[j]) {
						t.Fatalf("fnmaRows n=%d nk=%d rows=%d: element %d differs: asm %v ref %v", n, nk, nr, j, dAsm[j], dRef[j])
					}
				}
			}
		}
		check("addSpan",
			func(dst []float64) { addSpanFast(dst, a) },
			func(dst []float64) { addSpanGo(dst, a) })

		// scatterRuns4 over a fragmented run decomposition of the span:
		// four row pairs, runs of 3 with gaps, vector main + scalar tail.
		if n >= 2 {
			var srcRuns []IndexRun
			for j := 0; j+1 < n; j += 5 {
				l := 3
				if j+l > n-1 {
					l = n - 1 - j
				}
				srcRuns = append(srcRuns, IndexRun{J0: int32(j), C0: int32(j + 1), Len: int32(l)})
			}
			mk := func() (ds, ss [4][]float64) {
				for r := 0; r < 4; r++ {
					ds[r] = append([]float64(nil), d...)
					ss[r] = randSpan(rand.New(rand.NewSource(int64(100+r))), n)
				}
				return
			}
			dAsm, src := mk()
			dRef, _ := mk()
			scatterRuns4(dAsm[0], dAsm[1], dAsm[2], dAsm[3], src[0], src[1], src[2], src[3], srcRuns)
			scatterRuns4Go(dRef[0], dRef[1], dRef[2], dRef[3], src[0], src[1], src[2], src[3], srcRuns)
			for r := 0; r < 4; r++ {
				for j := range dAsm[r] {
					if math.Float64bits(dAsm[r][j]) != math.Float64bits(dRef[r][j]) {
						t.Fatalf("scatterRuns4 n=%d row %d element %d: asm %v ref %v",
							n, r, j, dAsm[r][j], dRef[r][j])
					}
				}
			}
		}

		if s, ref := dotOne(d, a), dotOneGo(d, a); math.Float64bits(s) != math.Float64bits(ref) {
			t.Fatalf("dotOne n=%d: asm %v ref %v", n, s, ref)
		}
		s0, s1, s2, s3 := dotFour(d, a, b, c, e)
		r0, r1, r2, r3 := dotFourGo(d, a, b, c, e)
		for i, pair := range [][2]float64{{s0, r0}, {s1, r1}, {s2, r2}, {s3, r3}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("dotFour n=%d col %d: asm %v ref %v", n, i, pair[0], pair[1])
			}
		}
		// Column grouping must not matter: dotFour == four dotOnes.
		for i, q := range [][]float64{a, b, c, e} {
			one := dotOne(d, q)
			four := []float64{s0, s1, s2, s3}[i]
			if math.Float64bits(one) != math.Float64bits(four) {
				t.Fatalf("dotFour vs dotOne n=%d col %d: %v vs %v", n, i, four, one)
			}
		}
	}
}

// TestSIMDPrimitivesZeroAlloc pins the primitives' alloc-free dispatch.
func TestSIMDPrimitivesZeroAlloc(t *testing.T) {
	d := randSpan(rand.New(rand.NewSource(5)), 64)
	a := randSpan(rand.New(rand.NewSource(6)), 64)
	runs := []IndexRun{{J0: 0, C0: 0, Len: 32}, {J0: 32, C0: 40, Len: 8}}
	allocs := testing.AllocsPerRun(100, func() {
		fnmaSpan1(d, a, 0.5)
		_ = dotOne(d, a)
		addSpanFast(d, a)
		scatterRuns4(d, d, d, d, a, a, a, a, runs[:1])
		fnmaChain1(d[:16], a, 16, a[48:], 1, 3)
		fnmaRows(d, []int{2, 0, 3, 1, 4}, 8, a, 16, a[32:], 4, 2)
	})
	if allocs != 0 {
		t.Fatalf("primitives allocate %v per run, want 0", allocs)
	}
}

// TestFnmaRowsChecksRows: a row index past the block panics in the
// dispatch wrapper, on both paths, before the assembly could write
// outside x.
func TestFnmaRowsChecksRows(t *testing.T) {
	for _, path := range []struct {
		name  string
		force func(*testing.T)
	}{{"vector", forceVector}, {"portable", forcePortable}} {
		t.Run(path.name, func(t *testing.T) {
			path.force(t)
			x, src, coef := make([]float64, 4*8), make([]float64, 8), make([]float64, 8)
			for _, rows := range [][]int{{0, 1, 2, 4}, {0, 1, 2, 3, -1}, {5}} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("rows %v on a 4-row block did not panic", rows)
						}
					}()
					fnmaRows(x, rows, 8, src, 8, coef, 1, 1)
				}()
			}
		})
	}
}
