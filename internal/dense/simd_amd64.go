// amd64 binding of the SIMD primitives: CPUID feature detection and the
// dispatch between the AVX2/FMA assembly routines (simd_amd64.s) and
// their portable math.FMA twins (simd_prims.go). The two paths are
// bitwise identical, so the dispatch is a pure performance decision —
// REPRO_SIMD=off (read once at init) forces the portable path without
// changing any result, which is how CI exercises the fallback on amd64.

package dense

import "os"

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

//go:noescape
func fnmaSpan1Asm(d, a *float64, n int, la float64)

//go:noescape
func fnmaSpan2Asm(d, a, b *float64, n int, la, lb float64)

//go:noescape
func fnmaSpan4Asm(d, a, b, c, e *float64, n int, la, lb, lc, ld float64)

//go:noescape
func fnmaChain1Asm(d, src *float64, ss int, coef *float64, cs, nk, n int)

//go:noescape
func fnmaRows4Asm(x *float64, rows *int, ngroups, m int, src *float64, ss int, coef *float64, cs, nk int)

//go:noescape
func dot1Asm(p, q *float64, n int) float64

//go:noescape
func dot4Asm(p, q0, q1, q2, q3 *float64, n int) (s0, s1, s2, s3 float64)

//go:noescape
func addSpanAsm(d, s *float64, n int)

//go:noescape
func scatterRuns4Asm(d0, d1, d2, d3, s0, s1, s2, s3 *float64, runs *IndexRun, nruns int)

// detectSIMD reports whether the CPU and OS support the vector path:
// FMA and AVX2 instructions with OS-managed YMM state (CPUID leaves 1
// and 7, XCR0 bits 1-2).
func detectSIMD() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		cpuFMA     = 1 << 12 // leaf 1 ECX
		cpuOSXSAVE = 1 << 27 // leaf 1 ECX
		cpuAVX     = 1 << 28 // leaf 1 ECX
		cpuAVX2    = 1 << 5  // leaf 7 EBX
		xcr0YMM    = 0x6     // XMM+YMM state enabled by the OS
	)
	_, _, ecx1, _ := cpuidAsm(1, 0)
	if ecx1&cpuFMA == 0 || ecx1&cpuOSXSAVE == 0 || ecx1&cpuAVX == 0 {
		return false
	}
	if xlo, _ := xgetbvAsm(); xlo&xcr0YMM != xcr0YMM {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&cpuAVX2 != 0
}

var (
	// simdHW: the hardware vector path exists on this machine.
	simdHW = detectSIMD()
	// simdEnabled: the vector path is actually dispatched to. Identical
	// results either way; REPRO_SIMD=off pins the portable path.
	simdEnabled = simdHW && os.Getenv("REPRO_SIMD") != "off"
)

func fnmaSpan1(d, a []float64, la float64) {
	if simdEnabled && len(d) > 0 {
		fnmaSpan1Asm(&d[0], &a[0], len(d), la)
		return
	}
	fnmaSpan1Go(d, a, la)
}

func fnmaSpan2(d, a, b []float64, la, lb float64) {
	if simdEnabled && len(d) > 0 {
		fnmaSpan2Asm(&d[0], &a[0], &b[0], len(d), la, lb)
		return
	}
	fnmaSpan2Go(d, a, b, la, lb)
}

func fnmaSpan4(d, a, b, c, e []float64, la, lb, lc, ld float64) {
	if simdEnabled && len(d) > 0 {
		fnmaSpan4Asm(&d[0], &a[0], &b[0], &c[0], &e[0], len(d), la, lb, lc, ld)
		return
	}
	fnmaSpan4Go(d, a, b, c, e, la, lb, lc, ld)
}

// fnmaChain1 is fnmaChain1Go through the vector unit when available.
// The index checks up front turn a short operand into a panic before the
// assembly reads past it.
func fnmaChain1(d, src []float64, ss int, coef []float64, cs, nk int) {
	n := len(d)
	if nk == 0 || n == 0 {
		return
	}
	_ = src[(nk-1)*ss+n-1]
	_ = coef[(nk-1)*cs]
	if simdEnabled {
		fnmaChain1Asm(&d[0], &src[0], ss, &coef[0], cs, nk, n)
		return
	}
	fnmaChain1Go(d, src, ss, coef, cs, nk)
}

// fnmaRows is fnmaRowsGo through the vector unit when available: the
// groups of four rows in one assembly call, which walks the row list
// itself, then one chain per leftover row. Every row is index-checked up
// front, so a bad row index panics before the assembly reads past x.
func fnmaRows(x []float64, rows []int, m int, src []float64, ss int, coef []float64, cs, nk int) {
	if nk == 0 || m == 0 || len(rows) == 0 {
		return
	}
	if !simdEnabled {
		fnmaRowsGo(x, rows, m, src, ss, coef, cs, nk)
		return
	}
	for _, g := range rows {
		_ = x[g*m : g*m+m]
	}
	_ = src[(nk-1)*ss+m-1]
	_ = coef[(len(rows)-1)*cs+nk-1]
	r := len(rows) &^ 3
	if r > 0 {
		fnmaRows4Asm(&x[0], &rows[0], r/4, m, &src[0], ss, &coef[0], cs, nk)
	}
	for ; r < len(rows); r++ {
		fnmaChain1Asm(&x[rows[r]*m], &src[0], ss, &coef[r*cs], 1, nk, m)
	}
}

func dotOne(p, q []float64) float64 {
	if simdEnabled && len(p) > 0 {
		return dot1Asm(&p[0], &q[0], len(p))
	}
	return dotOneGo(p, q)
}

func dotFour(p, q0, q1, q2, q3 []float64) (s0, s1, s2, s3 float64) {
	if simdEnabled && len(p) > 0 {
		return dot4Asm(&p[0], &q0[0], &q1[0], &q2[0], &q3[0], len(p))
	}
	return dotFourGo(p, q0, q1, q2, q3)
}

// addSpanFast is addSpanGo through the vector unit when available —
// plain element adds either way, so the result is bitwise identical and
// every caller (including the bitwise-pinned extend-add) may use it.
func addSpanFast(d, s []float64) {
	if simdEnabled && len(s) > 0 {
		addSpanAsm(&d[0], &s[0], len(s))
		return
	}
	addSpanGo(d, s)
}

// scatterRuns4 is scatterRuns4Go through the vector unit when available —
// plain element adds either way, bitwise identical. One call covers all
// the runs of a 4-row extend-add group: the run decode moves into the
// assembly loop, so fragmented maps pay no per-run call overhead and even
// length-4 runs fill a YMM register.
func scatterRuns4(d0, d1, d2, d3, s0, s1, s2, s3 []float64, runs []IndexRun) {
	if simdEnabled && len(runs) > 0 && len(s0) > 0 {
		scatterRuns4Asm(&d0[0], &d1[0], &d2[0], &d3[0], &s0[0], &s1[0], &s2[0], &s3[0],
			&runs[0], len(runs))
		return
	}
	scatterRuns4Go(d0, d1, d2, d3, s0, s1, s2, s3, runs)
}
