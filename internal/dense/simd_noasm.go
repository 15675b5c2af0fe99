//go:build !amd64

// Non-amd64 binding of the SIMD primitives: everything runs the portable
// math.FMA implementations, which compute the same bits as the amd64
// assembly (math.FMA is correctly rounded on every platform), so
// KernelSIMD factors are identical across architectures.

package dense

var (
	simdHW      = false
	simdEnabled = false
)

func fnmaSpan1(d, a []float64, la float64) { fnmaSpan1Go(d, a, la) }

func fnmaSpan2(d, a, b []float64, la, lb float64) { fnmaSpan2Go(d, a, b, la, lb) }

func fnmaSpan4(d, a, b, c, e []float64, la, lb, lc, ld float64) {
	fnmaSpan4Go(d, a, b, c, e, la, lb, lc, ld)
}

func fnmaChain1(d, src []float64, ss int, coef []float64, cs, nk int) {
	fnmaChain1Go(d, src, ss, coef, cs, nk)
}

func fnmaRows(x []float64, rows []int, m int, src []float64, ss int, coef []float64, cs, nk int) {
	fnmaRowsGo(x, rows, m, src, ss, coef, cs, nk)
}

func dotOne(p, q []float64) float64 { return dotOneGo(p, q) }

func dotFour(p, q0, q1, q2, q3 []float64) (s0, s1, s2, s3 float64) {
	return dotFourGo(p, q0, q1, q2, q3)
}

func addSpanFast(d, s []float64) { addSpanGo(d, s) }

func scatterRuns4(d0, d1, d2, d3, s0, s1, s2, s3 []float64, runs []IndexRun) {
	scatterRuns4Go(d0, d1, d2, d3, s0, s1, s2, s3, runs)
}
