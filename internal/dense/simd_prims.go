// Portable reference implementations of the SIMD span/chain/dot primitives —
// the exact per-element specification the amd64 assembly reproduces.
//
// Every primitive is written in terms of math.FMA, which is correctly
// rounded on every platform (a single rounding per multiply-add, hardware
// FMA where available, exact software emulation otherwise). The vector
// paths in simd_amd64.s compute the same operations lane by lane with
// VFMADD/VFNMADD, so the assembly and these fallbacks produce bitwise
// identical results: forcing the portable path (REPRO_SIMD=off, non-amd64
// builds, or panel tails) never changes a single bit of a KernelSIMD
// factorization.
//
// Determinism contract of the dot primitives: the accumulation order is a
// pure function of the span length — four lane accumulators over k ≡ 0..3
// (mod 4), reduced as (acc0+acc2)+(acc1+acc3), then the scalar tail FMA'd
// onto the reduced sum in ascending k. dotOneGo and dotFourGo follow the
// identical per-column recipe, so grouping columns in fours (a tile-width
// artifact) cannot change any column's value.
package dense

import "math"

// fnmaSpan1Go computes d[j] = fma(-la, a[j], d[j]) over the span.
func fnmaSpan1Go(d, a []float64, la float64) {
	n := len(d)
	a = a[:n:n]
	for j := 0; j < n; j++ {
		d[j] = math.FMA(-la, a[j], d[j])
	}
}

// fnmaSpan2Go chains two fused updates per element, first pivot first:
// d[j] = fma(-lb, b[j], fma(-la, a[j], d[j])).
func fnmaSpan2Go(d, a, b []float64, la, lb float64) {
	n := len(d)
	a = a[:n:n]
	b = b[:n:n]
	for j := 0; j < n; j++ {
		d[j] = math.FMA(-lb, b[j], math.FMA(-la, a[j], d[j]))
	}
}

// fnmaSpan4Go chains four fused updates per element in ascending pivot
// order — the rank-4 step of the SIMD update kernels.
func fnmaSpan4Go(d, a, b, c, e []float64, la, lb, lc, ld float64) {
	n := len(d)
	a = a[:n:n]
	b = b[:n:n]
	c = c[:n:n]
	e = e[:n:n]
	for j := 0; j < n; j++ {
		s := math.FMA(-la, a[j], d[j])
		s = math.FMA(-lb, b[j], s)
		s = math.FMA(-lc, c[j], s)
		d[j] = math.FMA(-ld, e[j], s)
	}
}

// fnmaChain1Go runs one fused chain per element of d over nk sources,
// each source row ss elements after the last and its coefficient cs
// after the last: d[c] = fma(-coef[t*cs], src[t*ss+c], d[c]) for t in
// ascending order. Each column's chain is independent of every other
// column's, so the bits do not depend on how columns are grouped; four
// columns run side by side only to overlap the FMA latency.
func fnmaChain1Go(d, src []float64, ss int, coef []float64, cs, nk int) {
	n := len(d)
	c := 0
	for ; c+3 < n; c += 4 {
		w0, w1, w2, w3 := d[c], d[c+1], d[c+2], d[c+3]
		for t := 0; t < nk; t++ {
			l, s := coef[t*cs], src[t*ss+c:t*ss+c+4:t*ss+c+4]
			w0 = math.FMA(-l, s[0], w0)
			w1 = math.FMA(-l, s[1], w1)
			w2 = math.FMA(-l, s[2], w2)
			w3 = math.FMA(-l, s[3], w3)
		}
		d[c], d[c+1], d[c+2], d[c+3] = w0, w1, w2, w3
	}
	for ; c < n; c++ {
		w := d[c]
		for t := 0; t < nk; t++ {
			w = math.FMA(-coef[t*cs], src[t*ss+c], w)
		}
		d[c] = w
	}
}

// fnmaChain4Go is fnmaChain1Go over four rows d0..d3 of len(d0)
// elements each, anywhere in memory, sharing the sources: row r's
// coefficients are coef[r*cs+t] (contiguous in t). Each source element
// is read once for the four rows' chains — the 4-row step of
// fnmaRowsGo.
func fnmaChain4Go(d0, d1, d2, d3, src []float64, ss int, coef []float64, cs, nk int) {
	n := len(d0)
	d1, d2, d3 = d1[:n:n], d2[:n:n], d3[:n:n]
	l0 := coef[:nk:nk]
	l1 := coef[cs : cs+nk : cs+nk]
	l2 := coef[2*cs : 2*cs+nk : 2*cs+nk]
	l3 := coef[3*cs : 3*cs+nk : 3*cs+nk]
	for c := 0; c < n; c++ {
		w0, w1, w2, w3 := d0[c], d1[c], d2[c], d3[c]
		for t := range l0 {
			s := src[t*ss+c]
			w0 = math.FMA(-l0[t], s, w0)
			w1 = math.FMA(-l1[t], s, w1)
			w2 = math.FMA(-l2[t], s, w2)
			w3 = math.FMA(-l3[t], s, w3)
		}
		d0[c], d1[c], d2[c], d3[c] = w0, w1, w2, w3
	}
}

// fnmaRowsGo runs the chains of the rows x[g*m:(g+1)*m], g in rows, over
// nk shared sources (src rows ss apart), row r's coefficients
// coef[r*cs+t] (contiguous in t): four rows at a time through
// fnmaChain4Go wherever they lie in x, then one chain per leftover row.
// Every element's chain is fnmaChain1Go's, so the grouping changes no
// bit.
func fnmaRowsGo(x []float64, rows []int, m int, src []float64, ss int, coef []float64, cs, nk int) {
	r := 0
	for ; r+3 < len(rows); r += 4 {
		g0, g1, g2, g3 := rows[r]*m, rows[r+1]*m, rows[r+2]*m, rows[r+3]*m
		fnmaChain4Go(x[g0:g0+m], x[g1:g1+m], x[g2:g2+m], x[g3:g3+m], src, ss, coef[r*cs:], cs, nk)
	}
	for ; r < len(rows); r++ {
		g := rows[r] * m
		fnmaChain1Go(x[g:g+m], src, ss, coef[r*cs:], 1, nk)
	}
}

// dotOneGo computes the fused dot product of p and q under the four-lane
// accumulation contract described in the package comment.
func dotOneGo(p, q []float64) float64 {
	n := len(p)
	q = q[:n:n]
	var a0, a1, a2, a3 float64
	k := 0
	for ; k+3 < n; k += 4 {
		a0 = math.FMA(p[k], q[k], a0)
		a1 = math.FMA(p[k+1], q[k+1], a1)
		a2 = math.FMA(p[k+2], q[k+2], a2)
		a3 = math.FMA(p[k+3], q[k+3], a3)
	}
	s := (a0 + a2) + (a1 + a3)
	for ; k < n; k++ {
		s = math.FMA(p[k], q[k], s)
	}
	return s
}

// dotFourGo computes four dot products of p against q0..q3, each exactly
// as dotOneGo would — one pass over p shared by four accumulator sets.
func dotFourGo(p, q0, q1, q2, q3 []float64) (s0, s1, s2, s3 float64) {
	n := len(p)
	q0 = q0[:n:n]
	q1 = q1[:n:n]
	q2 = q2[:n:n]
	q3 = q3[:n:n]
	var a00, a01, a02, a03 float64
	var a10, a11, a12, a13 float64
	var a20, a21, a22, a23 float64
	var a30, a31, a32, a33 float64
	k := 0
	for ; k+3 < n; k += 4 {
		pa, pb, pc, pd := p[k], p[k+1], p[k+2], p[k+3]
		a00 = math.FMA(pa, q0[k], a00)
		a01 = math.FMA(pb, q0[k+1], a01)
		a02 = math.FMA(pc, q0[k+2], a02)
		a03 = math.FMA(pd, q0[k+3], a03)
		a10 = math.FMA(pa, q1[k], a10)
		a11 = math.FMA(pb, q1[k+1], a11)
		a12 = math.FMA(pc, q1[k+2], a12)
		a13 = math.FMA(pd, q1[k+3], a13)
		a20 = math.FMA(pa, q2[k], a20)
		a21 = math.FMA(pb, q2[k+1], a21)
		a22 = math.FMA(pc, q2[k+2], a22)
		a23 = math.FMA(pd, q2[k+3], a23)
		a30 = math.FMA(pa, q3[k], a30)
		a31 = math.FMA(pb, q3[k+1], a31)
		a32 = math.FMA(pc, q3[k+2], a32)
		a33 = math.FMA(pd, q3[k+3], a33)
	}
	s0 = (a00 + a02) + (a01 + a03)
	s1 = (a10 + a12) + (a11 + a13)
	s2 = (a20 + a22) + (a21 + a23)
	s3 = (a30 + a32) + (a31 + a33)
	for ; k < n; k++ {
		pa := p[k]
		s0 = math.FMA(pa, q0[k], s0)
		s1 = math.FMA(pa, q1[k], s1)
		s2 = math.FMA(pa, q2[k], s2)
		s3 = math.FMA(pa, q3[k], s3)
	}
	return
}

// scatterRuns4Go applies every run to four row pairs at once — the 4-row
// group of the extend-add scatter: di[C0+t] += si[J0+t] for each run.
// Plain element-wise adds (short runs inline, long ones through
// addSpanGo), so the result is bitwise identical to any vector grouping
// or row interleaving.
func scatterRuns4Go(d0, d1, d2, d3, s0, s1, s2, s3 []float64, runs []IndexRun) {
	for _, r := range runs {
		j0, c0, l := int(r.J0), int(r.C0), int(r.Len)
		if l <= shortRun {
			for t := 0; t < l; t++ {
				d0[c0+t] += s0[j0+t]
				d1[c0+t] += s1[j0+t]
				d2[c0+t] += s2[j0+t]
				d3[c0+t] += s3[j0+t]
			}
			continue
		}
		addSpanGo(d0[c0:c0+l], s0[j0:j0+l])
		addSpanGo(d1[c0:c0+l], s1[j0:j0+l])
		addSpanGo(d2[c0:c0+l], s2[j0:j0+l])
		addSpanGo(d3[c0:c0+l], s3[j0:j0+l])
	}
}

// addSpanGo computes d[j] += s[j] over the span, 4x-unrolled. Plain
// element-wise adds: bitwise identical to any vector grouping.
func addSpanGo(d, s []float64) {
	n := len(s)
	d = d[:n:n]
	s = s[:n:n]
	j := 0
	for ; j+3 < n; j += 4 {
		d[j] += s[j]
		d[j+1] += s[j+1]
		d[j+2] += s[j+2]
		d[j+3] += s[j+3]
	}
	for ; j < n; j++ {
		d[j] += s[j]
	}
}
