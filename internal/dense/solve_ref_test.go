package dense

// Whole-front panel solves: each applies one front's factor piece to
// its f x nrhs panel W, gathered out of the right-hand-side block and
// scattered back by the caller. They are the reference of the node-step
// pin (nodestep_test.go): the in-place kernels must give their bits
// wherever the front's rows lie.

func (kern Kernel) panelForwardLU(L *Matrix, npiv int, W *Matrix) {
	if kern.Resolve() == KernelSIMD {
		panelForwardSIMD(L, npiv, W, false)
		return
	}
	n, m := W.R, W.C
	for k := 0; k < npiv; k++ {
		vk := W.A[k*m : k*m+m]
		if allZero(vk) {
			continue
		}
		for i := k + 1; i < n; i++ {
			l := L.At(i, k)
			wi := W.A[i*m : i*m+m]
			for c, v := range vk {
				if v == 0 {
					continue
				}
				wi[c] -= l * v
			}
		}
	}
}

func (kern Kernel) panelForwardCholesky(L *Matrix, npiv int, W *Matrix) {
	if kern.Resolve() == KernelSIMD {
		panelForwardSIMD(L, npiv, W, true)
		return
	}
	n, m := W.R, W.C
	for k := 0; k < npiv; k++ {
		d := L.At(k, k)
		vk := W.A[k*m : k*m+m]
		for c := range vk {
			vk[c] /= d
		}
		if allZero(vk) {
			continue
		}
		for i := k + 1; i < n; i++ {
			l := L.At(i, k)
			wi := W.A[i*m : i*m+m]
			for c, v := range vk {
				if v == 0 {
					continue
				}
				wi[c] -= l * v
			}
		}
	}
}

func (kern Kernel) panelBackwardLU(U *Matrix, npiv int, W *Matrix) {
	if kern.Resolve() == KernelSIMD {
		panelBackwardLUSIMD(U, npiv, W)
		return
	}
	n, m := W.R, W.C
	for k := npiv - 1; k >= 0; k-- {
		wk := W.A[k*m : k*m+m]
		uk := U.Row(k)
		for j := k + 1; j < n; j++ {
			u := uk[j]
			wj := W.A[j*m : j*m+m]
			for c := range wk {
				wk[c] -= u * wj[c]
			}
		}
		d := uk[k]
		for c := range wk {
			wk[c] /= d
		}
	}
}

func (kern Kernel) panelBackwardCholesky(L *Matrix, npiv int, W *Matrix) {
	if kern.Resolve() == KernelSIMD {
		panelBackwardCholeskySIMD(L, npiv, W)
		return
	}
	n, m := W.R, W.C
	for k := npiv - 1; k >= 0; k-- {
		wk := W.A[k*m : k*m+m]
		for i := k + 1; i < n; i++ {
			l := L.At(i, k)
			wi := W.A[i*m : i*m+m]
			for c := range wk {
				wk[c] -= l * wi[c]
			}
		}
		d := L.At(k, k)
		for c := range wk {
			wk[c] /= d
		}
	}
}

// chain4Rows runs the 4-row chain on the four consecutive panel rows
// from i.
func chain4Rows(w []float64, i, m int, src []float64, ss int, coef []float64, cs, nk int) {
	grp := [4]int{i, i + 1, i + 2, i + 3}
	fnmaRows(w, grp[:], m, src, ss, coef, cs, nk)
}

func panelForwardSIMD(L *Matrix, npiv int, W *Matrix, chol bool) {
	n, m, lc := W.R, W.C, L.C
	w, l := W.A, L.A
	i := 0
	for ; i+3 < npiv; i += 4 {
		chain4Rows(w, i, m, w, m, l[i*lc:], lc, i)
		for r := i; r < i+4; r++ {
			wr := w[r*m : r*m+m : r*m+m]
			fnmaChain1(wr, w[i*m:], m, l[r*lc+i:], 1, r-i)
			if chol {
				divSpan(wr, l[r*lc+r])
			}
		}
	}
	for ; i < npiv; i++ {
		wi := w[i*m : i*m+m : i*m+m]
		fnmaChain1(wi, w, m, l[i*lc:], 1, i)
		if chol {
			divSpan(wi, l[i*lc+i])
		}
	}
	for ; i+3 < n; i += 4 {
		chain4Rows(w, i, m, w, m, l[i*lc:], lc, npiv)
	}
	for ; i < n; i++ {
		fnmaChain1(w[i*m:i*m+m:i*m+m], w, m, l[i*lc:], 1, npiv)
	}
}

func panelBackwardLUSIMD(U *Matrix, npiv int, W *Matrix) {
	n, m, uc := W.R, W.C, U.C
	w, u := W.A, U.A
	for k := npiv - 1; k >= 0; k-- {
		wk := w[k*m : k*m+m : k*m+m]
		if k+1 < n {
			fnmaChain1(wk, w[(k+1)*m:], m, u[k*uc+k+1:], 1, n-k-1)
		}
		divSpan(wk, u[k*uc+k])
	}
}

func panelBackwardCholeskySIMD(L *Matrix, npiv int, W *Matrix) {
	n, m, lc := W.R, W.C, L.C
	w, l := W.A, L.A
	for k := npiv - 1; k >= 0; k-- {
		wk := w[k*m : k*m+m : k*m+m]
		if k+1 < n {
			fnmaChain1(wk, w[(k+1)*m:], m, l[(k+1)*lc+k:], lc, n-k-1)
		}
		divSpan(wk, l[k*lc+k])
	}
}
