package sparse

import "slices"

// Pattern operations used by the symbolic analysis. These work on the
// stored pattern; values, when present, are carried along where meaningful.

// Transpose returns Aᵀ. Symmetric matrices are returned unchanged (a clone).
func Transpose(a *CSC) *CSC {
	if a.Kind == Symmetric {
		return a.Clone()
	}
	t := &CSC{N: a.N, ColPtr: make([]int, a.N+1), RowIdx: make([]int, a.NNZ()), Kind: Unsymmetric}
	if a.Val != nil {
		t.Val = make([]float64, a.NNZ())
	}
	for p := 0; p < a.NNZ(); p++ {
		t.ColPtr[a.RowIdx[p]+1]++
	}
	for j := 0; j < a.N; j++ {
		t.ColPtr[j+1] += t.ColPtr[j]
	}
	next := append([]int(nil), t.ColPtr[:a.N]...)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			q := next[i]
			next[i]++
			t.RowIdx[q] = j
			if a.Val != nil {
				t.Val[q] = a.Val[p]
			}
		}
	}
	return t
}

// SymmetrizePattern returns the pattern of A+Aᵀ as a Symmetric (lower
// triangle) pattern-only matrix with a full diagonal. This is the graph on
// which orderings and the elimination tree are computed for unsymmetric
// matrices, exactly as MUMPS does during analysis.
//
// Every entry (i,j) lands in column min(i,j) as row max(i,j) (one counting
// pass), then each column is sorted and deduplicated in place.
func SymmetrizePattern(a *CSC) *CSC {
	n := a.N
	ptr := make([]int, n+1)
	for j := 0; j < n; j++ {
		ptr[j+1]++ // the diagonal, so the elimination tree is well defined
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			ptr[min(a.RowIdx[p], j)+1]++
		}
	}
	for j := 0; j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	idx := make([]int, ptr[n])
	next := append([]int(nil), ptr[:n]...)
	for j := 0; j < n; j++ {
		idx[next[j]] = j
		next[j]++
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			lo := min(i, j)
			idx[next[lo]] = max(i, j)
			next[lo]++
		}
	}
	out := &CSC{N: n, ColPtr: make([]int, n+1), Kind: Symmetric}
	w := 0
	for j := 0; j < n; j++ {
		col := idx[ptr[j]:ptr[j+1]]
		slices.Sort(col)
		prev := -1
		for _, r := range col {
			if r != prev {
				idx[w] = r
				w++
				prev = r
			}
		}
		out.ColPtr[j+1] = w
	}
	out.RowIdx = idx[:w:w]
	return out
}

// ExpandSymmetric returns the full (both triangles) pattern of a symmetric
// matrix as an Unsymmetric CSC. Values are mirrored. Unsymmetric input is
// cloned unchanged.
func ExpandSymmetric(a *CSC) *CSC {
	if a.Kind != Symmetric {
		return a.Clone()
	}
	b := NewBuilder(a.N, Unsymmetric)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			v := 1.0
			if a.Val != nil {
				v = a.Val[p]
			}
			b.Add(i, j, v)
			if i != j {
				b.Add(j, i, v)
			}
		}
	}
	out := b.Build()
	if a.Val == nil {
		out.Val = nil
	}
	return out
}

// AAT returns the pattern of A·Aᵀ as a Symmetric pattern-only matrix
// (lower triangle). Used to build LP-style normal-equation matrices like
// GUPTA3 in Table 1 of the paper.
func AAT(a *CSC) *CSC {
	full := ExpandSymmetric(a)
	// Row-wise representation of A is the column structure of Aᵀ.
	at := Transpose(full)
	b := NewBuilder(a.N, Symmetric)
	mark := make([]int, a.N)
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < a.N; i++ {
		// Row i of A = column i of Aᵀ. (A·Aᵀ)(i,k) != 0 iff rows i and k of A
		// share a column j.
		for p := at.ColPtr[i]; p < at.ColPtr[i+1]; p++ {
			j := at.RowIdx[p]
			for q := full.ColPtr[j]; q < full.ColPtr[j+1]; q++ {
				k := full.RowIdx[q]
				if k >= i && mark[k] != i {
					mark[k] = i
					b.Add(k, i, 1)
				}
			}
		}
		if mark[i] != i {
			b.Add(i, i, 1)
		}
	}
	out := b.Build()
	out.Val = nil
	return out
}

// Submatrix returns the leading k x k principal submatrix (entries with
// both indices below k).
func Submatrix(a *CSC, k int) *CSC {
	if k > a.N {
		k = a.N
	}
	b := NewBuilder(k, a.Kind)
	for j := 0; j < k; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := a.RowIdx[p]; i < k {
				v := 1.0
				if a.Val != nil {
					v = a.Val[p]
				}
				b.Add(i, j, v)
			}
		}
	}
	out := b.Build()
	if a.Val == nil {
		out.Val = nil
	}
	return out
}

// StructuralSymmetry returns the fraction of off-diagonal entries (i,j) of
// an unsymmetric matrix whose transpose entry (j,i) is also present.
// Symmetric matrices return 1.
func StructuralSymmetry(a *CSC) float64 {
	if a.Kind == Symmetric {
		return 1
	}
	t := Transpose(a)
	matched, total := 0, 0
	for j := 0; j < a.N; j++ {
		p, pe := a.ColPtr[j], a.ColPtr[j+1]
		q, qe := t.ColPtr[j], t.ColPtr[j+1]
		for p < pe && q < qe {
			ri, rj := a.RowIdx[p], t.RowIdx[q]
			switch {
			case ri == rj:
				if ri != j {
					matched++
					total++
				}
				p++
				q++
			case ri < rj:
				if ri != j {
					total++
				}
				p++
			default:
				q++
			}
		}
		for ; p < pe; p++ {
			if a.RowIdx[p] != j {
				total++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(matched) / float64(total)
}
