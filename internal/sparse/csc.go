// Package sparse provides the sparse-matrix substrate for the multifrontal
// solver: compressed-column (CSC) and coordinate (COO) storage, pattern
// operations used by the symbolic analysis (transpose, symmetrization,
// A+Aᵀ, A·Aᵀ), file readers for the MatrixMarket and Rutherford-Boeing
// formats, and synthetic problem generators.
//
// Conventions: all indices are 0-based. A matrix is Symmetric when only its
// lower triangle (including the diagonal) is stored; operations that need
// the full pattern expand it explicitly.
package sparse

import (
	"errors"
	"fmt"
	"sort"
)

// Type describes the structural kind of a matrix, mirroring the SYM/UNS
// column of Table 1 in the paper.
type Type int

const (
	// Unsymmetric matrices store all entries.
	Unsymmetric Type = iota
	// Symmetric matrices store the lower triangle only.
	Symmetric
)

func (t Type) String() string {
	switch t {
	case Symmetric:
		return "SYM"
	default:
		return "UNS"
	}
}

// CSC is a sparse matrix in compressed sparse column format.
// Column j occupies ColPtr[j]..ColPtr[j+1] in RowIdx/Val.
// Row indices within a column are sorted ascending and unique.
type CSC struct {
	N      int // number of rows and columns (square matrices only)
	ColPtr []int
	RowIdx []int
	Val    []float64 // may be nil for pattern-only matrices
	Kind   Type
}

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int { return len(a.RowIdx) }

// HasValues reports whether numerical values are stored.
func (a *CSC) HasValues() bool { return a.Val != nil }

// Clone returns a deep copy of the matrix.
func (a *CSC) Clone() *CSC {
	b := &CSC{
		N:      a.N,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Kind:   a.Kind,
	}
	if a.Val != nil {
		b.Val = append([]float64(nil), a.Val...)
	}
	return b
}

// Col returns the row indices of column j (aliased, do not modify).
func (a *CSC) Col(j int) []int {
	return a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]]
}

// ColVal returns the values of column j (aliased, do not modify);
// nil for pattern-only matrices.
func (a *CSC) ColVal(j int) []float64 {
	if a.Val == nil {
		return nil
	}
	return a.Val[a.ColPtr[j]:a.ColPtr[j+1]]
}

// Validate checks the structural invariants of the matrix and returns a
// descriptive error on the first violation.
func (a *CSC) Validate() error {
	if a.N < 0 {
		return fmt.Errorf("sparse: negative dimension %d", a.N)
	}
	if len(a.ColPtr) != a.N+1 {
		return fmt.Errorf("sparse: ColPtr length %d, want %d", len(a.ColPtr), a.N+1)
	}
	if a.ColPtr[0] != 0 {
		return errors.New("sparse: ColPtr[0] != 0")
	}
	if a.ColPtr[a.N] != len(a.RowIdx) {
		return fmt.Errorf("sparse: ColPtr[N]=%d, len(RowIdx)=%d", a.ColPtr[a.N], len(a.RowIdx))
	}
	if a.Val != nil && len(a.Val) != len(a.RowIdx) {
		return fmt.Errorf("sparse: len(Val)=%d, len(RowIdx)=%d", len(a.Val), len(a.RowIdx))
	}
	for j := 0; j < a.N; j++ {
		if a.ColPtr[j] > a.ColPtr[j+1] {
			return fmt.Errorf("sparse: column %d has negative length", j)
		}
		prev := -1
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			r := a.RowIdx[p]
			if r < 0 || r >= a.N {
				return fmt.Errorf("sparse: row index %d out of range in column %d", r, j)
			}
			if r <= prev {
				return fmt.Errorf("sparse: unsorted or duplicate row index %d in column %d", r, j)
			}
			if a.Kind == Symmetric && r < j {
				return fmt.Errorf("sparse: symmetric matrix has upper entry (%d,%d)", r, j)
			}
			prev = r
		}
	}
	return nil
}

// At returns the value at (i,j), or 0 if the entry is not stored.
// For symmetric matrices (i,j) with i<j is looked up as (j,i).
func (a *CSC) At(i, j int) float64 {
	if a.Kind == Symmetric && i < j {
		i, j = j, i
	}
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	k := sort.SearchInts(a.RowIdx[lo:hi], i)
	if k < hi-lo && a.RowIdx[lo+k] == i {
		if a.Val == nil {
			return 1
		}
		return a.Val[lo+k]
	}
	return 0
}

// MulVec computes y = A*x, honoring symmetric storage.
func (a *CSC) MulVec(x []float64) []float64 {
	if len(x) != a.N {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch %d vs %d", len(x), a.N))
	}
	y := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		xj := x[j]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			v := 1.0
			if a.Val != nil {
				v = a.Val[p]
			}
			y[i] += v * xj
			if a.Kind == Symmetric && i != j {
				y[j] += v * x[i]
			}
		}
	}
	return y
}

// Permute returns P*A*Pᵀ where perm[k] = original index of the k-th
// row/column of the permuted matrix (i.e. perm maps new→old).
// For symmetric matrices the result keeps lower-triangular storage.
//
// a must be a valid CSC (see Validate): its entries are unique, so the
// permuted ones are too, and no sort is needed: entries are bucketed by
// new row, then by new column while the rows are visited in ascending
// order — two counting passes, O(nnz + n).
func (a *CSC) Permute(perm []int) *CSC {
	if len(perm) != a.N {
		panic("sparse: Permute length mismatch")
	}
	n, nz := a.N, a.NNZ()
	inv := make([]int, n) // old -> new
	for k, o := range perm {
		inv[o] = k
	}
	sym := a.Kind == Symmetric
	// Pass 1: bucket the entries by new row.
	rowPtr := make([]int, n+1)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			r := inv[a.RowIdx[p]]
			if sym && r < inv[j] {
				r = inv[j]
			}
			rowPtr[r+1]++
		}
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	next := append([]int(nil), rowPtr[:n]...)
	rowCols := make([]int, nz)
	var rowVals []float64
	if a.Val != nil {
		rowVals = make([]float64, nz)
	}
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			r, c := inv[a.RowIdx[p]], inv[j]
			if sym && r < c {
				r, c = c, r
			}
			q := next[r]
			next[r]++
			rowCols[q] = c
			if rowVals != nil {
				rowVals[q] = a.Val[p]
			}
		}
	}
	// Pass 2: bucket by new column; visiting the rows in order leaves every
	// column's rows ascending.
	out := &CSC{N: n, ColPtr: make([]int, n+1), RowIdx: make([]int, nz), Kind: a.Kind}
	if a.Val != nil {
		out.Val = make([]float64, nz)
	}
	for _, c := range rowCols {
		out.ColPtr[c+1]++
	}
	for c := 0; c < n; c++ {
		out.ColPtr[c+1] += out.ColPtr[c]
	}
	copy(next, out.ColPtr[:n])
	for r := 0; r < n; r++ {
		for q := rowPtr[r]; q < rowPtr[r+1]; q++ {
			c := rowCols[q]
			d := next[c]
			next[c]++
			out.RowIdx[d] = r
			if out.Val != nil {
				out.Val[d] = rowVals[q]
			}
		}
	}
	return out
}

// Diagonal returns the diagonal entries as a dense vector.
func (a *CSC) Diagonal() []float64 {
	d := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		d[j] = a.At(j, j)
	}
	return d
}
