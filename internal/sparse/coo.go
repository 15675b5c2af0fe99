package sparse

// Builder accumulates entries in coordinate form and compresses them into a
// CSC matrix, summing duplicates. It is the standard way to construct
// matrices in this package.
type Builder struct {
	n    int
	kind Type
	rows []int
	cols []int
	vals []float64
}

// NewBuilder returns a builder for an n x n matrix of the given kind.
// For Symmetric matrices callers must add lower-triangular entries only
// (Add panics otherwise).
func NewBuilder(n int, kind Type) *Builder {
	return &Builder{n: n, kind: kind}
}

// Add records entry (i,j) = v. Duplicate entries are summed at Build time.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic("sparse: Builder.Add index out of range")
	}
	if b.kind == Symmetric && i < j {
		panic("sparse: Builder.Add upper entry into symmetric matrix")
	}
	b.rows = append(b.rows, i)
	b.cols = append(b.cols, j)
	b.vals = append(b.vals, v)
}

// AddSym records (i,j) in whichever triangle the matrix stores: for
// symmetric matrices the entry is mirrored to the lower triangle; for
// unsymmetric matrices both (i,j) and (j,i) are added (with the same value)
// unless i==j.
func (b *Builder) AddSym(i, j int, v float64) {
	if b.kind == Symmetric {
		if i < j {
			i, j = j, i
		}
		b.Add(i, j, v)
		return
	}
	b.Add(i, j, v)
	if i != j {
		b.Add(j, i, v)
	}
}

// NNZ returns the number of recorded (pre-compression) entries.
func (b *Builder) NNZ() int { return len(b.rows) }

// Build compresses the recorded entries into a CSC matrix, summing
// duplicates. Duplicates of one (i,j) are summed in insertion order (the
// order of the Add calls). The builder can be reused afterwards: its
// entries are kept, in insertion order.
//
// Build is a stable two-pass counting sort — entries bucketed by row, then
// by column — so it costs O(nnz + n) and leaves equal (i,j) entries in
// insertion order.
func (b *Builder) Build() *CSC {
	n, nz := b.n, len(b.rows)
	rows, cols, vals := b.rows, b.cols, b.vals
	// Pass 1: entry ids ordered by row.
	ptr := make([]int, n+1)
	for _, i := range rows {
		ptr[i+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	byRow := make([]int, nz)
	for k, i := range rows {
		byRow[ptr[i]] = k
		ptr[i]++
	}
	// Pass 2: stable by column, so each column's entries come out with
	// ascending rows and equal (i,j) entries in insertion order.
	clear(ptr)
	for _, j := range cols {
		ptr[j+1]++
	}
	for j := 0; j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	sorted := make([]int, nz)
	for _, k := range byRow {
		j := cols[k]
		sorted[ptr[j]] = k
		ptr[j]++
	}
	same := func(q int) bool { // entry q repeats entry q-1's (i,j)
		return q > 0 && rows[sorted[q]] == rows[sorted[q-1]] && cols[sorted[q]] == cols[sorted[q-1]]
	}
	uniq := 0
	for q := range sorted {
		if !same(q) {
			uniq++
		}
	}
	a := &CSC{
		N:      n,
		ColPtr: make([]int, n+1),
		RowIdx: make([]int, 0, uniq),
		Val:    make([]float64, 0, uniq),
		Kind:   b.kind,
	}
	for q, k := range sorted {
		if same(q) {
			a.Val[len(a.Val)-1] += vals[k]
			continue
		}
		a.RowIdx = append(a.RowIdx, rows[k])
		a.Val = append(a.Val, vals[k])
		a.ColPtr[cols[k]+1]++
	}
	for j := 0; j < n; j++ {
		a.ColPtr[j+1] += a.ColPtr[j]
	}
	return a
}
