package nodepar

import (
	"repro/internal/dense"
	"repro/internal/sparse"
)

// TilePartition is the 2D (type-3) decomposition of a root front: trailing
// rows and columns are cut into square tiles of the panel width, and every
// panel step becomes a small DAG — diagonal-tile factor (master), panel
// solves (L tiles per trailing row block; for LU also U tiles per trailing
// column tile), then one rank-k update task per trailing tile. Tile
// boundaries are a pure function of the front shape and the tile size —
// the PR x PC worker grid and Workers only stamp block-cyclic *preferred*
// owners, so the factors are bitwise independent of the grid shape.
//
// Against the 1D RowPartition this lifts the two scalability caps of the
// root front: the master no longer sweeps the panel's whole trailing U
// part serially (it factors only the diagonal tile), and the update phase
// offers T^2 tasks instead of T, so late panels still have enough tasks to
// keep a full worker fleet busy.
type TilePartition struct {
	Kind    sparse.Type
	NFront  int
	NPiv    int
	Tile    int // tile edge = pivot panel width
	PR, PC  int // worker grid shape for block-cyclic ownership
	Workers int
}

// NewTilePartition builds the 2D partition of one front. tile <= 0 uses
// dense.DefaultBlockRows; the grid (pr, pc) comes from AutoGrid.
func NewTilePartition(kind sparse.Type, nfront, npiv, tile, pr, pc, workers int) *TilePartition {
	if tile <= 0 {
		tile = dense.DefaultBlockRows
	}
	if pr < 1 {
		pr = 1
	}
	if pc < 1 {
		pc = 1
	}
	if workers < 1 {
		workers = 1
	}
	return &TilePartition{Kind: kind, NFront: nfront, NPiv: npiv, Tile: tile,
		PR: pr, PC: pc, Workers: workers}
}

// Panels returns the pivot panels: tile-height pivot ranges, the same
// sequence the 1D partition produces for an equal block height — which is
// why 1D and 2D factorizations of the same front are bitwise identical.
func (p *TilePartition) Panels() []Panel {
	var ps []Panel
	for k0 := 0; k0 < p.NPiv; k0 += p.Tile {
		k1 := k0 + p.Tile
		if k1 > p.NPiv {
			k1 = p.NPiv
		}
		ps = append(ps, Panel{K0: k0, K1: k1})
	}
	return ps
}

// Phases returns the slave phases of one panel: solves, then updates.
func (p *TilePartition) Phases() []Phase {
	if p.Kind == sparse.Symmetric {
		return []Phase{PhaseScale, PhaseUpdate}
	}
	return []Phase{PhaseSolve, PhaseUpdate}
}

// Master factors the diagonal tile only, the same PanelLUTile for every
// kernel family; the panel's trailing columns (the U tiles) are
// PhaseSolve tasks run through the family's Kernel.LUPanelTrailing,
// unlike the 1D master which sweeps them itself. (The symmetric diagonal
// kernel never touched trailing columns.)
func (p *TilePartition) Master(f *dense.Matrix, pl Panel, tol float64, _ dense.Kernel) error {
	if p.Kind == sparse.Symmetric {
		return dense.PanelCholesky(f, pl.K0, pl.K1)
	}
	return dense.PanelLUTile(f, pl.K0, pl.K1, tol)
}

// owner returns the block-cyclic preferred worker of tile (ti, tj) — tile
// indices in units of the tile size — over the PR x PC grid.
func (p *TilePartition) owner(ti, tj int) int {
	return ((ti%p.PR)*p.PC + tj%p.PC) % p.Workers
}

// bounds appends the tile boundaries of [lo,hi) cut at multiples of the
// tile size measured from front row 0, so a panel ending mid-tile starts
// with a short tile and the grid realigns immediately after.
func (p *TilePartition) bounds(dst [][2]int, lo, hi int) [][2]int {
	for r0 := lo; r0 < hi; {
		r1 := (r0/p.Tile + 1) * p.Tile
		if r1 > hi {
			r1 = hi
		}
		dst = append(dst, [2]int{r0, r1})
		r0 = r1
	}
	return dst
}

// AppendTasks emits phase ph's tile tasks for panel pl.
func (p *TilePartition) AppendTasks(dst []Tile, pl Panel, ph Phase) []Tile {
	k0, k1 := pl.K0, pl.K1
	kw := int64(k1 - k0)
	pi := k0 / p.Tile // panel's own tile index
	var rb [16][2]int
	rows := p.bounds(rb[:0], k1, p.NFront)
	switch ph {
	case PhaseSolve: // LU: L tiles per row block + U tiles per column tile
		for _, r := range rows {
			h := int64(r[1] - r[0])
			dst = append(dst, Tile{
				Kind: TileLUSolve, R0: r[0], R1: r[1], C0: k0, C1: k1,
				Pref:    p.owner(r[0]/p.Tile, pi),
				Entries: h * kw,
				Flops:   h * kw * kw,
			})
		}
		for _, c := range rows { // trailing columns cut like the rows
			w := int64(c[1] - c[0])
			dst = append(dst, Tile{
				Kind: TileLURowPanel, R0: k0, R1: k1, C0: c[0], C1: c[1],
				Pref:    p.owner(pi, c[0]/p.Tile),
				Entries: kw * w,
				Flops:   kw * kw * w,
			})
		}
	case PhaseScale: // symmetric: scaled panel columns per row block
		for _, r := range rows {
			h := int64(r[1] - r[0])
			dst = append(dst, Tile{
				Kind: TileCholScale, R0: r[0], R1: r[1], C0: k0, C1: k1,
				Pref:    p.owner(r[0]/p.Tile, pi),
				Entries: h * kw,
				Flops:   h * kw * kw / 2,
			})
		}
	case PhaseUpdate: // rank-k update per trailing tile
		for _, r := range rows {
			for _, c := range rows {
				if p.Kind == sparse.Symmetric {
					ent := triRectEntries(r[0], r[1], c[0], c[1])
					if ent == 0 {
						continue // entirely above the diagonal
					}
					dst = append(dst, Tile{
						Kind: TileCholUpdate, R0: r[0], R1: r[1], C0: c[0], C1: c[1],
						Pref:    p.owner(r[0]/p.Tile, c[0]/p.Tile),
						Entries: ent,
						Flops:   2 * ent * kw,
					})
					continue
				}
				ent := int64(r[1]-r[0]) * int64(c[1]-c[0])
				dst = append(dst, Tile{
					Kind: TileLUUpdate, R0: r[0], R1: r[1], C0: c[0], C1: c[1],
					Pref:    p.owner(r[0]/p.Tile, c[0]/p.Tile),
					Entries: ent,
					Flops:   2 * ent * kw,
				})
			}
		}
	}
	return dst
}

// triRectEntries counts the lower-triangle elements (i,j), j <= i, of the
// rectangle rows [r0,r1) x columns [c0,c1).
func triRectEntries(r0, r1, c0, c1 int) int64 {
	var n int64
	for i := r0; i < r1; i++ {
		hi := c1
		if hi > i+1 {
			hi = i + 1
		}
		if hi > c0 {
			n += int64(hi - c0)
		}
	}
	return n
}
