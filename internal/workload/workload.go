// Package workload provides the test-problem suite of the paper's Table 1
// as named synthetic analogues. The original matrices (Rutherford-Boeing /
// University of Florida / PARASOL collections) are not redistributable
// here, so each is replaced by a generator from the same structural family,
// scaled to laptop size:
//
//	BMWCRA_1     SYM  automotive crankshaft  -> 3D solid FEM grid
//	GUPTA3       SYM  LP normal equations    -> A·Aᵀ of a random LP matrix
//	                                            with dense rows
//	MSDOOR       SYM  medium-size door       -> layered shell model
//	SHIP_003     SYM  ship structure         -> elongated 3D solid grid
//	PRE2         UNS  harmonic balance       -> circuit backbone + couplings
//	TWOTONE      UNS  harmonic balance       -> circuit backbone + couplings
//	ULTRASOUND3  UNS  3D ultrasound waves    -> unsymmetric 3D grid operator
//	XENON2       UNS  zeolite crystals       -> unsymmetric 3D grid operator
//
// The scheduling phenomena the paper studies depend on the assembly-tree
// topology class each family produces (deep/unbalanced vs wide/balanced,
// big vs small fronts, SYM vs UNS), which the analogues preserve; absolute
// entry counts scale down with the matrix sizes.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/sparse"
)

// Problem is one named test matrix.
type Problem struct {
	Name        string
	Description string
	Kind        sparse.Type
	Gen         func() *sparse.CSC
}

// Matrix generates the matrix (deterministic per problem).
func (p Problem) Matrix() *sparse.CSC { return p.Gen() }

// NumericMatrix generates the matrix with values the numeric executors
// can factor: a pattern-only analogue (GUPTA3's A·Aᵀ) gets deterministic
// diagonally dominant values from sparse.FillDominant seeded with 7;
// every other problem is Matrix unchanged. Every generator stores the
// full diagonal, so the fill cannot fail; a generator that stops doing so
// panics here.
func (p Problem) NumericMatrix() *sparse.CSC {
	a := p.Gen()
	if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
		panic(fmt.Sprintf("workload: %s: %v", p.Name, err))
	}
	return a
}

// Suite returns the eight problems of Table 1 at full (reproduction)
// scale.
func Suite() []Problem { return suite(1) }

// SmallSuite returns the same problems scaled down for fast tests and
// benchmarks.
func SmallSuite() []Problem { return suite(2) }

func suite(shrink int) []Problem {
	// Cross-sections and per-copy grids shrink linearly; long axes and
	// copy counts shrink quadratically, so the reduced suite keeps the
	// same topology class (elongated domains, many weakly coupled copies)
	// at a fraction of the order while staying large enough that the
	// paper's memory regime survives: per-processor CB stacks comparable
	// to the largest type-2 masters, which requires many bounded-size
	// fronts rather than one monster separator.
	d := func(n int) int {
		v := n / shrink
		if v < 4 {
			v = 4
		}
		return v
	}
	long := func(n int) int {
		v := n / (shrink * shrink)
		if v < 3 {
			v = 3
		}
		return v
	}
	return []Problem{
		{
			Name:        "BMWCRA_1",
			Description: "Automotive crankshaft model (3D solid FEM analogue)",
			Kind:        sparse.Symmetric,
			Gen:         func() *sparse.CSC { return sparse.Grid3D(long(250), d(9), d(8)) },
		},
		{
			Name:        "GUPTA3",
			Description: "Linear programming matrix A*A' (dense-row analogue)",
			Kind:        sparse.Symmetric,
			Gen: func() *sparse.CSC {
				rng := rand.New(rand.NewSource(1003))
				m := d(3000)
				a := sparse.RandomRect(m, d(6000), 3, 8, rng)
				return sparse.Submatrix(sparse.AAT(a), m)
			},
		},
		{
			Name:        "MSDOOR",
			Description: "Medium-size door (layered shell analogue)",
			Kind:        sparse.Symmetric,
			Gen:         func() *sparse.CSC { return sparse.Shell(long(180), d(36), 2) },
		},
		{
			Name:        "SHIP_003",
			Description: "Ship structure (elongated 3D solid analogue)",
			Kind:        sparse.Symmetric,
			Gen:         func() *sparse.CSC { return sparse.Grid3D(long(170), d(12), d(6)) },
		},
		{
			Name:        "PRE2",
			Description: "AT&T harmonic balance method (circuit analogue, large)",
			Kind:        sparse.Unsymmetric,
			Gen: func() *sparse.CSC {
				rng := rand.New(rand.NewSource(2001))
				return sparse.HarmonicBalance(d(24), d(24), long(40), d(15), 2, 6, rng)
			},
		},
		{
			Name:        "TWOTONE",
			Description: "AT&T harmonic balance method (circuit analogue)",
			Kind:        sparse.Unsymmetric,
			Gen: func() *sparse.CSC {
				rng := rand.New(rand.NewSource(2002))
				return sparse.HarmonicBalance(d(20), d(20), long(24), d(10), 1, 6, rng)
			},
		},
		{
			Name:        "ULTRASOUND3",
			Description: "3D ultrasound wave propagation (unsymmetric 3D grid)",
			Kind:        sparse.Unsymmetric,
			Gen: func() *sparse.CSC {
				rng := rand.New(rand.NewSource(2003))
				return sparse.Grid3DUnsym(long(500), d(10), d(10), rng)
			},
		},
		{
			Name:        "XENON2",
			Description: "Complex zeolite, sodalite crystals (unsymmetric 3D grid)",
			Kind:        sparse.Unsymmetric,
			Gen: func() *sparse.CSC {
				rng := rand.New(rand.NewSource(2004))
				return sparse.Grid3DUnsym(long(400), d(10), d(10), rng)
			},
		},
	}
}

// Unsymmetric returns the four unsymmetric problems (used by Tables 3/5).
func Unsymmetric(suite []Problem) []Problem {
	var out []Problem
	for _, p := range suite {
		if p.Kind == sparse.Unsymmetric {
			out = append(out, p)
		}
	}
	return out
}

// ByName finds a problem in the suite.
func ByName(suite []Problem, name string) (Problem, error) {
	for _, p := range suite {
		if p.Name == name {
			return p, nil
		}
	}
	return Problem{}, fmt.Errorf("workload: unknown problem %q", name)
}
