// Package order implements the fill-reducing orderings used in the paper's
// evaluation: AMD (minimum degree), AMF (approximate minimum fill), ND
// (nested dissection, standing in for METIS) and PORD (a hybrid
// bottom-up/top-down ordering, standing in for Schulze's PORD), plus RCM.
//
// AMD and AMF come from one quotient-graph minimum-degree engine with
// supervariables that computes exact weighted external degrees. It has no
// Amestoy–Davis–Duff approximate degree bound: the AMD the paper's solver
// uses is that approximation, ROADMAP item 4(b).
//
// The paper runs every experiment under all four orderings because the
// assembly-tree topology — deep and unbalanced for AMD/AMF, wide and
// balanced for METIS, intermediate for PORD — determines the stack-memory
// behaviour the scheduling strategies act on.
package order

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// Method selects an ordering algorithm.
type Method int

const (
	// AMD is the minimum (external) degree ordering, with exact degrees.
	AMD Method = iota
	// AMF is the approximate minimum fill ordering, with exact degrees.
	AMF
	// ND is nested dissection (METIS stand-in).
	ND
	// PORD is a hybrid top-down/bottom-up ordering (PORD stand-in).
	PORD
	// RCM is reverse Cuthill-McKee (profile reduction; not in the paper's
	// table but useful as a contrast ordering).
	RCM
	// Natural keeps the input order.
	Natural
)

// Methods lists the four orderings of the paper's tables, in the column
// order used by Tables 2-6 (METIS, PORD, AMD, AMF).
var Methods = []Method{ND, PORD, AMD, AMF}

func (m Method) String() string {
	switch m {
	case AMD:
		return "AMD"
	case AMF:
		return "AMF"
	case ND:
		return "METIS"
	case PORD:
		return "PORD"
	case RCM:
		return "RCM"
	case Natural:
		return "NATURAL"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Parse returns the Method named by s (the String() names, e.g. "METIS",
// "PORD", "AMD", "AMF", "RCM", "NATURAL"; "ND" is accepted for METIS).
func Parse(s string) (Method, error) {
	for _, m := range []Method{AMD, AMF, ND, PORD, RCM, Natural} {
		if s == m.String() {
			return m, nil
		}
	}
	if s == "ND" {
		return ND, nil
	}
	return 0, fmt.Errorf("order: unknown method %q", s)
}

// Compute returns a fill-reducing permutation of the symmetrized pattern of
// a. The returned slice maps new position -> original index (perm[k] is the
// k-th pivot).
func Compute(a *sparse.CSC, m Method) []int {
	g := graph.FromMatrix(a)
	switch m {
	case AMD:
		return MinimumDegree(g, ScoreAMD)
	case AMF:
		return MinimumDegree(g, ScoreAMF)
	case ND:
		return NestedDissection(g, DefaultNDOptions())
	case PORD:
		return HybridPORD(g)
	case RCM:
		return ReverseCuthillMcKee(g)
	case Natural:
		p := make([]int, a.N)
		for i := range p {
			p[i] = i
		}
		return p
	default:
		panic(fmt.Sprintf("order: unknown method %v", m))
	}
}

// IsPermutation reports whether perm is a permutation of 0..n-1.
func IsPermutation(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range perm {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Inverse returns the inverse permutation: inv[old] = new.
func Inverse(perm []int) []int {
	inv := make([]int, len(perm))
	for k, o := range perm {
		inv[o] = k
	}
	return inv
}
