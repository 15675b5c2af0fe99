package nodepar_test

import (
	"testing"

	"repro/internal/difftest"
)

// TestPropertyHybridSuite checks the within-front parallel path on every
// Table-1 problem: with fronts from the mapping's type-2 threshold up
// split into row blocks (roots included), parmf at 2 and 8 workers
// computes the element-wise oracle's factors and solve bit for bit, and
// the master/slave path ran (SplitFronts > 0, SlaveTasks > 0). See
// difftest.Run for the checks every row carries.
func TestPropertyHybridSuite(t *testing.T) { difftest.Run(t, difftest.Hybrid) }

// TestPropertyType3Suite checks the 2D (type-3) root-front path on every
// Table-1 problem: on the automatic grid and on a flat 1 x W grid, parmf
// at 2 and 8 workers computes the oracle's factors and solve bit for bit,
// and whenever a root front reaches the split threshold the 2D path ran
// and recorded its time.
func TestPropertyType3Suite(t *testing.T) { difftest.Run(t, difftest.Type3) }
