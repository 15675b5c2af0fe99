package parmf_test

import (
	"testing"

	"repro/internal/difftest"
)

// TestCrossValidateSuite checks, on every Table-1 problem, that the
// tree-parallel executor at 1, 2 and 8 workers computes the element-wise
// oracle's factors and solve bit for bit, and at one worker replays its
// traversal. See difftest.Run for the checks every row carries.
func TestCrossValidateSuite(t *testing.T) { difftest.Run(t, difftest.CrossValidate) }

// TestPropertySolveMultiSuite checks the oracle's solve phase on every
// Table-1 problem: the blocked 3-column solve equals three single-column
// solves, and the tree-parallel solve at 1, 2 and 8 workers equals the
// blocked one, bit for bit. The out-of-core 3-column solve is a row of
// ooc's TestOOCPropertySuite.
func TestPropertySolveMultiSuite(t *testing.T) { difftest.Run(t, difftest.SolveMulti) }

// TestPropertySIMDSuite checks the simd kernel family on every
// small-suite problem: a residual within 10x of the oracle's, parallel
// runs with forced type-2 and type-3 splits at 1, 2 and 8 workers bitwise
// equal to sequential simd, and sequential and parallel runs into a file
// store solving bitwise as in core. On amd64 this runs the AVX2/FMA
// assembly when the CPU has it; the portable fallback computing the same
// bits is pinned by dense.TestKernelSIMDPortableBitwise.
func TestPropertySIMDSuite(t *testing.T) { difftest.Run(t, difftest.SIMD) }
