package ooc_test

import (
	"testing"

	"repro/internal/difftest"
)

// TestOOCPropertySuite is the out-of-core property on every Table-1
// problem, for seqmf and for parmf at 1, 2 and 8 workers factoring into
// a file store with a buffer of a sixteenth of the factors: every block
// read back off disk equals the oracle's bit for bit, the resident peak
// stays at or below the in-core run's, the store holds one block per
// node, the solve equals the oracle's bit for bit (for seqmf a 3-column
// block, also through the tree-parallel solver), and a sequential solve
// streams the file once forward and once backward.
func TestOOCPropertySuite(t *testing.T) { difftest.Run(t, difftest.OOC) }
