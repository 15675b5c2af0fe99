package dense

import "testing"

// Test-only hooks for the external test package (nodestep_test.go).

// ForceVector and ForcePortable pin the SIMD dispatch for one test.
func ForceVector(t *testing.T)   { forceVector(t) }
func ForcePortable(t *testing.T) { forcePortable(t) }

// PanelForward and PanelBackward are the whole-front reference solves
// of solve_ref_test.go: chol picks the Cholesky form, M is L for
// Cholesky and the forward pass, U for the LU backward pass.
func (kern Kernel) PanelForward(chol bool, L *Matrix, npiv int, W *Matrix) {
	if chol {
		kern.panelForwardCholesky(L, npiv, W)
	} else {
		kern.panelForwardLU(L, npiv, W)
	}
}

func (kern Kernel) PanelBackward(chol bool, M *Matrix, npiv int, W *Matrix) {
	if chol {
		kern.panelBackwardCholesky(M, npiv, W)
	} else {
		kern.panelBackwardLU(M, npiv, W)
	}
}
