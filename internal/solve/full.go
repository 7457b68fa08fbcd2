package solve

import "repro/internal/matrix"

// The full direct solve: A·x = d factored as L·U on the hexagonal array,
// then both triangular systems solved with the dedicated triangular-solver
// array (diagonal blocks) and the matvec array (off-diagonal panels) — the
// complete solver pipeline of the paper's §4 list, every O(n³) and O(n²)
// piece inside a fixed-size systolic array.

// SolveStats reports the array work of a full direct solve.
type SolveStats struct {
	// LU is the factorization's accounting.
	LU LUStats
	// TriSteps/TriPasses and MatVecSteps/MatVecPasses aggregate both
	// triangular phases (forward with L, backward with U).
	TriSteps, TriPasses       int
	MatVecSteps, MatVecPasses int
	// Residual is ‖A·x − d‖∞ of the returned solution.
	Residual float64
	// Refine reports the iterative-refinement trajectory when
	// Options.Refine enabled it (zero value otherwise). A solve that
	// returns successfully with refinement enabled always has
	// Refine.Converged true — non-convergence is a typed error, not a
	// stats flag.
	Refine ConditionReport
}

// Solve solves A·x = d directly: block LU factorization with trailing
// updates on the hexagonal array, then the two triangular systems on the
// triangular-solver and matvec arrays (right-looking). A must be square; without pivoting it also needs
// nonsingular leading minors (e.g. diagonal dominance), while
// opts.Pivot == PivotPartial accepts any nonsingular A. opts.Refine adds
// residual-correction cycles on the retained factors, failing with
// *IllConditionedError instead of returning an unconverged solution; w is
// the array size. The implementation lives on Workspace.Solve — use a
// Workspace directly for repeated steady-state solves.
func Solve(a *matrix.Dense, d matrix.Vector, w int, opts Options) (matrix.Vector, *SolveStats, error) {
	return NewWorkspace(w).Solve(a, d, opts)
}
