package solve

import "repro/internal/trisolve"

// SingularError is the typed singular-pivot error carrying the failing
// operation and pivot index; use errors.As to extract it from any solver
// error chain. See trisolve.SingularError for the field semantics.
type SingularError = trisolve.SingularError

// IllConditionedError is the typed refinement failure carrying the
// ConditionReport at the point of giving up; use errors.As to extract it
// from any solver error chain. See trisolve.IllConditionedError for the
// field semantics.
type IllConditionedError = trisolve.IllConditionedError

// ConditionReport is the structured outcome of an iterative-refinement
// run (iterations, final residual norm, convergence); it appears in
// SolveStats.Refine on success and inside IllConditionedError on failure.
// See trisolve.ConditionReport for the field semantics.
type ConditionReport = trisolve.ConditionReport
