package solve

import "repro/internal/trisolve"

// ErrSingular is the sentinel matched by errors.Is for every
// singular-pivot failure of the direct solvers — BlockLU's zero pivots,
// the triangular inverses' zero diagonals and the trisolve phases of a
// full Solve. It aliases
// trisolve's sentinel so one errors.Is covers both layers of a direct
// solve, wherever the pivot was detected and however many runtime layers
// (stream tickets, the HTTP facade) wrapped it.
var ErrSingular = trisolve.ErrSingular

// SingularError is the typed singular-pivot error carrying the failing
// operation and pivot index; use errors.As to extract it from any solver
// error chain. See trisolve.SingularError for the field semantics.
type SingularError = trisolve.SingularError

// ErrIllConditioned is the sentinel matched by errors.Is when iterative
// refinement (Options.Refine) exhausts its budget without reaching the
// requested tolerance. It aliases trisolve's sentinel so the whole
// direct-solver failure taxonomy unwraps from one package, however many
// runtime layers wrapped the error.
var ErrIllConditioned = trisolve.ErrIllConditioned

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
