package trisolve

import (
	"errors"
	"fmt"
)

// ErrSingular is the sentinel matched by errors.Is for every
// singular-pivot failure across the direct-solver layers: trisolve's
// diagonal checks here, and solve's BlockLU pivots and triangular
// inverses (package solve aliases SingularError, so one errors.Is covers
// both layers no matter which one detected the pivot).
var ErrSingular = errors.New("singular matrix")

// SingularError reports the exact pivot a direct solver found to be
// zero. It is returned unchanged through every runtime layer — the
// stream scheduler's tickets and the HTTP facade — so errors.As extracts
// the pivot index anywhere in a wrapped chain, and errors.Is matches
// ErrSingular.
type SingularError struct {
	// Op names the operation that hit the pivot, e.g. "solve.BlockLU"
	// or "trisolve.SolveLower".
	Op string
	// Index is the global row/column index of the zero pivot.
	Index int
}

// Error formats the failure with its operation and pivot index.
func (e *SingularError) Error() string {
	return fmt.Sprintf("%s: singular pivot at %d", e.Op, e.Index)
}

// Unwrap lets errors.Is(err, ErrSingular) match.
func (e *SingularError) Unwrap() error { return ErrSingular }

// ConditionReport is the structured outcome of an iterative-refinement
// run: how many residual-correction cycles ran, the final ‖A·x − d‖∞, and
// whether the requested tolerance was reached. It travels in two places —
// inside the solver stats on success, and inside IllConditionedError on
// failure — so a caller always learns how far refinement got, never just
// that it stopped. It lives beside SingularError so the whole
// direct-solver failure taxonomy (singular pivot, ill-conditioned system)
// is defined once, below every layer that reports it; package solve
// re-exports all of it.
type ConditionReport struct {
	// Iters is the number of correction cycles executed (0 when the
	// direct solution already met the tolerance).
	Iters int `json:"iters"`
	// ResidualNorm is the final ‖A·x − d‖∞.
	ResidualNorm float64 `json:"residual_norm"`
	// Converged reports whether ResidualNorm reached the tolerance within
	// the iteration budget.
	Converged bool `json:"converged"`
}

// ErrIllConditioned is the sentinel matched by errors.Is when iterative
// refinement exhausts its budget without reaching the requested
// tolerance — the system is too ill-conditioned for the factorization to
// support the asked-for accuracy. The concrete error is an
// *IllConditionedError carrying the ConditionReport, so callers get the
// diagnosis instead of a silently wrong solution.
var ErrIllConditioned = errors.New("ill-conditioned system: iterative refinement did not converge")

// IllConditionedError is the typed refinement failure: errors.As extracts
// it from any wrapped chain (stream tickets, the HTTP facade), errors.Is
// matches ErrIllConditioned. No
// solution is returned alongside it — an answer that failed refinement is
// withheld, not handed back as garbage.
type IllConditionedError struct {
	// Op names the operation that gave up, e.g. "solve.Solve".
	Op string
	// Report is the refinement trajectory at the point of giving up.
	Report ConditionReport
}

// Error formats the failure with its operation and final residual.
func (e *IllConditionedError) Error() string {
	return fmt.Sprintf("%s: refinement stalled at ‖r‖∞=%g after %d iterations", e.Op, e.Report.ResidualNorm, e.Report.Iters)
}

// Unwrap lets errors.Is(err, ErrIllConditioned) match.
func (e *IllConditionedError) Unwrap() error { return ErrIllConditioned }
