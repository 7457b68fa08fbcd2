package solve

// Partial pivoting and iterative refinement: the two robustness layers
// that widen BlockLU's solvable class beyond nonsingular leading minors.
// Pivoting runs entirely as host-side row permutations between the
// existing array passes (DESIGN §11) — the factor pass decomposition is
// untouched, so oracle/compiled equivalence carries over
// verbatim. Refinement rides the already-compiled residual matvec and the
// retained triangular factors, so a warm workspace refines at 0 allocs/op.

// PivotPolicy selects the row-pivoting strategy of BlockLU and every
// solver built on it.
type PivotPolicy int

const (
	// PivotNone factors A = L·U with no row exchanges — the historical
	// default, requiring nonsingular leading minors (e.g. diagonal
	// dominance). Zero value, so existing Options behave unchanged.
	PivotNone PivotPolicy = iota
	// PivotPartial factors P·A = L·U with partial (row) pivoting: each
	// elimination column picks the largest-magnitude candidate pivot and
	// swaps its row to the diagonal on the host, between array passes.
	// Any nonsingular A factors; exact singularity still returns
	// *SingularError.
	PivotPartial
)

// String names the policy for logs and bench labels.
func (p PivotPolicy) String() string {
	switch p {
	case PivotNone:
		return "none"
	case PivotPartial:
		return "partial"
	default:
		return "unknown"
	}
}

// RefineOptions opt a solve into iterative refinement: after the direct
// solve, residual-correction cycles x ← x + (LU)⁻¹·P·(d − A·x) run until
// the residual norm meets the tolerance or the budget is exhausted. The
// residual is one compiled matvec pass; the correction reuses the
// retained factors in the pooled workspace. The zero value disables
// refinement.
type RefineOptions struct {
	// MaxIters is the correction-cycle budget; 0 disables refinement.
	// If the budget runs out above tolerance the solve returns
	// *IllConditionedError instead of the unconverged solution.
	MaxIters int
	// Tol is the target ‖A·x − d‖∞. Tol <= 0 selects a scaled default,
	// 64·ε·(‖A‖∞·‖x‖∞ + ‖d‖∞), recomputed each cycle — roughly "as good
	// as the conditioning allows" without hand-tuning per system.
	Tol float64
}
