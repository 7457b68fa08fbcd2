package solve

import (
	"repro/internal/matrix"
)

// BlockPartitionedSolve solves A·x = d through the paper's block
// partitioning (internal/blockpart): A is partitioned into the w×w block
// grid of Fig. 1a and identity-padded to the exact n̄w × n̄w block multiple
// (ones on the padding diagonal — zero padding would make the system
// singular), the padded system runs the full array pipeline (block LU +
// triangular solves, see Solve), and the first n solution components are
// returned.
//
// On block-aligned shapes this is exactly Solve; off the boundaries it is
// the block-partitioned embedding that keeps every array pass at full
// block granularity, at the cost of (n̄w − n) trivial padding rows. The
// extra padding rows factor as 1×identity pivots, so the returned x is
// bit-identical to Solve's on the original rows whenever n is already a
// block multiple, and agrees to factorization order otherwise.
func BlockPartitionedSolve(a *matrix.Dense, d matrix.Vector, w int, opts Options) (matrix.Vector, *SolveStats, error) {
	return NewWorkspace(w).BlockPartitionedSolve(a, d, opts)
}
