package schedule

import (
	"sync"

	"repro/internal/dbt"
	"repro/internal/matrix"
)

// Transform pool. Building a DBT matvec transform allocates its padded
// block grid (O(n·m) storage), and the compiled matvec engine builds one per
// solve — by far the largest remaining allocation of the fast path once
// plans and scratch buffers are cached. The pool recycles transform
// structures across solves: Get rebuilds a pooled transform in place
// (dbt.Reset reuses the grid storage), Put returns it. A pooled transform is
// exclusively owned between Get and Put, so concurrent solves never share
// one; the pool is the process-wide complement of the per-arena transforms
// that internal/core's pass arenas retain privately. (The compiled matmul
// needs no transform: its plan is keyed and compiled by shape alone, and
// ExecGrid reads the operands' own padded grids.)

var matvecTransformPool = sync.Pool{New: func() interface{} { return &dbt.MatVec{} }}

// GetMatVec returns a pooled DBT-by-rows transform rebuilt for a and w.
// Pair with PutMatVec once the solve no longer touches the transform.
func GetMatVec(a *matrix.Dense, w int) *dbt.MatVec {
	t := matvecTransformPool.Get().(*dbt.MatVec)
	t.Reset(a, w)
	return t
}

// PutMatVec returns a transform obtained from GetMatVec to the pool. The
// caller must not use t afterwards.
func PutMatVec(t *dbt.MatVec) { matvecTransformPool.Put(t) }
