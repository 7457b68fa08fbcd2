// Package solve implements the applications the paper's conclusions list as
// further uses of the methodology (§4, detailed in the authors' report
// /8/, which is not publicly available): iterative linear system solution
// (Jacobi and block Gauss–Seidel sweeps whose matrix–vector work runs
// through the DBT linear array) and triangular system solution by block
// forward substitution with the off-diagonal work on the array.
//
// Everything O(n²) per sweep goes through the fixed-size systolic array via
// DBT; only the O(n·w) diagonal-block substitutions of the triangular
// solver remain on the host (the substitution for report /8/'s in-array
// scheme, documented in DESIGN.md §4).
package solve

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/matrix"
)

// ErrNoConvergence is returned when an iterative method exhausts its sweep
// budget before reaching the requested tolerance.
var ErrNoConvergence = errors.New("solve: iteration did not converge")

// Options configure a solver run. The zero value is ready to use.
type Options struct {
	// Engine selects the execution engine for every array pass the solver
	// issues (core.EngineAuto: the compiled fast path). Both engines return
	// bit-identical results, so Engine only changes simulation cost.
	Engine core.Engine
	// Pivot selects the row-pivoting policy of the underlying BlockLU
	// (PivotNone: the historical no-pivoting default). PivotPartial runs
	// host-side row permutations between the array passes, widening the
	// solvable class to every nonsingular matrix; the pass decomposition
	// is unchanged, so engine equivalence is unaffected.
	Pivot PivotPolicy
	// Refine opts the direct solvers into iterative refinement
	// (residual-correction cycles on the retained factors); the zero
	// value disables it. See RefineOptions.
	Refine RefineOptions
}

// IterStats reports an iterative solve.
type IterStats struct {
	// Sweeps is the number of iterations executed.
	Sweeps int
	// Residual is the final ‖A·x − d‖∞.
	Residual float64
	// ArraySteps is the total simulated systolic step count across sweeps.
	ArraySteps int
}

// Jacobi solves A·x = d by Jacobi iteration, x ← D⁻¹(d − (A−D)x), with the
// whole off-diagonal matrix–vector product computed on a w-PE DBT array
// each sweep. A must be square with a nonzero diagonal; convergence is
// guaranteed for strictly diagonally dominant A.
func Jacobi(a *matrix.Dense, d matrix.Vector, w, maxSweeps int, tol float64, opts Options) (matrix.Vector, *IterStats, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, nil, fmt.Errorf("solve: Jacobi needs a square matrix, got %d×%d", n, a.Cols())
	}
	if len(d) != n {
		return nil, nil, fmt.Errorf("solve: len(d)=%d, want %d", len(d), n)
	}
	// R = A with zero diagonal; diag holds A's diagonal.
	r := a.Clone()
	diag := make(matrix.Vector, n)
	for i := 0; i < n; i++ {
		diag[i] = a.At(i, i)
		if diag[i] == 0 {
			return nil, nil, fmt.Errorf("solve: zero diagonal at %d", i)
		}
		r.Set(i, i, 0)
	}
	solver := core.NewMatVecSolver(w)
	x := matrix.NewVector(n)
	stats := &IterStats{}
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		res, err := solver.Solve(r, x, nil, core.MatVecOptions{Engine: opts.Engine})
		if err != nil {
			return nil, nil, err
		}
		stats.ArraySteps += res.Stats.T
		for i := 0; i < n; i++ {
			x[i] = (d[i] - res.Y[i]) / diag[i]
		}
		stats.Sweeps = sweep
		stats.Residual = residual(a, x, d)
		if stats.Residual <= tol {
			return x, stats, nil
		}
	}
	return x, stats, ErrNoConvergence
}

// GaussSeidel solves A·x = d by block Gauss–Seidel sweeps with blocks of
// width w: within a sweep, row band r uses the already-updated bands
// r′ < r. The off-diagonal dot products of each row band run through the
// DBT array; the diagonal update divides by A's scalar diagonal.
func GaussSeidel(a *matrix.Dense, d matrix.Vector, w, maxSweeps int, tol float64, opts Options) (matrix.Vector, *IterStats, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, nil, fmt.Errorf("solve: GaussSeidel needs a square matrix, got %d×%d", n, a.Cols())
	}
	if len(d) != n {
		return nil, nil, fmt.Errorf("solve: len(d)=%d, want %d", len(d), n)
	}
	for i := 0; i < n; i++ {
		if a.At(i, i) == 0 {
			return nil, nil, fmt.Errorf("solve: zero diagonal at %d", i)
		}
	}
	solver := core.NewMatVecSolver(w)
	x := matrix.NewVector(n)
	stats := &IterStats{}
	nb := (n + w - 1) / w
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		for rb := 0; rb < nb; rb++ {
			lo, hi := rb*w, (rb+1)*w
			if hi > n {
				hi = n
			}
			// Row band slice of A with its diagonal block's diagonal zeroed,
			// times the current x (mixing updated and old bands).
			band := a.Slice(lo, hi, 0, n)
			for i := lo; i < hi; i++ {
				band.Set(i-lo, i, 0)
			}
			res, err := solver.Solve(band, x, nil, core.MatVecOptions{Engine: opts.Engine})
			if err != nil {
				return nil, nil, err
			}
			stats.ArraySteps += res.Stats.T
			for i := lo; i < hi; i++ {
				x[i] = (d[i] - res.Y[i-lo]) / a.At(i, i)
			}
		}
		stats.Sweeps = sweep
		stats.Residual = residual(a, x, d)
		if stats.Residual <= tol {
			return x, stats, nil
		}
	}
	return x, stats, ErrNoConvergence
}

// residual returns ‖A·x − d‖∞ without allocating: each row's dot product
// accumulates in the same order as matrix.Dense.MulVec, so the value is
// bit-identical to the allocating formulation it replaced.
func residual(a *matrix.Dense, x, d matrix.Vector) float64 {
	r := 0.0
	for i := 0; i < a.Rows(); i++ {
		s := 0.0
		for j, v := range a.RawRow(i) {
			s += v * x[j]
		}
		if v := math.Abs(s - d[i]); v > r {
			r = v
		}
	}
	return r
}
