package solve

import (
	"math"

	"repro/internal/matrix"
)

// Iterative refinement: residual-correction cycles on the retained block-LU
// factors. The residual A·x runs as one compiled matvec pass per cycle
// (both engines return bit-identical values, so the reported norms are
// engine-invariant); the correction solve reuses the packed factor and the
// trisolve substrate already living in the workspace, so a warm
// workspace refines at 0 allocs/op.

// refineEps is the double-precision unit roundoff used by the scaled
// default tolerance.
const refineEps = 0x1p-52

// refine runs Options.Refine's correction cycles on the solution ws.x of
// the base solve, updating ws.stats (Refine report, Residual, and the
// Tri/MatVec pass accounting of the extra work) in place. Non-convergence
// within the budget returns *IllConditionedError carrying the report; the
// unconverged solution is withheld by the caller.
func (ws *Workspace) refine(a *matrix.Dense, d matrix.Vector, opts Options) error {
	n := a.Rows()
	st := &ws.stats
	for iter := 0; ; iter++ {
		// r = d − A·x with A·x as one array matvec pass.
		ws.resid = matrix.ReuseVec(ws.resid, n)
		ws.ar.Reset()
		steps, err := ws.ar.MatVecPass(ws.resid, a, ws.x, nil, ws.w, opts.Engine)
		if err != nil {
			return err
		}
		st.MatVecSteps += steps
		st.MatVecPasses++
		norm := 0.0
		for i := range ws.resid {
			ws.resid[i] = d[i] - ws.resid[i]
			if v := math.Abs(ws.resid[i]); v > norm {
				norm = v
			}
		}
		tol := opts.Refine.Tol
		if tol <= 0 {
			tol = refineTol(a, ws.x, d)
		}
		if norm <= tol {
			// The report carries the array-measured norm the convergence
			// decision used; Residual stays the host-recomputed value every
			// solve reports (the two can differ in the last bits — the
			// array's band summation order is not the host row-dot order).
			st.Refine = ConditionReport{Iters: iter, ResidualNorm: norm, Converged: true}
			st.Residual = residual(a, ws.x, d)
			return nil
		}
		if iter >= opts.Refine.MaxIters {
			rep := ConditionReport{Iters: iter, ResidualNorm: norm, Converged: false}
			st.Refine = rep
			return &IllConditionedError{Op: "solve.Solve", Report: rep}
		}
		// Correction: L·U·δ = P·r on the retained factors, then x += δ.
		rhs := ws.resid
		if len(ws.lu.Perm) != 0 {
			ws.rp = matrix.ReuseVec(ws.rp, n)
			for i, pi := range ws.lu.Perm {
				ws.rp[i] = ws.resid[pi]
			}
			rhs = ws.rp
		}
		ws.corr = matrix.ReuseVec(ws.corr, n)
		tri, err := ws.tri.SolveLUInto(ws.corr, ws.work, rhs, opts.Engine)
		if err != nil {
			return err
		}
		st.TriSteps += tri.TriSteps
		st.TriPasses += tri.TriPasses
		st.MatVecSteps += tri.MatVecSteps
		st.MatVecPasses += tri.MatVecPasses
		for i := range ws.x {
			ws.x[i] += ws.corr[i]
		}
	}
}

// refineTol is the scaled default tolerance, 64·ε·(‖A‖∞·‖x‖∞ + ‖d‖∞):
// the smallest residual a backward-stable solve can promise at this
// scale, with a small safety factor so well-conditioned systems converge
// in zero or one cycle.
func refineTol(a *matrix.Dense, x, d matrix.Vector) float64 {
	normA := 0.0
	for i := 0; i < a.Rows(); i++ {
		s := 0.0
		for _, v := range a.RawRow(i) {
			s += math.Abs(v)
		}
		if s > normA {
			normA = s
		}
	}
	normX, normD := 0.0, 0.0
	for _, v := range x {
		if v := math.Abs(v); v > normX {
			normX = v
		}
	}
	for _, v := range d {
		if v := math.Abs(v); v > normD {
			normD = v
		}
	}
	return 64 * refineEps * (normA*normX + normD)
}
