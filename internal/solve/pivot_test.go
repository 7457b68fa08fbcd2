package solve

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/trisolve"
)

// permutedDominant builds a well-conditioned system that *needs* pivoting:
// a strictly diagonally dominant matrix with its rows scrambled by a
// random permutation, so leading minors vanish (or nearly so) while the
// matrix itself stays nonsingular and well-scaled.
func permutedDominant(rng *rand.Rand, n int) (*matrix.Dense, matrix.Vector) {
	base, d := diagonallyDominant(rng, n)
	p := rng.Perm(n)
	a := matrix.NewDense(n, n)
	dd := make(matrix.Vector, n)
	for i, pi := range p {
		for j := 0; j < n; j++ {
			a.Set(i, j, base.At(pi, j))
		}
		dd[i] = d[pi]
	}
	return a, dd
}

// TestPivotedSolveZeroLeadingMinor: the canonical pivoting motivation — a
// nonsingular system whose unpivoted factorization dies on a zero leading
// minor solves cleanly under PivotPartial, with the permutation and swap
// count reported in stats.
func TestPivotedSolveZeroLeadingMinor(t *testing.T) {
	a := matrix.FromRows([][]float64{
		{0, 2, 1, 3},
		{4, 1, 0, 1},
		{1, 5, 2, 0},
		{2, 0, 1, 6},
	})
	d := matrix.Vector{1, 2, 3, 4}
	if _, _, err := Solve(a.Clone(), d, 2, Options{}); !errors.Is(err, trisolve.ErrSingular) {
		t.Fatalf("unpivoted err = %v, want ErrSingular", err)
	}
	x, stats, err := Solve(a, d, 2, Options{Pivot: PivotPartial})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Residual > 1e-12 {
		t.Errorf("residual %g, want ~0", stats.Residual)
	}
	if stats.LU.RowSwaps == 0 || len(stats.LU.Perm) != 4 {
		t.Errorf("stats report no pivoting work: %+v", stats.LU)
	}
	want := matrix.Vector{0.8, -1, 3.6, -0.2000000000000001}
	if !x.Equal(want, 1e-12) {
		t.Errorf("x = %v, want %v", x, want)
	}
}

// TestPivotedSolveEngineEquivalence: under PivotPartial the pass
// decomposition is unchanged, so oracle and compiled runs stay DeepEqual
// in results and stats — the same equivalence contract the
// unpivoted path has always had.
func TestPivotedSolveEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	for _, n := range []int{3, 6, 10, 13} {
		for _, w := range []int{2, 3} {
			a, d := permutedDominant(rng, n)
			opts := Options{Pivot: PivotPartial, Engine: core.EngineCompiled}
			xc, sc, err := Solve(a, d, w, opts)
			if err != nil {
				t.Fatalf("n=%d w=%d: %v", n, w, err)
			}
			opts.Engine = core.EngineOracle
			xo, so, err := Solve(a, d, w, opts)
			if err != nil {
				t.Fatalf("n=%d w=%d oracle: %v", n, w, err)
			}
			if !reflect.DeepEqual(xc, xo) || !reflect.DeepEqual(sc, so) {
				t.Errorf("n=%d w=%d: engines diverge under pivoting", n, w)
			}
		}
	}
}

// TestPivotedBlockLUReconstruction: the recorded permutation really is the
// factorization's row permutation — applying Perm to A reproduces L·U to
// rounding.
func TestPivotedBlockLUReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(812))
	for _, n := range []int{1, 4, 7, 12} {
		for _, w := range []int{2, 3} {
			a, _ := permutedDominant(rng, n)
			l, u, stats, err := BlockLU(a, w, Options{Pivot: PivotPartial})
			if err != nil {
				t.Fatalf("n=%d w=%d: %v", n, w, err)
			}
			pa := matrix.NewDense(n, n)
			for i, pi := range stats.Perm {
				for j := 0; j < n; j++ {
					pa.Set(i, j, a.At(pi, j))
				}
			}
			if lu := l.Mul(u); !lu.Equal(pa, 1e-9) {
				t.Errorf("n=%d w=%d: P·A ≠ L·U (off by %g)", n, w, lu.MaxAbsDiff(pa))
			}
		}
	}
}

// TestPivotNoneStatsUnchanged: the default policy reports no permutation —
// unpivoted stats are byte-compatible with what they were before pivoting
// existed (nil Perm, zero RowSwaps).
func TestPivotNoneStatsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(813))
	a, _ := diagonallyDominant(rng, 8)
	_, _, stats, err := BlockLU(a, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Perm != nil || stats.RowSwaps != 0 {
		t.Errorf("PivotNone stats carry pivoting fields: %+v", stats)
	}
}

// TestPivotedSingular: an exactly singular matrix (a zero column survives
// elimination exactly — 0 − m·0 = 0) still fails with the typed
// *SingularError even under pivoting, carrying the column where every
// candidate pivot vanished.
func TestPivotedSingular(t *testing.T) {
	a := matrix.FromRows([][]float64{
		{1, 0, 2},
		{3, 0, 1},
		{2, 0, 5},
	})
	_, _, _, err := BlockLU(a, 2, Options{Pivot: PivotPartial})
	var serr *SingularError
	if !errors.As(err, &serr) || serr.Index != 1 {
		t.Fatalf("err = %v, want *SingularError at column 1", err)
	}
	if !errors.Is(err, trisolve.ErrSingular) {
		t.Error("pivoted singular error does not match ErrSingular")
	}
}

// TestRefineConvergesAndReports: refinement on a well-conditioned system
// converges within the budget and reports the trajectory; the refined
// residual is at or below the direct solve's.
func TestRefineConvergesAndReports(t *testing.T) {
	rng := rand.New(rand.NewSource(814))
	for _, n := range []int{4, 9, 14} {
		a, d := permutedDominant(rng, n)
		xd, sd, err := Solve(a, d, 3, Options{Pivot: PivotPartial})
		if err != nil {
			t.Fatalf("n=%d direct: %v", n, err)
		}
		direct := sd.Residual
		_ = xd
		x, stats, err := Solve(a, d, 3, Options{Pivot: PivotPartial, Refine: RefineOptions{MaxIters: 5}})
		if err != nil {
			t.Fatalf("n=%d refined: %v", n, err)
		}
		if !stats.Refine.Converged {
			t.Fatalf("n=%d: refinement did not converge: %+v", n, stats.Refine)
		}
		if stats.Refine.ResidualNorm > 1e-10 {
			t.Errorf("n=%d: converged report norm %g, want tiny", n, stats.Refine.ResidualNorm)
		}
		if stats.Residual > direct+1e-14 {
			t.Errorf("n=%d: refinement worsened the residual: %g → %g", n, direct, stats.Residual)
		}
		if got := residualHost(a, x, d); got != stats.Residual {
			t.Errorf("n=%d: reported residual %g, recomputed %g", n, stats.Residual, got)
		}
	}
}

// residualHost recomputes ‖A·x − d‖∞ independently of the solver.
func residualHost(a *matrix.Dense, x, d matrix.Vector) float64 {
	return residual(a, x, d)
}

// TestRefineIllConditionedTyped: an unreachable tolerance exhausts the
// budget and yields the typed *IllConditionedError carrying the report —
// never an unconverged solution.
func TestRefineIllConditionedTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(815))
	a, d := diagonallyDominant(rng, 6)
	x, _, err := Solve(a, d, 3, Options{Refine: RefineOptions{MaxIters: 3, Tol: 1e-300}})
	if x != nil {
		t.Error("ill-conditioned solve returned a solution alongside the error")
	}
	var ice *IllConditionedError
	if !errors.As(err, &ice) {
		t.Fatalf("err = %v, want *IllConditionedError", err)
	}
	if !errors.Is(err, trisolve.ErrIllConditioned) {
		t.Error("error does not match ErrIllConditioned")
	}
	if ice.Report.Converged || ice.Report.Iters != 3 || ice.Report.ResidualNorm <= 0 {
		t.Errorf("report %+v, want 3 unconverged iters with a positive norm", ice.Report)
	}
}

// TestRefineEngineEquivalence: the residual matvec is bit-identical to the
// host ordering on both engines, so refined solves stay DeepEqual across
// engines — iteration counts, norms and all.
func TestRefineEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(816))
	a, d := permutedDominant(rng, 9)
	opts := Options{Pivot: PivotPartial, Refine: RefineOptions{MaxIters: 4}, Engine: core.EngineCompiled}
	xc, sc, err := Solve(a, d, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Engine = core.EngineOracle
	xo, so, err := Solve(a, d, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(xc, xo) || !reflect.DeepEqual(sc, so) {
		t.Errorf("refined solves diverge across engines:\n%+v\n%+v", sc, so)
	}
}

// TestPivotedBlockPartitionedSolve: the identity-padded embedding keeps
// its padding rows out of the pivot search, so block-partitioned solves
// pivot and refine transparently.
func TestPivotedBlockPartitionedSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(817))
	for _, n := range []int{5, 7, 11} {
		a, d := permutedDominant(rng, n)
		ws := NewWorkspace(4)
		x, stats, err := ws.BlockPartitionedSolve(a, d, Options{Pivot: PivotPartial, Refine: RefineOptions{MaxIters: 4}})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(x) != n {
			t.Fatalf("n=%d: len(x)=%d", n, len(x))
		}
		if stats.Residual > 1e-10 {
			t.Errorf("n=%d: residual %g", n, stats.Residual)
		}
		if !stats.Refine.Converged {
			t.Errorf("n=%d: padded refinement did not converge: %+v", n, stats.Refine)
		}
	}
}

// TestPivotedWorkspaceZeroAlloc: the warm compiled path stays at 0
// allocs/op with pivoting and refinement enabled — the permutation and
// refinement buffers are workspace-owned and reused like every other.
func TestPivotedWorkspaceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rng := rand.New(rand.NewSource(818))
	w, n := 4, 24
	a, d := permutedDominant(rng, n)
	ws := NewWorkspace(w)
	opts := Options{Engine: core.EngineCompiled, Pivot: PivotPartial, Refine: RefineOptions{MaxIters: 4}}
	if _, _, err := ws.Solve(a, d, opts); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := ws.Solve(a, d, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("pivoted+refined steady state allocates %v objects/op, want 0", allocs)
	}
}
