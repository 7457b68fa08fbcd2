package solve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
)

// LUStats reports the array work of a factorization or inversion.
type LUStats struct {
	// ArraySteps is the total simulated systolic step count.
	ArraySteps int
	// ArrayPasses counts hexagonal array invocations.
	ArrayPasses int
	// HostOps counts host-side scalar operations (the w×w diagonal-block
	// factorizations/substitutions — the report-/8/ substitution; all
	// O(n³) work runs on the array).
	HostOps int
	// RowSwaps counts the row exchanges partial pivoting performed
	// (always 0 under PivotNone).
	RowSwaps int
	// Perm is the row permutation of the factorization when pivoting ran:
	// Perm[i] is the original row of A standing at row i of P·A = L·U.
	// It is nil under PivotNone, so unpivoted stats are unchanged. The
	// slice is owned like the factors (workspace-owned on workspace
	// calls); copy it to retain it across calls.
	Perm []int `json:"Perm,omitempty"`
}

// BlockLU factors a square matrix, block size w (A = L·U under the
// default opts.Pivot == PivotNone; P·A = L·U with host-side row exchanges
// recorded in stats under PivotPartial):
// a right-looking block algorithm whose trailing updates
// A₂₂ ← A₂₂ − L₂₁·U₁₂ run as hexagonal-array passes, one per w-wide column
// tile (C = (−L₂₁)·U₁₂ + E with E = A₂₂ — the array's additive input doing
// the subtraction). L is unit lower triangular, U upper triangular.
// Without pivoting A must have nonsingular leading minors (e.g. diagonally
// dominant); with PivotPartial any nonsingular A factors.
//
// The paper's conclusions (§4) list L-U decomposition among the problems
// the methodology solves; the w×w diagonal-block factorizations and panel
// substitutions stay on the host (see DESIGN.md §4). The implementation
// lives on Workspace.BlockLU — use a Workspace directly for repeated
// steady-state solves.
func BlockLU(a *matrix.Dense, w int, opts Options) (l, u *matrix.Dense, stats *LUStats, err error) {
	return NewWorkspace(w).BlockLU(a, opts)
}

// LowerTriangularInverse inverts a lower triangular matrix by blocks:
// X_kk = L_kk⁻¹ on the host (w×w), and each off-diagonal block
// X_ik = −L_ii⁻¹·(Σ_j L_ij·X_jk) with the inner products run as
// hexagonal-array passes. Within one block row bi the per-target-column
// passes run for bk = bi−1 … 0; each reads only blocks written in earlier
// block rows (plus the diagonal inverse) and writes its own X[bi, bk].
func LowerTriangularInverse(lo *matrix.Dense, w int, opts Options) (*matrix.Dense, *LUStats, error) {
	n := lo.Rows()
	if lo.Cols() != n {
		return nil, nil, fmt.Errorf("solve: inverse needs a square matrix, got %d×%d", n, lo.Cols())
	}
	stats := &LUStats{}
	x := matrix.NewDense(n, n)
	nb := (n + w - 1) / w
	// Host: invert the diagonal blocks by forward substitution.
	for b := 0; b < nb; b++ {
		lo0, hi0 := blockBounds(b, w, n)
		for c := lo0; c < hi0; c++ {
			if lo.At(c, c) == 0 {
				return nil, nil, &SingularError{Op: "solve.LowerTriangularInverse", Index: c}
			}
			x.Set(c, c, 1/lo.At(c, c))
			stats.HostOps++
			for i := c + 1; i < hi0; i++ {
				s := 0.0
				for j := c; j < i; j++ {
					s += lo.At(i, j) * x.At(j, c)
					stats.HostOps += 2
				}
				x.Set(i, c, -s/lo.At(i, i))
				stats.HostOps++
			}
		}
	}
	// Array: X_ik = −(L_ii⁻¹)·(Σ_{k≤j<i} L_ij X_jk), two passes per target
	// column.
	ar := core.NewArena()
	for bi := 1; bi < nb; bi++ {
		for bk := bi - 1; bk >= 0; bk-- {
			ar.Reset()
			steps, err := inverseColumn(ar, lo, x, w, bi, bk, opts.Engine)
			if err != nil {
				return nil, nil, err
			}
			stats.ArraySteps += steps
			stats.ArrayPasses += 2
		}
	}
	return x, stats, nil
}

// blockBounds returns block b's row range [lo, hi) in a width-w blocking
// of dimension n.
func blockBounds(b, w, n int) (int, int) {
	hi := (b + 1) * w
	if hi > n {
		hi = n
	}
	return b * w, hi
}

// inverseColumn is one target column of block row bi: the summed product
// S = L[bi, bk..bi)·X[bk..bi, bk] as one hexagonal-array pass, then
// X[bi, bk] = (−L_ii⁻¹)·S as a second, both on ar. It returns the two
// passes' total step count.
func inverseColumn(ar *core.Arena, lo, x *matrix.Dense, w, bi, bk int, eng core.Engine) (int, error) {
	n := lo.Rows()
	li0, li1 := blockBounds(bi, w, n)
	lk0, lk1 := blockBounds(bk, w, n)
	lPanel := matrix.SliceInto(ar.Dense(li1-li0, li0-lk0), lo, li0, li1, lk0, li0)
	xPanel := matrix.SliceInto(ar.Dense(li0-lk0, lk1-lk0), x, lk0, li0, lk0, lk1)
	sum := ar.Dense(li1-li0, lk1-lk0)
	t1, err := ar.MatMulPass(sum, lPanel, xPanel, nil, w, eng)
	if err != nil {
		return 0, err
	}
	neg := ar.Dense(li1-li0, li1-li0)
	for i := 0; i < li1-li0; i++ {
		for j := 0; j < li1-li0; j++ {
			neg.Set(i, j, -x.At(li0+i, li0+j))
		}
	}
	dst := ar.Dense(li1-li0, lk1-lk0)
	t2, err := ar.MatMulPass(dst, neg, sum, nil, w, eng)
	if err != nil {
		return 0, err
	}
	x.SetRect(li0, lk0, dst)
	return t1 + t2, nil
}

// Inverse inverts a dense matrix as U⁻¹·L⁻¹ from its block LU
// factorization: both triangular inverses use LowerTriangularInverse (U via
// transposition) and the final product is one more array pass. This closes
// the §4 list ("inverses of triangular and dense matrices").
func Inverse(a *matrix.Dense, w int, opts Options) (*matrix.Dense, *LUStats, error) {
	l, u, st, err := BlockLU(a, w, opts)
	if err != nil {
		return nil, nil, err
	}
	linv, st2, err := LowerTriangularInverse(l, w, opts)
	if err != nil {
		return nil, nil, err
	}
	uinvT, st3, err := LowerTriangularInverse(u.Transpose(), w, opts)
	if err != nil {
		return nil, nil, err
	}
	solver := core.NewMatMulSolver(w)
	res, err := solver.Solve(uinvT.Transpose(), linv, core.MatMulOptions{Engine: opts.Engine})
	if err != nil {
		return nil, nil, err
	}
	stats := &LUStats{
		ArraySteps:  st.ArraySteps + st2.ArraySteps + st3.ArraySteps + res.Stats.T,
		ArrayPasses: st.ArrayPasses + st2.ArrayPasses + st3.ArrayPasses + 1,
		HostOps:     st.HostOps + st2.HostOps + st3.HostOps,
	}
	return res.C, stats, nil
}
