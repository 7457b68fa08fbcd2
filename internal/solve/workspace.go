package solve

import (
	"fmt"
	"math"

	"repro/internal/blockpart"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/trisolve"
)

// Workspace is the steady-state entry point of the blocked direct solvers:
// it owns every long-lived buffer of a solve (working copy, panels,
// solution vectors, stats) plus a pass arena. Repeated solves on one
// workspace reuse all of it, so the compiled path allocates nothing in the
// steady state (BenchmarkSolverEngines' compiled rows run at 0 allocs/op).
//
// Storage: a factorization is computed in place in the working copy, in
// LAPACK getrf layout — the strict lower triangle holds L's multipliers
// (unit diagonal implicit), the upper triangle U — and Solve and
// refinement run both triangular phases from that one n×n buffer. Only
// BlockLU, whose callers want the factors as two matrices, unpacks them
// into l and u, allocated the first time it is called.
//
// Ownership: a workspace belongs to one goroutine; the matrices, vector
// and stats a call returns are workspace-owned and valid until the next
// call on the same workspace (the one-shot package functions hand a fresh
// workspace's buffers to the caller, which is why they may return them).
//
// Pass decomposition: BlockLU runs each elimination step as the host
// panel factorization followed by one hexagonal-array pass per w-wide
// column tile of the trailing update, in column order on the workspace's
// arena — the paper's fixed-size array running a problem of any size as a
// sequence of passes. Results and stats are bit-identical on both engines.
type Workspace struct {
	w   int
	ar  *core.Arena
	tri *trisolve.Workspace

	work, l, u *matrix.Dense
	negL       *matrix.Dense
	lu         LUStats
	stats      SolveStats
	x          matrix.Vector
	padded     *matrix.Dense
	dp, xout   matrix.Vector

	perm            []int
	dperm           matrix.Vector
	resid, rp, corr matrix.Vector
}

// NewWorkspace returns a workspace for array size w with a private arena:
// every pass runs on the caller's goroutine.
func NewWorkspace(w int) *Workspace { return NewWorkspaceArena(w, core.NewArena()) }

// NewWorkspaceArena returns a workspace (its trisolve substrate included)
// that replays compiled plans and draws pass scratch through the caller's
// arena instead of a private one, so repeated solves reuse the
// arena's PlanMemo — the constructor behind the stream scheduler's solve
// tickets, where each shard's arena keeps one warm workspace per array
// size. The arena is shared, not owned; the workspace inherits its
// goroutine-ownership contract and Resets it freely between passes, so
// nothing else drawn from the arena may be live across a workspace call.
// The pass decomposition is identical to NewWorkspace's, so results and
// stats stay bit-identical to the one-shot path.
func NewWorkspaceArena(w int, ar *core.Arena) *Workspace {
	if w < 1 {
		panic(fmt.Sprintf("solve: invalid array size %d", w))
	}
	return &Workspace{w: w, ar: ar, tri: trisolve.NewWorkspaceArena(w, ar)}
}

// BlockLU factors A (opts.Pivot == PivotNone: A = L·U, requiring
// nonsingular leading minors; PivotPartial: P·A = L·U with host-side row
// exchanges recorded in stats.Perm) exactly as the package-level BlockLU
// (which delegates here), with the trailing update of each elimination
// step decomposed into per-column-tile array passes. Pivoting only changes
// the host panel phase between array passes — the pass decomposition is
// identical, so results and stats stay bit-identical across engines under
// either policy. The returned factors, unpacked from the packed working
// copy, and stats are workspace-owned.
func (ws *Workspace) BlockLU(a *matrix.Dense, opts Options) (l, u *matrix.Dense, stats *LUStats, err error) {
	stats, err = ws.factor(a, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	n := a.Rows()
	ws.l = matrix.Reuse(ws.l, n, n)
	ws.u = matrix.Reuse(ws.u, n, n)
	for i := 0; i < n; i++ {
		wi, li, ui := ws.work.RawRow(i), ws.l.RawRow(i), ws.u.RawRow(i)
		copy(li, wi[:i])
		li[i] = 1
		clear(li[i+1:])
		clear(ui[:i])
		copy(ui[i:], wi[i:])
	}
	return ws.l, ws.u, stats, nil
}

// factor is BlockLU without the unpacking: it leaves L and U packed in the
// working copy (see Workspace) for the triangular phases of a solve.
func (ws *Workspace) factor(a *matrix.Dense, opts Options) (*LUStats, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("solve: BlockLU needs a square matrix, got %d×%d", n, a.Cols())
	}
	w := ws.w
	ws.work = matrix.CloneInto(ws.work, a)
	ws.lu = LUStats{}
	wr := ws.work.Raw()
	stats := &ws.lu
	pivoted := opts.Pivot == PivotPartial
	if pivoted {
		ws.perm = matrix.ReuseSlice[int](ws.perm, n)
		for i := range ws.perm {
			ws.perm[i] = i
		}
		stats.Perm = ws.perm
	}

	for k0 := 0; k0 < n; k0 += w {
		k1 := k0 + w
		if k1 > n {
			k1 = n
		}
		// Host: the panel — diagonal block and L₂₁ in one in-place
		// elimination, with row exchanges under PivotPartial.
		if err := ws.panel(k0, k1, pivoted); err != nil {
			return nil, err
		}
		if k1 == n {
			break
		}
		// Host: U₁₂ = L₁₁⁻¹·A₁₂ (forward substitution) in place, one U row
		// at a time: each element still subtracts its terms in increasing
		// t, so the loop order over the independent columns changes no bit.
		for i := k0; i < k1; i++ {
			ui := wr[i*n+k1 : (i+1)*n]
			for t := k0; t < i; t++ {
				lit, ut := wr[i*n+t], wr[t*n+k1:(t+1)*n]
				ut = ut[:len(ui)]
				for j := range ui {
					ui[j] -= lit * ut[j]
				}
			}
			stats.HostOps += 2 * (i - k0) * (n - k1)
		}
		// Array: trailing update A₂₂ ← (−L₂₁)·U₁₂ + A₂₂, one pass per
		// w-wide column tile, in column order.
		ws.negL = matrix.Reuse(ws.negL, n-k1, k1-k0)
		for i := k1; i < n; i++ {
			nl := ws.negL.RawRow(i - k1)
			for j, v := range wr[i*n+k0 : i*n+k1] {
				nl[j] = -v
			}
		}
		for j0 := k1; j0 < n; j0 += w {
			steps, err := ws.trailingTile(k0, k1, j0, min(j0+w, n), opts.Engine)
			if err != nil {
				return nil, err
			}
			stats.ArraySteps += steps
			stats.ArrayPasses++
		}
	}
	return stats, nil
}

// panel is the host phase of one elimination step: the panel
// work[k0:n, k0:k1) is eliminated in place, column by column, into U's
// panel rows and L's multipliers below the diagonal, which the U₁₂
// substitution and the trailing-update array passes then consume. With
// pivot set, each column first swaps the largest-magnitude candidate
// pivot row to the diagonal (a full-row exchange of the working copy,
// which carries the multipliers already stored in the row, with the swap
// recorded in perm). A zero pivot returns *SingularError with its global
// column index when a multiplier would divide by it; under pivoting that
// is every zero pivot (a whole candidate column of zeros), without it
// every one but U[n−1][n−1], which the triangular phase of a solve then
// reports.
func (ws *Workspace) panel(k0, k1 int, pivot bool) error {
	n := ws.work.Rows()
	wr := ws.work.Raw()
	stats := &ws.lu
	for j := k0; j < k1; j++ {
		p, best := j, math.Abs(wr[j*n+j])
		if pivot {
			for i := j + 1; i < n; i++ {
				if v := math.Abs(wr[i*n+j]); v > best {
					p, best = i, v
				}
			}
		}
		if best == 0 && (pivot || j+1 < n) {
			return &SingularError{Op: "solve.BlockLU", Index: j}
		}
		if p != j {
			rp, rj := wr[p*n:(p+1)*n], wr[j*n:(j+1)*n]
			for t := range rp {
				rp[t], rj[t] = rj[t], rp[t]
			}
			ws.perm[p], ws.perm[j] = ws.perm[j], ws.perm[p]
			stats.RowSwaps++
		}
		wj := wr[j*n+j : j*n+k1]
		piv := wj[0]
		for i := j + 1; i < n; i++ {
			wi := wr[i*n+j : i*n+k1]
			m := wi[0] / piv
			wi[0] = m
			for t := 1; t < len(wi); t++ {
				wi[t] = wi[t] - m*wj[t]
			}
		}
		stats.HostOps += (n - j - 1) * (2*(k1-j) - 1)
	}
	return nil
}

// trailingTile is one column tile of a BlockLU elimination step:
// work[k1:n, j0:j1] ← (−L₂₁)·U[k0:k1, j0:j1] + work[k1:n, j0:j1] as a
// single hexagonal-array pass on the workspace's arena. The pass updates
// the block of the working matrix where it is and reads the U block from
// the rows above it (core.Arena.MatMulUpdate), so no panel is copied.
func (ws *Workspace) trailingTile(k0, k1, j0, j1 int, eng core.Engine) (int, error) {
	ws.ar.Reset()
	return ws.ar.MatMulUpdate(ws.work, k1, j0, ws.negL, ws.work, k0, j0, j1-j0, ws.w, eng)
}

// Solve solves A·x = d directly exactly as the package-level Solve (which
// delegates here): block LU, then the two triangular phases on the
// workspace's trisolve substrate, read from the packed factor. The returned vector and stats are
// workspace-owned.
func (ws *Workspace) Solve(a *matrix.Dense, d matrix.Vector, opts Options) (matrix.Vector, *SolveStats, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, nil, fmt.Errorf("solve: Solve needs a square matrix, got %d×%d", n, a.Cols())
	}
	if len(d) != n {
		return nil, nil, fmt.Errorf("solve: len(d)=%d, want %d", len(d), n)
	}
	luStats, err := ws.factor(a, opts)
	if err != nil {
		return nil, nil, err
	}
	// Under pivoting the factorization is P·A = L·U, so the forward phase
	// consumes P·d — one host-side gather through the recorded permutation.
	rhs := d
	if len(luStats.Perm) != 0 {
		ws.dperm = matrix.ReuseVec(ws.dperm, n)
		for i, pi := range luStats.Perm {
			ws.dperm[i] = d[pi]
		}
		rhs = ws.dperm
	}
	ws.x = matrix.ReuseVec(ws.x, n)
	tri, err := ws.tri.SolveLUInto(ws.x, ws.work, rhs, opts.Engine)
	if err != nil {
		return nil, nil, err
	}
	ws.stats = SolveStats{
		LU:           *luStats,
		TriSteps:     tri.TriSteps,
		TriPasses:    tri.TriPasses,
		MatVecSteps:  tri.MatVecSteps,
		MatVecPasses: tri.MatVecPasses,
		Residual:     residual(a, ws.x, d),
	}
	if opts.Refine.MaxIters > 0 {
		if err := ws.refine(a, d, opts); err != nil {
			return nil, nil, err
		}
	}
	return ws.x, &ws.stats, nil
}

// BlockPartitionedSolve solves A·x = d through the identity-padded block
// embedding exactly as the package-level BlockPartitionedSolve (which
// delegates here). The returned vector and stats are workspace-owned.
func (ws *Workspace) BlockPartitionedSolve(a *matrix.Dense, d matrix.Vector, opts Options) (matrix.Vector, *SolveStats, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, nil, fmt.Errorf("solve: BlockPartitionedSolve needs a square matrix, got %d×%d", n, a.Cols())
	}
	if len(d) != n {
		return nil, nil, fmt.Errorf("solve: len(d)=%d, want %d", len(d), n)
	}
	// Identity embedding: zero-pad to the block multiple and put ones on
	// the padding diagonal.
	pn := blockpart.Ceil(n, ws.w) * ws.w
	ws.padded = matrix.PadInto(ws.padded, a, pn, pn)
	for i := n; i < pn; i++ {
		ws.padded.Set(i, i, 1)
	}
	ws.dp = matrix.ReuseVec(ws.dp, pn)
	copy(ws.dp, d)
	clear(ws.dp[n:])
	xp, stats, err := ws.Solve(ws.padded, ws.dp, opts)
	if err != nil {
		return nil, nil, err
	}
	ws.xout = matrix.ReuseVec(ws.xout, n)
	copy(ws.xout, xp[:n])
	stats.Residual = residual(a, ws.xout, d)
	return ws.xout, stats, nil
}
