package trisolve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/matrix"
)

// Workspace is the steady-state entry point of the dense triangular
// solver: a reusable scratch set (rhs, packed diagonal bands, mirrors, a
// plan memo) on one pass arena. Its solves write into
// caller-provided buffers and allocate nothing once warmed on the compiled
// engine.
//
// A Workspace solve is *right-looking*: after block row rb's diagonal
// solve on the triangular array, every later block row jb > rb subtracts
// its panel product L[jb, rb]·x[rb] — one matrix–vector pass per block
// row, in row order. The pass set is the same on both engines, so results
// and statistics are bit-identical across them.
//
// A Workspace belongs to one goroutine; results written into caller
// buffers are the caller's, everything else is reused by the next call.
type Workspace struct {
	w   int
	ar  *core.Arena
	tri *Array

	rhs    matrix.Vector
	lpack  []float64
	mirror *matrix.Dense
	revb   matrix.Vector
	xrev   matrix.Vector
}

// PassStats counts the array work of one workspace solve, split by array
// (the triangular solver array vs the matvec array running the panels).
type PassStats struct {
	// TriSteps and TriPasses account the diagonal-block band solves.
	TriSteps, TriPasses int
	// MatVecSteps and MatVecPasses account the off-diagonal panel updates.
	MatVecSteps, MatVecPasses int
}

// NewWorkspace returns a workspace for array size w with a private arena:
// every pass runs on the caller's goroutine.
func NewWorkspace(w int) *Workspace { return NewWorkspaceArena(w, core.NewArena()) }

// NewWorkspaceArena returns a workspace replaying its compiled
// plans and drawing its pass scratch through the caller's arena instead of
// a private one, so the workspace shares the arena's PlanMemo (a stream
// shard keeps its solve workspaces warm on the same memo its pass jobs
// use). The arena is shared, not owned; the workspace inherits its
// goroutine-ownership contract and may Reset it freely between passes, so
// nothing else drawn from the arena may be live across a workspace call.
func NewWorkspaceArena(w int, ar *core.Arena) *Workspace {
	if w < 1 {
		panic(fmt.Sprintf("trisolve: invalid array size %d", w))
	}
	return &Workspace{w: w, ar: ar, tri: New(w)}
}

// SolveBandInto solves the band system L·x = b into dst (len = n) on the
// selected engine and returns the measured step count. It is the
// zero-steady-state-allocation counterpart of Array.SolveBandEngine (which
// see for the validation panics).
func (tw *Workspace) SolveBandInto(dst matrix.Vector, l *matrix.Band, b matrix.Vector, eng core.Engine) (int, error) {
	validateBand(l, b, tw.w)
	n := l.Rows()
	if len(dst) != n {
		panic(fmt.Sprintf("trisolve: SolveBandInto dst len %d, want %d", len(dst), n))
	}
	useCompiled, err := eng.Resolve(false)
	if err != nil {
		return 0, err
	}
	if !useCompiled {
		res := tw.tri.SolveBand(l, b)
		copy(dst, res.X)
		return res.T, nil
	}
	sch := tw.ar.Plans().TriSolveFor(n, tw.w)
	if n > 0 {
		tw.lpack = matrix.ReuseVec(tw.lpack, n*tw.w)
		dbt.PackTriBand(l, tw.w, tw.lpack)
		sch.Exec(tw.lpack, b, dst)
	}
	return sch.T, nil
}

// SolveLowerInto solves L·x = b for a dense lower triangular L into dst
// (len = n) with every arithmetic operation inside a fixed-size array,
// right-looking: one panel pass per later block row after each diagonal
// block. Stats are returned by value;
// dst must not alias b.
func (tw *Workspace) SolveLowerInto(dst matrix.Vector, l *matrix.Dense, b matrix.Vector, eng core.Engine) (PassStats, error) {
	var stats PassStats
	n := l.Rows()
	if l.Cols() != n {
		return stats, fmt.Errorf("trisolve: matrix is %d×%d, want square", n, l.Cols())
	}
	if len(b) != n {
		return stats, fmt.Errorf("trisolve: len(b)=%d, want %d", len(b), n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("trisolve: SolveLowerInto dst len %d, want %d", len(dst), n))
	}
	for i := 0; i < n; i++ {
		li := l.RawRow(i)
		if li[i] == 0 {
			return stats, &SingularError{Op: "trisolve.SolveLowerInto", Index: i}
		}
		for j, v := range li[i+1:] {
			if v != 0 {
				return stats, fmt.Errorf("trisolve: L[%d][%d] ≠ 0: not lower triangular", i, i+1+j)
			}
		}
	}
	w := tw.w
	tw.rhs = matrix.ReuseVec(tw.rhs, n)
	copy(tw.rhs, b)
	nb := (n + w - 1) / w
	for rb := 0; rb < nb; rb++ {
		lo, hi := rb*w, (rb+1)*w
		if hi > n {
			hi = n
		}
		// Diagonal block on the triangular array.
		steps, err := tw.solveDiagonal(dst, l, lo, hi, eng)
		if err != nil {
			return stats, err
		}
		stats.TriSteps += steps
		stats.TriPasses++
		// Trailing panel updates of this step: block row jb subtracts
		// L[jb, rb]·x[rb] from its rhs block.
		for jlo := hi; jlo < n; jlo += w {
			steps, err := tw.updatePanel(l, dst, lo, hi, jlo, min(jlo+w, n), eng)
			if err != nil {
				return stats, err
			}
			stats.MatVecSteps += steps
			stats.MatVecPasses++
		}
	}
	return stats, nil
}

// solveDiagonal runs the diagonal block [lo,hi) on the triangular array,
// reading rhs and writing dst[lo:hi].
func (tw *Workspace) solveDiagonal(dst matrix.Vector, l *matrix.Dense, lo, hi int, eng core.Engine) (int, error) {
	w := tw.w
	useCompiled, err := eng.Resolve(false)
	if err != nil {
		return 0, err
	}
	d := hi - lo
	if !useCompiled {
		// A dense w×w lower triangle is exactly a lower band of bandwidth w
		// in local indices (oracle path; allocation here is fine).
		blk := matrix.NewBand(d, d, -(w - 1), 0)
		for i := lo; i < hi; i++ {
			for j := lo; j <= i; j++ {
				if v := l.At(i, j); v != 0 || i == j {
					blk.Set(i-lo, j-lo, v)
				}
			}
		}
		res := tw.tri.SolveBand(blk, tw.rhs[lo:hi])
		copy(dst[lo:hi], res.X)
		return res.T, nil
	}
	// Compiled: pack the triangular band straight from the dense block
	// (dbt.PackTriBand layout) and replay the plan into dst.
	tw.lpack = matrix.ReuseVec(tw.lpack, d*w)
	for r := 0; r < d; r++ {
		row, lr := tw.lpack[r*w:(r+1)*w], l.RawRow(lo + r)[:lo+r+1]
		for k := range row {
			if r-k >= 0 {
				row[k] = lr[lo+r-k]
			} else {
				row[k] = 0
			}
		}
	}
	sch := tw.ar.Plans().TriSolveFor(d, w)
	sch.Exec(tw.lpack, tw.rhs[lo:hi], dst[lo:hi])
	return sch.T, nil
}

// updatePanel is one panel pass, rhs[jlo:jhi] −= L[jlo:jhi, lo:hi]·x[lo:hi],
// on the workspace's arena. It returns the pass's step count.
func (tw *Workspace) updatePanel(l *matrix.Dense, x matrix.Vector, lo, hi, jlo, jhi int, eng core.Engine) (int, error) {
	ar := tw.ar
	ar.Reset()
	panel := matrix.SliceInto(ar.Dense(jhi-jlo, hi-lo), l, jlo, jhi, lo, hi)
	mv := matrix.Vector(ar.Floats(jhi - jlo))
	steps, err := ar.MatVecPass(mv, panel, x[lo:hi], nil, tw.w, eng)
	if err != nil {
		return 0, err
	}
	rhs := tw.rhs[jlo:jhi]
	for i, v := range mv {
		rhs[i] -= v
	}
	return steps, nil
}

// SolveUpperInto solves U·x = b for a dense upper triangular U into dst by
// mirroring it onto the lower solver: row and column order reversed, U
// becomes lower triangular. dst must not alias b.
func (tw *Workspace) SolveUpperInto(dst matrix.Vector, u *matrix.Dense, b matrix.Vector, eng core.Engine) (PassStats, error) {
	n := u.Rows()
	if u.Cols() != n {
		return PassStats{}, fmt.Errorf("trisolve: matrix is %d×%d, want square", n, u.Cols())
	}
	if len(b) != n {
		return PassStats{}, fmt.Errorf("trisolve: len(b)=%d, want %d", len(b), n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("trisolve: SolveUpperInto dst len %d, want %d", len(dst), n))
	}
	tw.mirror = matrix.Reuse(tw.mirror, n, n)
	for i := 0; i < n; i++ {
		mi, ui := tw.mirror.RawRow(i), u.RawRow(n-1-i)
		for j := range mi {
			mi[j] = ui[n-1-j]
		}
	}
	tw.revb = matrix.ReuseVec(tw.revb, n)
	for i := range tw.revb {
		tw.revb[i] = b[n-1-i]
	}
	tw.xrev = matrix.ReuseVec(tw.xrev, n)
	stats, err := tw.SolveLowerInto(tw.xrev, tw.mirror, tw.revb, eng)
	if err != nil {
		return stats, err
	}
	for i := range dst {
		dst[i] = tw.xrev[n-1-i]
	}
	return stats, nil
}

// SolveMatrixLower solves L·X = B for a dense lower triangular L and a
// dense right-hand-side matrix B (the "triangular systems of matrix
// equations" of §4), one SolveLowerInto per column of B. X is the
// caller's; the stats sum over the columns.
func (tw *Workspace) SolveMatrixLower(l, b *matrix.Dense, eng core.Engine) (*matrix.Dense, PassStats, error) {
	var total PassStats
	n := b.Rows()
	if l.Rows() != n {
		return nil, total, fmt.Errorf("trisolve: L is %d×%d but B has %d rows", l.Rows(), l.Cols(), n)
	}
	x := matrix.NewDense(n, b.Cols())
	col, xc := make(matrix.Vector, n), make(matrix.Vector, n)
	for c := 0; c < b.Cols(); c++ {
		for i := range col {
			col[i] = b.At(i, c)
		}
		st, err := tw.SolveLowerInto(xc, l, col, eng)
		if err != nil {
			return nil, total, err
		}
		total.TriSteps += st.TriSteps
		total.TriPasses += st.TriPasses
		total.MatVecSteps += st.MatVecSteps
		total.MatVecPasses += st.MatVecPasses
		for i, v := range xc {
			x.Set(i, c, v)
		}
	}
	return x, total, nil
}
