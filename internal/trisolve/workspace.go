package trisolve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// Workspace is the steady-state entry point of the dense triangular
// solver: a reusable scratch set (rhs and solution vectors, the packed
// diagonal band, one w×w panel replay grid) on one pass arena whose plan
// memo it replays. Its solves read the triangle where it lies — an upper
// triangle is mirrored onto the lower solver block by block, never copied
// whole — write into caller-provided buffers and allocate nothing once
// warmed on the compiled engine.
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

	rhs, y, xrev matrix.Vector
	lpack        []float64
	// panelT is the shape-only (w, 1, 1) transform that keys the panel
	// plan; grid holds that plan's replay operands: the w×w panel, then
	// the padded x, the zero b̄ and ȳ, w each. It is grown on the first
	// panel pass, so a workspace that never sees n > w never holds it.
	panelT dbt.MatVec
	grid   []float64
}

// PassStats counts the array work of one workspace solve, split by array
// (the triangular solver array vs the matvec array running the panels).
type PassStats struct {
	// TriSteps and TriPasses account the diagonal-block band solves.
	TriSteps, TriPasses int
	// MatVecSteps and MatVecPasses account the off-diagonal panel updates.
	MatVecSteps, MatVecPasses int
}

// add accumulates o into s.
func (s *PassStats) add(o PassStats) {
	s.TriSteps += o.TriSteps
	s.TriPasses += o.TriPasses
	s.MatVecSteps += o.MatVecSteps
	s.MatVecPasses += o.MatVecPasses
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
	return &Workspace{w: w, ar: ar, tri: New(w), panelT: dbt.MatVec{W: w, NBar: 1, MBar: 1, N: w, M: w}}
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
	f := factor{a: l}
	if err := tw.check(dst, f, b, "SolveLowerInto"); err != nil {
		return PassStats{}, err
	}
	if err := f.validate(); err != nil {
		return PassStats{}, err
	}
	tw.rhs = matrix.ReuseVec(tw.rhs, len(b))
	copy(tw.rhs, b)
	return tw.solve(dst, f, eng)
}

// SolveUpperInto solves U·x = b for a dense upper triangular U into dst by
// mirroring it onto the lower solver: row and column order reversed, U
// reads as a lower triangular matrix. The mirror is never materialized —
// each pass stages its block of U reversed — and a defect is reported in
// U's own coordinates. dst must not alias b.
func (tw *Workspace) SolveUpperInto(dst matrix.Vector, u *matrix.Dense, b matrix.Vector, eng core.Engine) (PassStats, error) {
	f := factor{a: u, upper: true}
	if err := tw.check(dst, f, b, "SolveUpperInto"); err != nil {
		return PassStats{}, err
	}
	if err := f.validate(); err != nil {
		return PassStats{}, err
	}
	return tw.solveUpper(dst, f, b, eng)
}

// SolveLUInto solves L·U·x = b into dst for a factor packed in one matrix,
// LAPACK getrf layout without the permutation: the strict lower triangle
// of lu holds L's multipliers under an implicit unit diagonal, the upper
// triangle U. The forward and backward phases are exactly SolveLowerInto
// on L and SolveUpperInto on U — the same passes, bits and stats (summed
// over both phases), and a zero U pivot is the same *SingularError — but
// neither triangle is unpacked and only U's diagonal is checked. dst must
// not alias b.
func (tw *Workspace) SolveLUInto(dst matrix.Vector, lu *matrix.Dense, b matrix.Vector, eng core.Engine) (PassStats, error) {
	lower := factor{a: lu, unit: true}
	if err := tw.check(dst, lower, b, "SolveLUInto"); err != nil {
		return PassStats{}, err
	}
	n := len(b)
	tw.rhs = matrix.ReuseVec(tw.rhs, n)
	copy(tw.rhs, b)
	tw.y = matrix.ReuseVec(tw.y, n)
	fw, err := tw.solve(tw.y, lower, eng)
	if err != nil {
		return fw, err
	}
	upper := factor{a: lu, upper: true}
	for i := 0; i < n; i++ {
		if upper.at(i, i) == 0 {
			return PassStats{}, upper.singular(i)
		}
	}
	bw, err := tw.solveUpper(dst, upper, tw.y, eng)
	if err != nil {
		return bw, err
	}
	fw.add(bw)
	return fw, nil
}

// check validates the shapes of a dense solve's operands.
func (tw *Workspace) check(dst matrix.Vector, f factor, b matrix.Vector, op string) error {
	n := f.a.Rows()
	if f.a.Cols() != n {
		return fmt.Errorf("trisolve: matrix is %d×%d, want square", n, f.a.Cols())
	}
	if len(b) != n {
		return fmt.Errorf("trisolve: len(b)=%d, want %d", len(b), n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("trisolve: %s dst len %d, want %d", op, len(dst), n))
	}
	return nil
}

// solveUpper runs the mirrored solve of the upper factor f: b reversed
// into the rhs, the lower solve, and its solution reversed into dst.
func (tw *Workspace) solveUpper(dst matrix.Vector, f factor, b matrix.Vector, eng core.Engine) (PassStats, error) {
	n := len(b)
	tw.rhs = matrix.ReuseVec(tw.rhs, n)
	for i := range tw.rhs {
		tw.rhs[i] = b[n-1-i]
	}
	tw.xrev = matrix.ReuseVec(tw.xrev, n)
	stats, err := tw.solve(tw.xrev, f, eng)
	if err != nil {
		return stats, err
	}
	for i := range dst {
		dst[i] = tw.xrev[n-1-i]
	}
	return stats, nil
}

// solve is the right-looking loop every dense solve shares: the lower
// triangular system f·x = rhs (the workspace's rhs, consumed) into x.
func (tw *Workspace) solve(x matrix.Vector, f factor, eng core.Engine) (PassStats, error) {
	var stats PassStats
	n := f.a.Rows()
	if n == 0 {
		return stats, nil
	}
	useCompiled, err := eng.Resolve(false)
	if err != nil {
		return stats, err
	}
	w := tw.w
	var panel *schedule.MatVec
	if useCompiled && n > w {
		// Every panel is at most w×w: one (w, 1, 1) plan serves them all.
		if panel, err = tw.ar.Plans().MatVecFor(&tw.panelT, false); err != nil {
			return stats, err
		}
		if tw.grid == nil {
			tw.grid = make([]float64, w*w+3*w)
		}
	}
	for lo := 0; lo < n; lo += w {
		hi := min(lo+w, n)
		// Diagonal block on the triangular array.
		stats.TriSteps += tw.solveDiagonal(x, f, lo, hi, useCompiled)
		stats.TriPasses++
		// Trailing panel updates of this step: block row [jlo, jhi)
		// subtracts f[jlo:jhi, lo:hi]·x[lo:hi] from its rhs block.
		for jlo := hi; jlo < n; jlo += w {
			steps, err := tw.updatePanel(panel, f, x, lo, hi, jlo, min(jlo+w, n))
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
// reading rhs and writing x[lo:hi], and returns the pass's step count.
func (tw *Workspace) solveDiagonal(x matrix.Vector, f factor, lo, hi int, useCompiled bool) int {
	w, d := tw.w, hi-lo
	// The triangular band straight from the dense block, in the
	// dbt.PackTriBand layout the compiled plan replays.
	tw.lpack = matrix.ReuseVec(tw.lpack, d*w)
	f.packDiagonal(tw.lpack, w, lo, d)
	if !useCompiled {
		// A dense w×w lower triangle is exactly a lower band of bandwidth w
		// in local indices (oracle path; allocation here is fine).
		blk := matrix.NewBand(d, d, -(w - 1), 0)
		for r := 0; r < d; r++ {
			for k := 0; k <= min(r, w-1); k++ {
				if v := tw.lpack[r*w+k]; v != 0 || k == 0 {
					blk.Set(r, r-k, v)
				}
			}
		}
		res := tw.tri.SolveBand(blk, tw.rhs[lo:hi])
		copy(x[lo:hi], res.X)
		return res.T
	}
	sch := tw.ar.Plans().TriSolveFor(d, w)
	sch.Exec(tw.lpack, tw.rhs[lo:hi], x[lo:hi])
	return sch.T
}

// updatePanel is one panel pass, rhs[jlo:jhi] −= f[jlo:jhi, lo:hi]·x[lo:hi],
// and returns its step count. Compiled (sch non-nil), the block is staged
// zero-padded into the workspace's w×w replay grid and the (w, 1, 1)
// matvec plan replayed over it, exactly as a matvec pass on the copied-out
// panel would pad and replay it; on the oracle, the block is copied out
// into arena scratch and run as one structural matvec pass.
func (tw *Workspace) updatePanel(sch *schedule.MatVec, f factor, x matrix.Vector, lo, hi, jlo, jhi int) (int, error) {
	w, rows, cols := tw.w, jhi-jlo, hi-lo
	var y []float64
	steps := 0
	if sch != nil {
		grid, xp, bp := tw.grid[:w*w], tw.grid[w*w:w*w+w], tw.grid[w*w+w:w*w+2*w]
		y = tw.grid[w*w+2*w:]
		f.stage(grid, w, jlo, rows, lo, cols)
		copy(xp, x[lo:hi])
		clear(xp[cols:])
		// bp is never written: b̄ stays zero, as for a pass with b = nil.
		sch.ExecGrid(grid, xp, bp, y)
		steps = sch.T
	} else {
		tw.ar.Reset()
		panel := tw.ar.Dense(rows, cols)
		f.stage(panel.Raw(), cols, jlo, rows, lo, cols)
		y = tw.ar.Floats(rows)
		var err error
		if steps, err = tw.ar.MatVecPass(y, panel, x[lo:hi], nil, w, core.EngineOracle); err != nil {
			return 0, err
		}
	}
	rhs := tw.rhs[jlo:jhi]
	for i, v := range y[:rows] {
		rhs[i] -= v
	}
	return steps, nil
}

// factor is the lower triangular matrix a dense solve reads, in place:
// the lower triangle of a, or (upper) a's upper triangle with row and
// column order reversed — U mirrored onto a lower triangular matrix. unit
// makes the diagonal an implicit 1, as for the L of a packed LU factor,
// whose strict upper triangle (U) a solve then never reads.
type factor struct {
	a           *matrix.Dense
	upper, unit bool
}

// at reads element (i, j) of f.
func (f factor) at(i, j int) float64 {
	if f.upper {
		n := f.a.Rows()
		return f.a.RawRow(n - 1 - i)[n-1-j]
	}
	if f.unit && i == j {
		return 1
	}
	return f.a.RawRow(i)[j]
}

// validate returns f's first defect in the order the solve meets them: a
// zero diagonal (*SingularError) or a nonzero off the triangle, both in
// a's coordinates.
func (f factor) validate() error {
	n := f.a.Rows()
	for i := 0; i < n; i++ {
		if f.at(i, i) == 0 {
			return f.singular(i)
		}
		for j := i + 1; j < n; j++ {
			if f.at(i, j) == 0 {
				continue
			}
			if f.upper {
				return fmt.Errorf("trisolve: U[%d][%d] ≠ 0: not upper triangular", n-1-i, n-1-j)
			}
			return fmt.Errorf("trisolve: L[%d][%d] ≠ 0: not lower triangular", i, j)
		}
	}
	return nil
}

// singular returns the error for a zero at f's diagonal i, naming the
// phase that met it and the pivot's index in a: a mirrored U's row i is
// a's row n−1−i.
func (f factor) singular(i int) error {
	if f.upper {
		return &SingularError{Op: "trisolve.SolveUpperInto", Index: f.a.Rows() - 1 - i}
	}
	return &SingularError{Op: "trisolve.SolveLowerInto", Index: i}
}

// stage writes the rows×cols block of f at (r0, c0) into g, a row-major
// grid of ld ≥ cols columns, and zeroes the rest of g.
func (f factor) stage(g []float64, ld, r0, rows, c0, cols int) {
	n := f.a.Rows()
	for i := 0; i < rows; i++ {
		row := g[i*ld : (i+1)*ld]
		if f.upper {
			src := f.a.RawRow(n - 1 - r0 - i)[n-c0-cols : n-c0]
			for j := range src {
				row[j] = src[cols-1-j]
			}
		} else {
			copy(row, f.a.RawRow(r0 + i)[c0:c0+cols])
		}
		clear(row[cols:])
	}
	clear(g[rows*ld:])
}

// packDiagonal writes the d×d diagonal block of f at lo into g in the
// dbt.PackTriBand layout: g[r·w+k] = f(lo+r, lo+r−k), zero where k > r.
func (f factor) packDiagonal(g []float64, w, lo, d int) {
	n := f.a.Rows()
	for r := 0; r < d; r++ {
		row, m := g[r*w:(r+1)*w], min(r+1, w)
		if f.upper {
			c := n - 1 - lo - r
			copy(row, f.a.RawRow(c)[c:c+m])
		} else {
			lr := f.a.RawRow(lo + r)
			for k := range row[:m] {
				row[k] = lr[lo+r-k]
			}
			if f.unit {
				row[0] = 1
			}
		}
		clear(row[m:])
	}
}
