// Package trisolve implements the band triangular-system systolic array
// (Kung & Leiserson's linear solver array, the third array of the family
// the paper builds on) and, on top of it, the size-independent dense
// triangular solver the paper's conclusions claim (§4: "Triangular systems
// of linear and matrix equations"; details were in the authors' report /8/,
// not publicly available — DESIGN.md §4 records this substitution).
//
// The array solves L·x = b for a lower triangular band matrix of bandwidth
// w on w PEs. PE 0 divides; PEs 1..w−1 multiply–accumulate. Partial sums
// y_i enter at PE w−1 at cycle 2i and move left one PE per cycle,
// collecting L[i][i−d]·x_{i−d} at PE d; when y_i reaches PE 0 at cycle
// 2i+w−1 the divider emits x_i = (b_i − y_i)/L[i][i], which immediately
// joins the x stream moving right — the self-feeding recurrence of the
// systolic solver. Total steps: T = 2n + w − 2; PE duty approaches ½.
//
// The blocked dense solver (Workspace) partitions an arbitrary dense lower
// triangular system into w-wide block rows: each diagonal block is itself
// a lower triangular band of bandwidth w and runs directly on this array,
// while the off-diagonal (dense rectangular) work runs as DBT
// matrix–vector passes on the multiplication array — so every arithmetic
// operation happens inside a fixed-size systolic array. Upper triangular
// systems mirror onto the lower solver.
//
// Like the matrix-product workloads, every solve runs on either of two
// engines that agree bit for bit: SolveBand is the cycle-accurate
// structural oracle, and SolveBandEngine and the Workspace solves select
// the compiled-schedule fast path (schedule.TriSolve: shape-cached plan,
// packed band, O(n·w) replay) through the core.Engine mechanism.
package trisolve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/systolic"
)

// Array is the w-PE band triangular solver.
type Array struct {
	W int
	// RecordTrace enables boundary event recording on SolveBand (parity
	// with the linear and hexagonal arrays): PortYIn marks the zero partial
	// sum injected at PE w−1 at cycle 2i, PortA a band coefficient
	// L[i][i−d] consumed at PE d (Index = i·w + d), PortYOut the solution
	// x_i emitted by the divider at cycle 2i+w−1, and PortX its re-entry
	// into the x stream one cycle later (the self-feeding recurrence).
	// Traces are only observable structurally, so RecordTrace restricts
	// SolveBandEngine to the oracle.
	RecordTrace bool
}

// New returns a triangular solver array with w PEs.
func New(w int) *Array {
	if w < 1 {
		panic(fmt.Sprintf("trisolve: invalid array size %d", w))
	}
	return &Array{W: w}
}

// Result reports one band solve.
type Result struct {
	X matrix.Vector
	// T is the measured step count (availability of the last x).
	T int
	// Activity counts MACs on PEs 1..w−1 and divisions on PE 0.
	Activity *systolic.Activity
	// Divisions is the division count of PE 0 (= n).
	Divisions int
	// Trace is the boundary trace when Array.RecordTrace is set, else nil.
	Trace *systolic.Trace
}

type triItem struct {
	live bool
	idx  int
	val  float64
}

// validateBand panics unless L is a square lower band of width ≤ w with a
// right-sized b — the structural preconditions shared by both engines.
func validateBand(l *matrix.Band, b matrix.Vector, w int) {
	n := l.Rows()
	if l.Cols() != n {
		panic(fmt.Sprintf("trisolve: matrix is %d×%d, want square", n, l.Cols()))
	}
	if l.Hi() > 0 || l.Lo() < -(w-1) {
		panic(fmt.Sprintf("trisolve: band [%d,%d] does not fit a lower band of width %d", l.Lo(), l.Hi(), w))
	}
	if len(b) != n {
		panic(fmt.Sprintf("trisolve: len(b)=%d, want %d", len(b), n))
	}
}

// SolveBandEngine solves L·x = b on the selected execution engine: the
// cycle-accurate structural oracle (SolveBand) or the compiled-schedule
// fast path (shape-cached plan, packed band, O(n·w) replay). Both engines
// return bit-identical results and statistics; the cross-engine tests
// enforce this. The only error is an unsatisfiable engine request.
func (ar *Array) SolveBandEngine(l *matrix.Band, b matrix.Vector, eng core.Engine) (*Result, error) {
	useCompiled, err := eng.Resolve(ar.RecordTrace)
	if err != nil {
		return nil, err
	}
	if !useCompiled {
		return ar.SolveBand(l, b), nil
	}
	return ar.solveBandCompiled(l, b), nil
}

// solveBandCompiled runs the band solve on the compiled-schedule engine.
func (ar *Array) solveBandCompiled(l *matrix.Band, b matrix.Vector) *Result {
	w := ar.W
	validateBand(l, b, w)
	n := l.Rows()
	res := &Result{X: make(matrix.Vector, n)}
	sch := schedule.TriSolveFor(n, w)
	res.Activity = sch.Activity()
	res.T = sch.T
	res.Divisions = sch.Divisions
	if n == 0 {
		return res
	}
	scratch := core.GetArena()
	defer core.PutArena(scratch)
	lband := scratch.Floats(n * w)
	dbt.PackTriBand(l, w, lband)
	sch.Exec(lband, b, res.X)
	return res
}

// SolveBand solves L·x = b for a lower triangular band matrix (diagonals
// −(w−1)..0, nonzero diagonal) cycle-accurately on the structural oracle.
// It panics if L is not square, not of bandwidth ≤ w, or has a zero
// diagonal entry. Use SolveBandEngine to select the compiled engine.
func (ar *Array) SolveBand(l *matrix.Band, b matrix.Vector) *Result {
	w := ar.W
	validateBand(l, b, w)
	n := l.Rows()
	res := &Result{
		X:        make(matrix.Vector, n),
		Activity: systolic.NewActivity(w),
	}
	if ar.RecordTrace {
		res.Trace = &systolic.Trace{}
	}
	if n == 0 {
		return res
	}

	xregs := make([]triItem, w) // x moves right: PE k → k+1
	yregs := make([]triItem, w) // y moves left: PE k → k−1
	maxT := 2*(n-1) + w - 1
	for t := 0; t <= maxT; t++ {
		// Inject y_i (initial 0) at PE w−1 at cycle 2i. With w = 1 the
		// injection and division happen at the same PE in the same cycle.
		if t%2 == 0 {
			if i := t / 2; i < n {
				if yregs[w-1].live {
					panic(fmt.Sprintf("trisolve: y collision at cycle %d", t))
				}
				yregs[w-1] = triItem{live: true, idx: i}
				res.Trace.Record(systolic.Event{Cycle: t, Port: systolic.PortYIn, Index: i})
			}
		}

		// PEs w−1..1: MAC with the coefficient of diagonal d = PE index.
		for k := 1; k < w; k++ {
			if !yregs[k].live || !xregs[k].live {
				continue
			}
			i := yregs[k].idx
			j := xregs[k].idx
			if i-j != k {
				panic(fmt.Sprintf("trisolve: misaligned meeting at PE %d cycle %d: y%d x%d", k, t, i, j))
			}
			v := l.At(i, j)
			yregs[k].val += v * xregs[k].val
			res.Activity.MACs[k]++
			res.Trace.Record(systolic.Event{Cycle: t, Port: systolic.PortA, Index: i*w + k, Value: v})
		}
		// PE 0: division. x_i = (b_i − y_i)/L[i][i], emitted into the x
		// stream and recorded as output.
		var emitted triItem
		if yregs[0].live {
			i := yregs[0].idx
			d := l.At(i, i)
			if d == 0 {
				panic(fmt.Sprintf("trisolve: zero diagonal at row %d", i))
			}
			x := (b[i] - yregs[0].val) / d
			res.X[i] = x
			res.Divisions++
			res.Activity.MACs[0]++ // count the division as PE 0 work
			res.Trace.Record(systolic.Event{Cycle: t, Port: systolic.PortA, Index: i * w, Value: d})
			res.Trace.Record(systolic.Event{Cycle: t, Port: systolic.PortYOut, Index: i, Value: x})
			emitted = triItem{live: true, idx: i, val: x}
		}

		// Shift: y left, x right; the divider output enters the x stream.
		for k := 0; k+1 < w; k++ {
			yregs[k] = yregs[k+1]
		}
		yregs[w-1] = triItem{}
		for k := w - 1; k >= 1; k-- {
			xregs[k] = xregs[k-1]
		}
		xregs[0] = triItem{}
		if emitted.live {
			if w == 1 {
				// Degenerate array: pure sequential division, no x stream.
				continue
			}
			xregs[1] = emitted
			res.Trace.Record(systolic.Event{Cycle: t + 1, Port: systolic.PortX, Index: emitted.idx, Value: emitted.val})
		}
	}
	res.T = maxT + 1
	res.Activity.Cycles = res.T
	return res
}
