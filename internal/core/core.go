// Package core is the public API of the reproduction: size-independent
// dense matrix problems executed on fixed-size systolic arrays via the
// paper's DBT transformations.
//
// A MatVecSolver owns a linear contraflow array of w PEs and computes
// y = A·x + b for dense A of any shape; a MatMulSolver owns a w×w hexagonal
// array with spiral feedback and computes C = A·B + E. Both return the
// numeric result together with measured run statistics (step count T, PE
// utilization η, feedback delays) that the benchmark harness compares with
// the paper's closed forms.
package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/dbt"
	"repro/internal/linear"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/systolic"
)

// MatVecOptions configure a matrix–vector run.
type MatVecOptions struct {
	// Overlap splits the transformed problem into two sub-problems at a row
	// band boundary and interleaves them one cycle apart (paper §2,
	// "partitioning the transformed problem into two disjoint sub-problems",
	// the dotted line of Fig. 2b). Requires n̄ ≥ 2.
	Overlap bool
	// LowerBand uses the lower-band form of the transformation (paper §2:
	// "A lower band transformed matrix could be considered in a similar
	// way", Āij = 0 for i < j), realized by mirroring the problem: the
	// reversed-row/reversed-column matrix runs through DBT-by-rows and the
	// result is un-mirrored. T, utilization and feedback behaviour are
	// identical to the upper-band form.
	LowerBand bool
	// ByColumns uses the column-major DBT variant (§4's "other related
	// types of transformations"): simpler x̄ generation (each x block
	// streamed n̄ times consecutively) at the cost of a feedback delay of
	// (2n̄−1)·w instead of the constant w. Incompatible with Overlap (the
	// column-major chains span the whole band).
	ByColumns bool
	// Trace records the boundary data flow (Fig. 3). Requires the
	// structural engine.
	Trace bool
	// Engine selects the execution engine (default EngineAuto: compiled
	// fast path unless Trace is set).
	Engine Engine
}

// MatVecStats reports measured quantities of a run.
type MatVecStats struct {
	// W is the array size, NBar and MBar the block grid.
	W, NBar, MBar int
	// T is the measured step count; PredictedT the paper's formula.
	T, PredictedT int
	// Utilization is measured η = MACs/(w·T); PredictedUtilization the
	// paper's closed form.
	Utilization, PredictedUtilization float64
	// MACs is the total multiply–accumulate count (n̄m̄w²).
	MACs int
	// FeedbackDelays lists the measured delay of every feedback edge; the
	// paper requires all of them to equal w.
	FeedbackDelays []int
	// GroupedUtilization is η with every two adjacent PEs sharing one
	// physical unit (paper §2, "grouping every 2 PEs in 1"); valid when
	// GroupableConflicts is zero (always true without Overlap).
	GroupedUtilization float64
	// GroupableConflicts counts cycles where grouping would have collided.
	GroupableConflicts int
	// Trace is the boundary trace when requested.
	Trace *systolic.Trace
}

// MatVecResult is the outcome of MatVecSolver.Solve.
type MatVecResult struct {
	Y     matrix.Vector
	Stats MatVecStats
}

// MatVecSolver computes y = A·x + b on a fixed linear array of w PEs.
type MatVecSolver struct {
	w int
}

// NewMatVecSolver returns a solver for a linear array with w PEs.
func NewMatVecSolver(w int) *MatVecSolver {
	if w < 1 {
		panic(fmt.Sprintf("core: invalid array size %d", w))
	}
	return &MatVecSolver{w: w}
}

// Solve computes y = A·x + b (b may be nil) by transforming the problem with
// DBT-by-rows and running it on the simulated array.
func (s *MatVecSolver) Solve(a *matrix.Dense, x, b matrix.Vector, opts MatVecOptions) (*MatVecResult, error) {
	if len(x) != a.Cols() {
		return nil, fmt.Errorf("core: len(x)=%d, want %d", len(x), a.Cols())
	}
	if b != nil && len(b) != a.Rows() {
		return nil, fmt.Errorf("core: len(b)=%d, want %d", len(b), a.Rows())
	}
	if opts.LowerBand {
		// Mirror the problem, solve it as an upper band, un-mirror y.
		opts.LowerBand = false
		res, err := s.Solve(reverseM(a), reverseV(x), reverseV(b), opts)
		if err != nil {
			return nil, err
		}
		res.Y = reverseV(res.Y)
		return res, nil
	}
	useCompiled, err := opts.Engine.Resolve(opts.Trace)
	if err != nil {
		return nil, err
	}
	var ar *Arena
	if useCompiled {
		ar = GetArena()
		defer PutArena(ar)
	}
	var t dbt.Transform
	if opts.ByColumns {
		if opts.Overlap {
			return nil, fmt.Errorf("core: ByColumns chains span the whole band and cannot be split for overlap")
		}
		t = dbt.NewMatVecByColumns(a, s.w)
	} else if useCompiled {
		// The transform is only needed while the compiled pass replays its
		// padded grid and recovers y, so the borrowed arena's retained
		// transform is rebuilt in place.
		ar.mvT.Reset(a, s.w)
		t = ar.mvT
	} else {
		t = dbt.NewMatVec(a, s.w)
	}
	_, nbar, mbar := t.Shape()
	if opts.Overlap && nbar < 2 {
		return nil, fmt.Errorf("core: overlap needs n̄ ≥ 2, have %d (use two independent problems instead)", nbar)
	}
	if useCompiled {
		// Validation is structural (shape-only); the schedule compiler runs
		// it once per shape and the cache remembers the clean bill.
		return s.solveCompiled(ar, t, x, b, opts, nbar, mbar)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	arr := linear.New(s.w)
	arr.RecordTrace = opts.Trace

	var progs []*linear.Program
	ranges := [][2]int{{0, t.Blocks()}}
	if opts.Overlap {
		h := schedule.OverlapSplit(nbar, mbar) // split at a row band boundary
		ranges = [][2]int{{0, h}, {h, t.Blocks()}}
	}
	xbar := t.TransformX(x)
	var bp matrix.Vector
	if b == nil {
		bp = matrix.NewVector(nbar * s.w)
	} else {
		bp = b.Pad(nbar * s.w)
	}
	for pi, r := range ranges {
		progs = append(progs, programForBlocks(t, xbar, bp, r[0], r[1], pi))
	}
	res := arr.Run(progs...)

	// Reassemble ȳ blocks in global order and recover y.
	ybars := make([]matrix.Vector, t.Blocks())
	for pi, r := range ranges {
		for k := r[0]; k < r[1]; k++ {
			blk := make(matrix.Vector, s.w)
			copy(blk, res.Y[pi][(k-r[0])*s.w:(k-r[0]+1)*s.w])
			ybars[k] = blk
		}
	}
	y := t.RecoverY(ybars)

	stats := MatVecStats{
		W: s.w, NBar: nbar, MBar: mbar,
		T:                  res.T,
		Utilization:        res.Activity.Utilization(),
		MACs:               res.Activity.Total(),
		GroupedUtilization: res.GroupedUtilization(),
		GroupableConflicts: res.GroupableConflicts,
		Trace:              res.Trace,
	}
	fillPredicted(&stats, s.w, nbar, mbar, opts.Overlap)
	for _, f := range res.Feedback {
		stats.FeedbackDelays = append(stats.FeedbackDelays, f.Delay())
	}
	return &MatVecResult{Y: y, Stats: stats}, nil
}

// solveCompiled executes the transformed problem on the compiled-schedule
// engine: shape-cached schedule, grid-direct replay over the padded
// matrix, O(MACs) execution with scratch drawn from ar. Results and
// statistics are bit-identical to the structural path.
func (s *MatVecSolver) solveCompiled(ar *Arena, t dbt.Transform, x, b matrix.Vector, opts MatVecOptions, nbar, mbar int) (*MatVecResult, error) {
	sch, err := schedule.MatVecFor(t, opts.Overlap)
	if err != nil {
		return nil, err
	}
	ybar := ar.matvecGrid(sch, t, x, b)

	// Recover y (copying, so the arena can go back to the pool).
	var y matrix.Vector
	if mv, ok := t.(*dbt.MatVec); ok {
		y = mv.RecoverYFlat(make(matrix.Vector, mv.N), ybar)
	} else {
		ybars := make([]matrix.Vector, t.Blocks())
		for k := range ybars {
			ybars[k] = matrix.Vector(ybar[k*s.w : (k+1)*s.w])
		}
		y = t.RecoverY(ybars)
	}

	stats := MatVecStats{
		W: s.w, NBar: nbar, MBar: mbar,
		T:                  sch.T,
		Utilization:        sch.Utilization(),
		MACs:               sch.MACs,
		GroupedUtilization: sch.GroupedUtilization(),
		GroupableConflicts: sch.GroupableConflicts,
	}
	fillPredicted(&stats, s.w, nbar, mbar, opts.Overlap)
	if len(sch.FeedbackDelays) > 0 {
		stats.FeedbackDelays = append([]int(nil), sch.FeedbackDelays...)
	}
	return &MatVecResult{Y: y, Stats: stats}, nil
}

// SolveMany runs several independent problems overlapped on the same array,
// each offset by one cycle (the paper's "overlapping the execution of
// several problems"). All problems must share the array size; at most two
// can be interleaved before slots collide.
func (s *MatVecSolver) SolveMany(as []*matrix.Dense, xs []matrix.Vector, bs []matrix.Vector) ([]matrix.Vector, *MatVecStats, error) {
	if len(as) == 0 || len(as) != len(xs) || len(as) > 2 {
		return nil, nil, fmt.Errorf("core: SolveMany takes 1 or 2 aligned problems, got %d", len(as))
	}
	arr := linear.New(s.w)
	var progs []*linear.Program
	var trs []*dbt.MatVec
	for i := range as {
		t := dbt.NewMatVec(as[i], s.w)
		trs = append(trs, t)
		var bp matrix.Vector
		if bs == nil || bs[i] == nil {
			bp = matrix.NewVector(t.NBar * s.w)
		} else {
			bp = bs[i].Pad(t.NBar * s.w)
		}
		progs = append(progs, programForBlocks(t, t.TransformX(xs[i]), bp, 0, t.Blocks(), i))
	}
	res := arr.Run(progs...)
	ys := make([]matrix.Vector, len(as))
	for i, t := range trs {
		ybars := make([]matrix.Vector, t.Blocks())
		for k := 0; k < t.Blocks(); k++ {
			blk := make(matrix.Vector, s.w)
			copy(blk, res.Y[i][k*s.w:(k+1)*s.w])
			ybars[k] = blk
		}
		ys[i] = t.RecoverY(ybars)
	}
	stats := &MatVecStats{
		W: s.w, T: res.T,
		Utilization: res.Activity.Utilization(),
		MACs:        res.Activity.Total(),
	}
	for _, f := range res.Feedback {
		stats.FeedbackDelays = append(stats.FeedbackDelays, f.Delay())
	}
	return ys, stats, nil
}

// fillPredicted sets the paper's closed-form predictions on stats — shared
// by both engines so their reported predictions can never diverge.
func fillPredicted(stats *MatVecStats, w, nbar, mbar int, overlap bool) {
	if overlap {
		stats.PredictedT = analysis.MatVecStepsOverlap(w, nbar, mbar)
		stats.PredictedUtilization = analysis.MatVecUtilizationOverlap(w, nbar, mbar)
	} else {
		stats.PredictedT = analysis.MatVecSteps(w, nbar, mbar)
		stats.PredictedUtilization = analysis.MatVecUtilization(w, nbar, mbar)
	}
}

// reverseM returns a with rows and columns reversed (the mirror J·A·J).
func reverseM(a *matrix.Dense) *matrix.Dense {
	out := matrix.NewDense(a.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			out.Set(i, j, a.At(a.Rows()-1-i, a.Cols()-1-j))
		}
	}
	return out
}

// reverseV returns v reversed; nil stays nil.
func reverseV(v matrix.Vector) matrix.Vector {
	if v == nil {
		return nil
	}
	out := make(matrix.Vector, len(v))
	for i := range v {
		out[i] = v[len(v)-1-i]
	}
	return out
}

// programForBlocks schedules band row blocks [k0, k1) of the transformed
// problem as one array program with injection offset = the program index.
// k0 must sit at a chain boundary so every feedback stays inside the range.
func programForBlocks(t dbt.Transform, xbar, bPadded matrix.Vector, k0, k1, offset int) *linear.Program {
	w, _, _ := t.Shape()
	if src := t.BSource(k0); src.Kind != dbt.FromB {
		panic(fmt.Sprintf("core: program split at block %d breaks a feedback chain", k0))
	}
	return &linear.Program{
		Rows:   (k1 - k0) * w,
		X:      xbar[k0*w : k1*w+w-1],
		Offset: offset,
		BandAt: func(i, j int) float64 { return t.BandAt(i+k0*w, j+k0*w) },
		YInit: func(i int) linear.YInit {
			k := k0 + i/w
			switch src := t.BSource(k); src.Kind {
			case dbt.FromB:
				return linear.YInit{Value: bPadded[src.Index*w+i%w]}
			default:
				// The producing block is src.Index; its rows sit (k −
				// src.Index) blocks earlier in this program's local space.
				return linear.YInit{Feedback: true, SrcRow: i - (k-src.Index)*w}
			}
		},
	}
}
