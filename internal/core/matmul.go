package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/blockpart"
	"repro/internal/dbt"
	"repro/internal/hex"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/systolic"
)

// MatMulOptions configure a matrix–matrix run.
type MatMulOptions struct {
	// E is the additive term of C = A·B + E; nil means zero.
	E *matrix.Dense
	// Trace records the c-stream boundary events. Requires the structural
	// engine.
	Trace bool
	// Engine selects the execution engine (default EngineAuto: compiled
	// fast path unless Trace is set).
	Engine Engine
}

// MatMulStats reports measured quantities of a hexagonal array run.
type MatMulStats struct {
	// W is the array size; NBar, PBar, MBar the block grid.
	W, NBar, PBar, MBar int
	// T is the measured step count; PredictedT the paper's
	// 3w·p̄n̄m̄ + 4w − 5.
	T, PredictedT int
	// Utilization is the paper's η = p̄n̄m̄w³/(w²·T) (useful MACs over
	// array-steps); PredictedUtilization its closed form. MeasuredMACs
	// additionally counts the boundary/tail operations the band framing
	// adds.
	Utilization, PredictedUtilization float64
	MeasuredMACs                      int
	// RegularDelays histograms the measured regular feedback delays as
	// sorted (delay, count) bins: the paper predicts w for the sub-diagonal
	// pairs and 2w for the auto-fed main diagonal.
	RegularDelays []schedule.DelayBin
	// IrregularDelays histograms the region-crossing feedback delays.
	IrregularDelays []schedule.DelayBin
	// Trace is the boundary trace when requested.
	Trace *systolic.Trace
}

// MatMulResult is the outcome of MatMulSolver.Solve.
type MatMulResult struct {
	C     *matrix.Dense
	Stats MatMulStats
}

// MatMulSolver computes C = A·B + E on a fixed w×w hexagonal array with
// spiral feedback.
type MatMulSolver struct {
	w int
}

// NewMatMulSolver returns a solver for a w×w hexagonal array.
func NewMatMulSolver(w int) *MatMulSolver {
	if w < 1 {
		panic(fmt.Sprintf("core: invalid array size %d", w))
	}
	return &MatMulSolver{w: w}
}

// Solve computes C = A·B + E by transforming the operands with DBT and
// running one pass of the hexagonal array with spiral feedback.
func (s *MatMulSolver) Solve(a, b *matrix.Dense, opts MatMulOptions) (*MatMulResult, error) {
	if a.Cols() != b.Rows() {
		return nil, fmt.Errorf("core: A is %d×%d but B is %d×%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	if opts.E != nil && (opts.E.Rows() != a.Rows() || opts.E.Cols() != b.Cols()) {
		return nil, fmt.Errorf("core: E is %d×%d, want %d×%d", opts.E.Rows(), opts.E.Cols(), a.Rows(), b.Cols())
	}
	useCompiled, err := opts.Engine.Resolve(opts.Trace)
	if err != nil {
		return nil, err
	}
	if useCompiled {
		return s.solveCompiled(a, b, opts)
	}
	t := dbt.NewMatMul(a, b, s.w)
	arr := hex.New(s.w)
	arr.RecordTrace = opts.Trace
	res := arr.Run(s.program(t, opts.E))

	// Extract C from the recorded output band via the appendix index maps.
	cFinal := matrix.NewDense(a.Rows(), b.Cols())
	extractMatMul(t, cFinal, res.Progs[0].At)

	regular, irregular := systolic.DelayHistogram(res.Feedback())
	stats := MatMulStats{
		W: s.w, NBar: t.NBar, PBar: t.PBar, MBar: t.MBar,
		T:                    res.T,
		PredictedT:           analysis.MatMulSteps(s.w, t.PBar, t.NBar, t.MBar),
		Utilization:          float64(analysis.MatMulOps(s.w, t.PBar, t.NBar, t.MBar)) / (float64(s.w*s.w) * float64(res.T)),
		PredictedUtilization: analysis.MatMulUtilization(s.w, t.PBar, t.NBar, t.MBar),
		MeasuredMACs:         res.Activity.Total(),
		RegularDelays:        schedule.BinsFromHistogram(regular),
		IrregularDelays:      schedule.BinsFromHistogram(irregular),
		Trace:                res.Trace,
	}
	return &MatMulResult{C: cFinal, Stats: stats}, nil
}

// solveCompiled executes the problem on the compiled-schedule engine:
// shape-cached schedule, grid-direct replay of one flattened feedback
// chain per C element over the operands' padded grids, with scratch drawn
// from a pooled arena. Results and statistics are bit-identical to the
// structural path.
func (s *MatMulSolver) solveCompiled(a, b *matrix.Dense, opts MatMulOptions) (*MatMulResult, error) {
	w := s.w
	ar := GetArena()
	defer PutArena(ar)
	cFinal := matrix.NewDense(a.Rows(), b.Cols())
	sch := ar.matmulGrid(cFinal, 0, 0, a, b, 0, 0, b.Cols(), opts.E, w)

	regular, irregular := sch.CopyDelays()
	stats := MatMulStats{
		W: w, NBar: sch.NBar, PBar: sch.PBar, MBar: sch.MBar,
		T:                    sch.T,
		PredictedT:           analysis.MatMulSteps(w, sch.PBar, sch.NBar, sch.MBar),
		Utilization:          float64(analysis.MatMulOps(w, sch.PBar, sch.NBar, sch.MBar)) / (float64(w*w) * float64(sch.T)),
		PredictedUtilization: analysis.MatMulUtilization(w, sch.PBar, sch.NBar, sch.MBar),
		MeasuredMACs:         sch.MACs,
		RegularDelays:        regular,
		IrregularDelays:      irregular,
	}
	return &MatMulResult{C: cFinal, Stats: stats}, nil
}

// matmulGrid is the compiled body of every matmul pass: one grid-direct
// replay that makes the a.Rows()×cols block of dst at (r0, c0) A·B′ + E′,
// where B′ is the a.Cols()×cols block of b at (br0, bc0) and E′ the block
// of e at (r0, c0) (e nil, dst itself or a matrix of dst's shape). It
// returns the plan it replayed. When the block's dimensions are multiples
// of w, E′ and the block are read and written in place through the plan
// whose E/C row stride is dst.Cols(); otherwise E′ is zero-padded into
// arena scratch, replayed in place there and the block copied back. A is
// read in place when it is on the block grid, padded otherwise, and B′ is
// staged once, transposed through b's row stride.
func (ar *Arena) matmulGrid(dst *matrix.Dense, r0, c0 int, a, b *matrix.Dense, br0, bc0, cols int, e *matrix.Dense, w int) *schedule.MatMul {
	rows, p := a.Rows(), a.Cols()
	nbar, pbar, mbar := blockpart.Ceil(rows, w), blockpart.Ceil(p, w), blockpart.Ceil(cols, w)
	ragged := rows != nbar*w || cols != mbar*w
	ldc := dst.Cols()
	if ragged {
		ldc = mbar * w
	}
	sch := ar.memo.MatMulFor(w, nbar, pbar, mbar, ldc)
	bt := ar.Floats(sch.BTLen())
	sch.StageB(bt, b, br0, bc0, p, cols)
	ap := a.Raw()
	if rows != nbar*w || p != pbar*w {
		ap = padGrid(ar.Floats(sch.ALen()), a, 0, 0, rows, p, pbar*w)
	}
	if !ragged {
		off := r0*ldc + c0
		var ep []float64
		if e != nil {
			ep = e.Raw()[off:]
		}
		sch.ExecGrid(ap, bt, ep, dst.Raw()[off:])
		return sch
	}
	c := ar.Floats(sch.CLen())
	var ep []float64
	if e != nil {
		ep = padGrid(c, e, r0, c0, rows, cols, ldc)
	}
	sch.ExecGrid(ap, bt, ep, c)
	for i := 0; i < rows; i++ {
		copy(dst.RawRow(r0 + i)[c0:c0+cols], c[i*ldc:])
	}
	return sch
}

// padGrid writes the rows×cols block of m at (r0, c0) zero-padded into dst,
// a row-major grid of ld columns (len(dst) a multiple of ld, at least the
// block's extent), and returns dst.
func padGrid(dst []float64, m *matrix.Dense, r0, c0, rows, cols, ld int) []float64 {
	for i := 0; i < rows; i++ {
		row := dst[i*ld : (i+1)*ld]
		copy(row, m.RawRow(r0 + i)[c0:c0+cols])
		clear(row[cols:])
	}
	clear(dst[rows*ld:])
	return dst
}

// SolveMany runs up to three independent C_i = A_i·B_i problems overlapped
// on the same array, offset one cycle apart. Because the hexagonal array's
// streams are spaced three cycles, three problems interleave with zero
// structural conflicts and PE utilization approaches 1 — the hexagonal
// analog of the paper's "overlapping the execution of several problems"
// (documented as an extension in DESIGN.md).
func (s *MatMulSolver) SolveMany(as, bs []*matrix.Dense) ([]*matrix.Dense, *MatMulStats, error) {
	if len(as) == 0 || len(as) != len(bs) || len(as) > 3 {
		return nil, nil, fmt.Errorf("core: SolveMany takes 1 to 3 aligned problems, got %d", len(as))
	}
	arr := hex.New(s.w)
	var progs []*hex.Program
	var ts []*dbt.MatMul
	for i := range as {
		if as[i].Cols() != bs[i].Rows() {
			return nil, nil, fmt.Errorf("core: problem %d: A is %d×%d but B is %d×%d",
				i, as[i].Rows(), as[i].Cols(), bs[i].Rows(), bs[i].Cols())
		}
		t := dbt.NewMatMul(as[i], bs[i], s.w)
		ts = append(ts, t)
		p := s.program(t, nil)
		p.Offset = i
		progs = append(progs, p)
	}
	res := arr.Run(progs...)
	cs := make([]*matrix.Dense, len(as))
	for i, t := range ts {
		cs[i] = matrix.NewDense(as[i].Rows(), bs[i].Cols())
		extractMatMul(t, cs[i], res.Progs[i].At)
	}
	stats := &MatMulStats{
		W: s.w,
		T: res.T,
		// Useful ops across all problems over the shared array-steps.
		Utilization:  sumOps(s.w, ts) / (float64(s.w*s.w) * float64(res.T)),
		MeasuredMACs: res.Activity.Total(),
	}
	return cs, stats, nil
}

func sumOps(w int, ts []*dbt.MatMul) float64 {
	total := 0
	for _, t := range ts {
		total += analysis.MatMulOps(w, t.PBar, t.NBar, t.MBar)
	}
	return float64(total)
}

// program builds the hex program for one transformed problem.
func (s *MatMulSolver) program(t *dbt.MatMul, e *matrix.Dense) *hex.Program {
	return &hex.Program{
		Dim: t.Dim(),
		AAt: t.AHatAt,
		BAt: t.BHatAt,
		CInitFor: func(rho, gamma int) hex.CInit {
			k, piece, la, lb := t.PieceAt(rho, gamma)
			init := t.InitFor(k, piece)
			switch init.Kind {
			case dbt.InitE:
				return hex.CInit{Value: t.EPieceAt(e, init.R, init.S, dbt.EPieceForInit(piece), la, lb)}
			case dbt.InitFeedback:
				return hex.CInit{
					Feedback:  true,
					SrcRow:    init.Row*s.w + la,
					SrcCol:    init.Row*s.w + t.PieceColOffset(init.Piece) + lb,
					Irregular: init.Irregular,
				}
			default:
				return hex.CInit{}
			}
		},
	}
}

// cPieces are the three band pieces that partition a C block.
var cPieces = [3]dbt.Piece{dbt.PieceD, dbt.PieceUMid, dbt.PieceLMid}

// extractMatMul assembles C into dst — any shape up to the padded
// n̄w × m̄w grid; every real C element is covered by an in-band position,
// so dst is fully overwritten and needs no pre-zeroing — from the
// structural engine's output band reader (ProgResult.At). The compiled
// engine needs no extraction: its plan stores each final C value straight
// to its grid offset. It allocates nothing: the source piece of a C
// piece always shares its triangular membership (CSource maps D→D,
// strict-upper→strict-upper, strict-lower→strict-lower), so one membership
// test per position replaces the position enumeration.
func extractMatMul(t *dbt.MatMul, dst *matrix.Dense, at func(rho, gamma int) float64) {
	w := t.W
	dim := t.Dim()
	for r := 0; r < t.NBar; r++ {
		for iB := 0; iB < t.MBar; iB++ {
			for _, p := range cPieces {
				row, src := t.CSource(r, iB, p)
				off := t.PieceColOffset(src)
				for la := 0; la < w; la++ {
					i := r*w + la
					if i >= dst.Rows() || row*w+la >= dim {
						continue
					}
					for lb := 0; lb < w; lb++ {
						if !p.Contains(la, lb) {
							continue
						}
						j := iB*w + lb
						col := row*w + off + lb
						if j >= dst.Cols() || col < 0 || col >= dim {
							continue
						}
						dst.Set(i, j, at(row*w+la, col))
					}
				}
			}
		}
	}
}
