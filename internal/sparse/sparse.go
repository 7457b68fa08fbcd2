// Package sparse implements the paper's §4 extension: "In the case of
// computing with matrices of a known degree of sparsity, transformation
// algorithms can be devised ... to exclude the need of zero-valued elements
// sub-matrices. A reduction of computational time would be the consequence."
//
// The scheme keeps, per row band r, only the column blocks s whose A_{r,s}
// is not entirely zero, and builds one DBT chain per row band over the
// retained blocks (the cyclic U/L pairing telescopes over any block subset).
// Because the retained column sets differ between row bands, the x̄ stream
// continuity that lets full DBT fuse all row bands into one band matrix no
// longer holds; each row band therefore runs as its own program, scheduled
// back to back on the same array. Total steps, with n̄₊ the number of row
// bands that retain at least one block:
//
//	T = 2w·Q + (n̄₊−1)(2w−2) + 2w − 3   (exactly 0 when Q = 0)
//
// where Q is the total number of retained blocks (Q = n̄m̄ and n̄₊ = n̄
// recover a cost within (n̄−1)(2w−2) of the dense DBT schedule; row bands
// with no retained blocks contribute no programs and no cycles — they cost
// nothing). Correctness is exact: omitted blocks contribute exactly zero.
//
// Both execution engines serve the workload. The structural path runs the
// per-band programs on the cycle-accurate linear array; the compiled path
// replays a schedule.SparseMatVec plan keyed by (shape, pattern digest) —
// the pattern is data, so the plan cache verifies the full retained-block
// pattern on every hit and recompiles on a digest collision. Results and
// statistics (T, utilization, per-PE MAC counts) are bit-identical between
// the engines; the fuzz and soak differentials enforce it.
//
// Two schedule refinements ride on the same plans (DESIGN.md §13). Batched
// replay (SolveMany/PassManyInto) streams k right-hand sides through one
// compiled pattern, touching each retained coefficient block once per
// batch; every vector's result is bit-identical to its independent solve.
// Overlap (SolveOverlappedEngine) interleaves consecutive band programs
// pairwise at offsets (o, o+1) so each occupies the other's idle injection
// parity — the paper's §2 two-program trick — shrinking T toward half
// while leaving every computed value and per-PE MAC count untouched.
package sparse

import (
	"fmt"
	"sync/atomic"

	"repro/internal/blockpart"
	"repro/internal/core"
	"repro/internal/linear"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// MatVec is a sparsity-aware DBT-by-rows transformation.
type MatVec struct {
	W          int
	NBar, MBar int
	N, M       int
	Grid       *blockpart.Grid
	// Retained[r] lists, in increasing order, the column blocks kept for
	// row band r (empty when the whole band is zero).
	Retained [][]int

	// plan caches the compiled schedule for this transform's pattern after
	// the first compiled solve. Retained is immutable after NewMatVec, so
	// the cached plan can never go stale; repeat solves on the same
	// transform skip the pattern-keyed cache lookup (digest + full pattern
	// verification) entirely. Plans are immutable and shared, so publishing
	// the pointer is safe from any goroutine.
	plan atomic.Pointer[schedule.SparseMatVec]
}

// PatternKey canonically identifies a sparse matvec schedule: the shape
// (w, n̄, m̄) plus the collision-checked digest of the retained-block
// pattern. It is the routing key of the stream scheduler's pattern-affinity
// path and the cache key of the compiled plan; the digest alone is never
// trusted for plan identity (hits verify the full pattern).
type PatternKey struct {
	W, NBar, MBar int
	Digest        uint64
}

// NewMatVec analyzes A's block sparsity for array size w.
func NewMatVec(a *matrix.Dense, w int) *MatVec {
	g := blockpart.Partition(a, w)
	t := &MatVec{
		W: w, NBar: g.BlockRows, MBar: g.BlockCols,
		N: a.Rows(), M: a.Cols(), Grid: g,
		Retained: make([][]int, g.BlockRows),
	}
	for r := 0; r < g.BlockRows; r++ {
		for s := 0; s < g.BlockCols; s++ {
			if !g.BlockIsZero(r, s) {
				t.Retained[r] = append(t.Retained[r], s)
			}
		}
	}
	return t
}

// Key returns the canonical pattern key of this transformation. It is
// recomputed on every call (O(Q), allocation-free), so callers holding a
// MatVec across submissions need not cache it.
func (t *MatVec) Key() PatternKey {
	return PatternKey{W: t.W, NBar: t.NBar, MBar: t.MBar, Digest: schedule.PatternDigest(t.Retained)}
}

// TotalBlocks returns Q, the number of retained blocks.
func (t *MatVec) TotalBlocks() int {
	q := 0
	for _, row := range t.Retained {
		q += len(row)
	}
	return q
}

// Density returns Q/(n̄·m̄).
func (t *MatVec) Density() float64 {
	return float64(t.TotalBlocks()) / float64(t.NBar*t.MBar)
}

// PredictedSteps returns the closed-form schedule length (see package doc):
// Σ 2w·q_r over the non-empty row bands plus the inter-band gaps and the
// pipeline tail. Row bands with no retained blocks are skipped entirely,
// and an all-zero matrix (Q = 0) costs exactly zero steps.
func (t *MatVec) PredictedSteps() int {
	w := t.W
	total := 0
	active := 0
	for _, row := range t.Retained {
		if len(row) == 0 {
			continue
		}
		active++
		total += 2 * w * len(row)
	}
	if active == 0 {
		return 0
	}
	return total + (active-1)*(2*w-2) + 2*w - 3
}

// Result reports a sparse run.
type Result struct {
	Y matrix.Vector
	// T is the measured step count, Q the retained block count.
	T, Q int
	// Utilization is retained ops / (w·T), 0 for an empty schedule.
	Utilization float64
	// MACs[pe] counts the multiply–accumulates each PE executed — uniform
	// (every band row meets every PE once) and nil when Q = 0, on both
	// engines.
	MACs []int
}

// SolveEngine is Solve with explicit engine selection. The sparse schedule
// depends on the retained-block pattern — data, not shape — so the compiled
// engine replays a pattern-keyed plan (schedule.SparseMatVec): compiled once
// per (shape, pattern), verified against the full pattern on every cache
// hit, bit-identical to the structural simulator in results and statistics.
// core.EngineAuto resolves to the compiled path, core.EngineOracle to the
// structural one.
func (t *MatVec) SolveEngine(x, b matrix.Vector, eng core.Engine) (*Result, error) {
	useCompiled, err := eng.Resolve(false)
	if err != nil {
		return nil, err
	}
	if !useCompiled {
		return t.Solve(x, b)
	}
	ar := core.GetArena()
	defer core.PutArena(ar)
	return t.solveCompiled(ar, x, b, false)
}

// SolveOverlappedEngine is SolveEngine in the paper's §2 overlap mode: the
// active row-band programs run pairwise interleaved, the second program of
// each pair offset one cycle from the first so it occupies the first's idle
// injection parity. Values, Q and per-PE MAC counts are identical to the
// back-to-back schedule (the overlap moves MACs in time, never reorders a
// row's accumulation); T shrinks toward half and Utilization rises toward
// the paper's η → 1 bound. The structural engine actually runs the paired
// programs on the collision-checked array — the parity claim is simulated,
// not assumed — and the compiled engine reports the plan's precomputed
// TOverlap, bit-identical to the measured value.
func (t *MatVec) SolveOverlappedEngine(x, b matrix.Vector, eng core.Engine) (*Result, error) {
	useCompiled, err := eng.Resolve(false)
	if err != nil {
		return nil, err
	}
	if !useCompiled {
		return t.solveOverlapped(x, b)
	}
	ar := core.GetArena()
	defer core.PutArena(ar)
	return t.solveCompiled(ar, x, b, true)
}

// SolveEngineOn is SolveEngine on the caller's arena instead of a pooled
// one: compiled plans resolve through ar's pattern-keyed plan memo and
// scratch comes from ar. The stream
// scheduler's full-result sparse jobs run it on their pattern-affinity
// shard's arena, so a repeating sparsity pattern replays the shard's
// memoized plan without contending on the process-wide cache. The result
// is identical to SolveEngine's (plans are immutable and shared).
func (t *MatVec) SolveEngineOn(ar *core.Arena, x, b matrix.Vector, eng core.Engine) (*Result, error) {
	useCompiled, err := eng.Resolve(false)
	if err != nil {
		return nil, err
	}
	if !useCompiled {
		return t.Solve(x, b)
	}
	return t.solveCompiled(ar, x, b, false)
}

// checkLens validates the operand lengths shared by every solve path.
func (t *MatVec) checkLens(x, b matrix.Vector) error {
	if len(x) != t.M {
		return fmt.Errorf("sparse: len(x)=%d, want %d", len(x), t.M)
	}
	if b != nil && len(b) != t.N {
		return fmt.Errorf("sparse: len(b)=%d, want %d", len(b), t.N)
	}
	return nil
}

// planFor resolves the compiled plan for t's pattern: the transform's own
// cached pointer when already published, else through memo (backed by the
// global pattern-keyed cache), publishing the result for later calls.
func (t *MatVec) planFor(memo *schedule.PlanMemo) (*schedule.SparseMatVec, error) {
	if p := t.plan.Load(); p != nil {
		return p, nil
	}
	plan, err := memo.SparseMatVecFor(t.W, t.NBar, t.MBar, t.Retained)
	if err != nil {
		return nil, err
	}
	t.plan.Store(plan)
	return plan, nil
}

// solveCompiled is the compiled full-result solve: one PassInto on ar into
// a fresh y. With overlapped set it reports the overlapped schedule's step
// count and utilization; the replayed values are identical either way (the
// overlap changes when MACs happen, never what they compute).
func (t *MatVec) solveCompiled(ar *core.Arena, x, b matrix.Vector, overlapped bool) (*Result, error) {
	y := matrix.NewVector(t.N)
	if _, err := t.PassInto(ar, y, x, b, core.EngineCompiled); err != nil {
		return nil, err
	}
	return t.result(y, overlapped), nil
}

// result wraps the y of a compiled pass with the statistics of t's plan,
// which that pass published.
func (t *MatVec) result(y matrix.Vector, overlapped bool) *Result {
	plan := t.plan.Load()
	res := &Result{Y: y, T: plan.T, Q: plan.Q, Utilization: plan.Utilization()}
	if overlapped {
		res.T, res.Utilization = plan.TOverlap, plan.OverlapUtilization()
	}
	if plan.Q > 0 {
		res.MACs = plan.PEMACs(make([]int, t.W))
	}
	return res
}

// batchB returns the v-th right-hand side of a batch, where a nil bs means
// every vector solves with b = 0.
func batchB(bs []matrix.Vector, v int) matrix.Vector {
	if bs == nil {
		return nil
	}
	return bs[v]
}

// checkBatch validates a batch of operands: at least one vector, matching
// batch lengths, and per-vector operand lengths.
func (t *MatVec) checkBatch(xs, bs []matrix.Vector) error {
	if len(xs) == 0 {
		return fmt.Errorf("sparse: empty batch")
	}
	if bs != nil && len(bs) != len(xs) {
		return fmt.Errorf("sparse: batch has %d x vectors but %d b vectors", len(xs), len(bs))
	}
	for v := range xs {
		if err := t.checkLens(xs[v], batchB(bs, v)); err != nil {
			return fmt.Errorf("sparse: batch vector %d: %w", v, err)
		}
	}
	return nil
}

// SolveMany computes y_v = A·x_v + b_v for every right-hand side of a batch
// in one pass over the pattern: the compiled engine packs all k vectors
// into strided buffers and replays the plan once via ExecMany, touching
// each retained coefficient block once per batch instead of once per
// vector. bs may be nil (every b is zero) or per-entry nil; otherwise
// len(bs) must equal len(xs). Each Result is exactly what SolveEngine
// would have returned for that vector — values, T, utilization and per-PE
// MAC counts are bit-identical to k independent solves on either engine.
func (t *MatVec) SolveMany(xs, bs []matrix.Vector, eng core.Engine) ([]*Result, error) {
	useCompiled, err := eng.Resolve(false)
	if err != nil {
		return nil, err
	}
	if !useCompiled {
		return t.solveManySerial(xs, bs)
	}
	ys := make([]matrix.Vector, len(xs))
	for v := range ys {
		ys[v] = matrix.NewVector(t.N)
	}
	ar := core.GetArena()
	defer core.PutArena(ar)
	if _, err := t.PassManyInto(ar, ys, xs, bs, core.EngineCompiled); err != nil {
		return nil, err
	}
	out := make([]*Result, len(ys))
	for v, y := range ys {
		out[v] = t.result(y, false)
	}
	return out, nil
}

// solveManySerial is the oracle batch path: k independent structural
// solves, the DeepEqual baseline of the batched differentials.
func (t *MatVec) solveManySerial(xs, bs []matrix.Vector) ([]*Result, error) {
	if err := t.checkBatch(xs, bs); err != nil {
		return nil, err
	}
	out := make([]*Result, len(xs))
	for v := range xs {
		res, err := t.Solve(xs[v], batchB(bs, v))
		if err != nil {
			return nil, err
		}
		out[v] = res
	}
	return out, nil
}

// PassInto computes dst = A·x + b (b may be nil) as one sparse pass on the
// selected engine, drawing every buffer and the pattern-keyed plan memo
// from ar, and returns the pass's measured step count T. dst must have
// length A.Rows() and must not alias x or b; like every other operand
// validation failure it reports a mismatched dst as a returned error, so a
// malformed Into job arriving through the stream surfaces as a validation
// error rather than a panic. On the compiled engine the warm steady state —
// plan memoized on the arena, buffers reused — allocates nothing; the
// oracle engine runs the structural simulator (allocating freely) and
// copies the result, so both engines write bit-identical values. It is the
// sparse counterpart of core.Arena's MatVecPass, and what the stream
// scheduler's sparse Into jobs run on their shard's arena.
func (t *MatVec) PassInto(ar *core.Arena, dst, x, b matrix.Vector, eng core.Engine) (int, error) {
	if len(dst) != t.N {
		return 0, fmt.Errorf("sparse: dst len %d, want %d", len(dst), t.N)
	}
	useCompiled, err := eng.Resolve(false)
	if err != nil {
		return 0, err
	}
	if !useCompiled {
		res, err := t.Solve(x, b)
		if err != nil {
			return 0, err
		}
		copy(dst, res.Y)
		return res.T, nil
	}
	if err := t.checkLens(x, b); err != nil {
		return 0, err
	}
	plan, err := t.planFor(ar.Plans())
	if err != nil {
		return 0, err
	}
	w := t.W
	xp := ar.Floats(t.MBar * w)
	copy(xp, x)
	clear(xp[len(x):])
	bp := ar.Floats(t.NBar * w)
	copy(bp, b)
	clear(bp[len(b):])
	y := ar.Floats(t.NBar * w)
	ybar := ar.Floats(plan.MaxBandRows)
	plan.Exec(t.Grid.Padded().Raw(), xp, bp, y, ybar)
	copy(dst, y[:t.N])
	return plan.T, nil
}

// PassManyInto is the batched PassInto: dsts[v] = A·xs[v] + bs[v] for every
// vector of the batch in one ExecMany replay, drawing every buffer and the
// plan memo from ar, and returns the per-pass step count T (every vector
// replays the same schedule). Operand rules follow SolveMany (bs may be nil
// or hold nil entries); every dst must have length A.Rows() and must not
// alias any x or b — mismatches come back as errors, never panics. On the
// compiled engine the warm steady state allocates nothing; the oracle
// engine loops the structural simulator, bit-identical per vector.
func (t *MatVec) PassManyInto(ar *core.Arena, dsts, xs, bs []matrix.Vector, eng core.Engine) (int, error) {
	if len(dsts) != len(xs) {
		return 0, fmt.Errorf("sparse: batch has %d dst vectors but %d x vectors", len(dsts), len(xs))
	}
	for v := range dsts {
		if len(dsts[v]) != t.N {
			return 0, fmt.Errorf("sparse: batch dst %d len %d, want %d", v, len(dsts[v]), t.N)
		}
	}
	if err := t.checkBatch(xs, bs); err != nil {
		return 0, err
	}
	useCompiled, err := eng.Resolve(false)
	if err != nil {
		return 0, err
	}
	if !useCompiled {
		steps := 0
		for v := range xs {
			res, err := t.Solve(xs[v], batchB(bs, v))
			if err != nil {
				return 0, err
			}
			copy(dsts[v], res.Y)
			steps = res.T
		}
		return steps, nil
	}
	plan, err := t.planFor(ar.Plans())
	if err != nil {
		return 0, err
	}
	w, k := t.W, len(xs)
	xw, yw := t.MBar*w, t.NBar*w
	xp := ar.Floats(k * xw)
	bp := ar.Floats(k * yw)
	for v := range xs {
		copy(xp[v*xw:], xs[v])
		clear(xp[v*xw+len(xs[v]) : (v+1)*xw])
		bv := batchB(bs, v)
		copy(bp[v*yw:], bv)
		clear(bp[v*yw+len(bv) : (v+1)*yw])
	}
	y := ar.Floats(k * yw)
	ybar := ar.Floats(k * plan.MaxBandRows)
	plan.ExecMany(t.Grid.Padded().Raw(), xp, bp, y, ybar, k)
	for v := range dsts {
		copy(dsts[v], y[v*yw:v*yw+t.N])
	}
	return plan.T, nil
}

// Solve computes y = A·x + b on a w-PE linear array, skipping zero blocks,
// on the cycle-accurate structural simulator (the verification oracle of
// the compiled path — see SolveEngine).
func (t *MatVec) Solve(x, b matrix.Vector) (*Result, error) {
	return t.solveStructural(x, b, false)
}

// solveOverlapped is the structural overlap run: consecutive active
// row-band programs are scheduled in pairs at offsets (o, o+1) — opposite
// injection parities, so the pair shares the array collision-free (the
// simulator panics on any structural conflict, making this a checked
// claim) — and each pair advances the offset by the larger of its two
// spans. See SolveOverlappedEngine for the contract with the compiled
// counterpart.
func (t *MatVec) solveOverlapped(x, b matrix.Vector) (*Result, error) {
	return t.solveStructural(x, b, true)
}

func (t *MatVec) solveStructural(x, b matrix.Vector, overlapped bool) (*Result, error) {
	if err := t.checkLens(x, b); err != nil {
		return nil, err
	}
	w := t.W
	xp := x.Pad(t.MBar * w)
	var bp matrix.Vector
	if b == nil {
		bp = matrix.NewVector(t.NBar * w)
	} else {
		bp = b.Pad(t.NBar * w)
	}

	arr := linear.New(w)
	var progs []*linear.Program
	var progRow []int
	// Back-to-back: each program advances the offset by its own span.
	// Overlapped: the first program of a pair sits at offset o, the second
	// at o+1 (spans are even, so pair starts stay even and the two programs
	// keep opposite injection parities); the pair advances by max(spans).
	offset, pairSpan := 0, 0
	second := false
	for r := 0; r < t.NBar; r++ {
		cols := t.Retained[r]
		if len(cols) == 0 {
			continue
		}
		span := 2*w*len(cols) + 2*w - 2
		switch {
		case !overlapped:
			progs = append(progs, t.rowBandProgram(r, cols, xp, bp, offset))
			offset += span
		case !second:
			progs = append(progs, t.rowBandProgram(r, cols, xp, bp, offset))
			pairSpan = span
			second = true
		default:
			progs = append(progs, t.rowBandProgram(r, cols, xp, bp, offset+1))
			if span > pairSpan {
				pairSpan = span
			}
			offset += pairSpan
			second = false
		}
		progRow = append(progRow, r)
	}

	y := matrix.NewVector(t.NBar * w)
	res := &Result{Q: t.TotalBlocks()}
	if len(progs) > 0 {
		run := arr.Run(progs...)
		res.T = run.T
		res.Utilization = run.Activity.Utilization()
		res.MACs = run.Activity.MACs
		for pi, r := range progRow {
			rows := progs[pi].Rows
			copy(y[r*w:(r+1)*w], run.Y[pi][rows-w:]) // last block holds y_r
		}
	}
	// Row bands with no retained blocks: y_r = b_r, no array work.
	for r := 0; r < t.NBar; r++ {
		if len(t.Retained[r]) == 0 {
			copy(y[r*w:(r+1)*w], bp[r*w:(r+1)*w])
		}
	}
	res.Y = y[:t.N]
	return res, nil
}

// rowBandProgram builds the DBT chain of one row band over its retained
// column blocks: Ū_q = U_{r,cols[q]}, L̄_q = L_{r,cols[(q+1) mod len]}, with
// the x̄ stream concatenating the corresponding x blocks (plus the w−1
// element tail of the wrap block).
func (t *MatVec) rowBandProgram(r int, cols []int, xp, bp matrix.Vector, offset int) *linear.Program {
	w := t.W
	q := len(cols)
	xbar := make(matrix.Vector, 0, q*w+w-1)
	for _, s := range cols {
		xbar = append(xbar, xp.Block(s, w)...)
	}
	xbar = append(xbar, xp.Block(cols[0], w)[:w-1]...)
	return &linear.Program{
		Rows:   q * w,
		X:      xbar,
		Offset: offset,
		BandAt: func(i, j int) float64 {
			k := i / w
			a := i % w
			bb := j - k*w
			if bb < w {
				return t.Grid.UpperAt(r, cols[k], a, bb)
			}
			return t.Grid.LowerAt(r, cols[(k+1)%q], a, bb-w)
		},
		YInit: func(i int) linear.YInit {
			if i < w {
				return linear.YInit{Value: bp[r*w+i]}
			}
			return linear.YInit{Feedback: true, SrcRow: i - w}
		},
	}
}
