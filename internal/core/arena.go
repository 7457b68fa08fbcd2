package core

import (
	"fmt"
	"sync"

	"repro/internal/dbt"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// Arena is the per-array scratch state of one simulated array: reusable
// float/matrix buffers, privately retained DBT transforms, and a plan memo,
// all owned by a single goroutine. Passes replayed on one arena reuse the
// same storage, so the steady state of the compiled pass path allocates
// nothing.
//
// Ownership rules (see DESIGN.md §5):
//
//   - An arena belongs to one goroutine at a time. Each fleet shard owns
//     one; serial workspaces own one directly or borrow their shard's;
//     the one-shot compiled calls (MatVecSolver.Solve, MatMulSolver.Solve,
//     the sparse and band-triangular solves) own a pooled arena between
//     GetArena and PutArena. Two passes may share an arena only
//     sequentially — never concurrently.
//   - Reset marks the start of a unit of work (a fleet shard resets its
//     arena before every pass it runs). Everything drawn from the arena
//     after a Reset is valid until the next Reset; nothing drawn from an
//     arena may outlive that window or escape to another goroutine.
//   - Buffers come back with arbitrary contents; callers overwrite before
//     reading.
type Arena struct {
	memo *schedule.PlanMemo
	mvT  *dbt.MatVec
	kept map[uint64]interface{}

	floats   [][]float64
	fcursor  int
	matrices []*matrix.Dense
	mcursor  int
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{memo: schedule.NewPlanMemo(), mvT: &dbt.MatVec{}}
}

// arenaPool holds the arenas the one-shot compiled calls borrow. A pooled
// arena keeps its plan memo, transform and slab capacities across borrows,
// so a repeated shape replays with no scratch allocation; the pool drops
// idle arenas at GC like any sync.Pool.
var arenaPool = sync.Pool{New: func() interface{} { return NewArena() }}

// GetArena returns a Reset arena from the process-wide pool, owned by the
// caller until PutArena.
func GetArena() *Arena {
	ar := arenaPool.Get().(*Arena)
	ar.Reset()
	return ar
}

// PutArena returns an arena obtained from GetArena to the pool. Nothing
// drawn from it may be used afterwards.
func PutArena(ar *Arena) { arenaPool.Put(ar) }

// Reset recycles every buffer drawn since the previous Reset. Plans,
// transforms and slab capacities are retained — that is the point.
func (ar *Arena) Reset() {
	ar.fcursor = 0
	ar.mcursor = 0
}

// Floats returns a length-n scratch slice with arbitrary contents, reused
// across Resets.
func (ar *Arena) Floats(n int) []float64 {
	if ar.fcursor == len(ar.floats) {
		ar.floats = append(ar.floats, make([]float64, n))
	}
	s := ar.floats[ar.fcursor]
	if cap(s) < n {
		s = make([]float64, n)
	}
	s = s[:n]
	ar.floats[ar.fcursor] = s
	ar.fcursor++
	return s
}

// Dense returns a rows×cols scratch matrix with arbitrary contents, reused
// across Resets.
func (ar *Arena) Dense(rows, cols int) *matrix.Dense {
	if ar.mcursor == len(ar.matrices) {
		ar.matrices = append(ar.matrices, nil)
	}
	m := matrix.Reuse(ar.matrices[ar.mcursor], rows, cols)
	ar.matrices[ar.mcursor] = m
	ar.mcursor++
	return m
}

// Plans returns the arena's plan memo, for solver packages that replay
// compiled plans directly on this arena's goroutine — the triangular
// phases of internal/solve, and the pattern-keyed sparse passes
// (sparse.MatVec.PassInto), which key the memo by (shape, pattern digest)
// with full pattern verification on every hit.
func (ar *Arena) Plans() *schedule.PlanMemo { return ar.memo }

// Kept returns the long-lived value cached under key by Keep, or nil when
// none is. Kept values survive Reset exactly like plans and transforms do:
// they are the arena's workspace pool, letting higher layers that core
// cannot import (the stream scheduler's solve tickets keep a warm
// solve.Workspace per array size this way) attach per-shard steady state
// to the shard's arena. The uint64 key space is the caller's to partition;
// the hit path is a plain map lookup — no boxing, no allocation.
func (ar *Arena) Kept(key uint64) interface{} { return ar.kept[key] }

// Keep caches value under key for Kept, retained across Resets for the
// arena's lifetime. Kept values follow the arena ownership contract: they
// belong to the arena's goroutine and must never escape to another.
func (ar *Arena) Keep(key uint64, value interface{}) {
	if ar.kept == nil {
		ar.kept = make(map[uint64]interface{})
	}
	ar.kept[key] = value
}

// MatVecPass computes dst = A·x + b (b may be nil) as one linear-array pass
// on the selected engine and returns the pass's measured step count T. dst
// must have length A.Rows() and must not alias x or b. On the compiled
// engine the pass draws every buffer from the arena and allocates nothing
// in the steady state; the oracle engine runs the structural simulator
// (allocating freely) and copies the result, so both engines return
// bit-identical values.
func (ar *Arena) MatVecPass(dst matrix.Vector, a *matrix.Dense, x, b matrix.Vector, w int, eng Engine) (int, error) {
	if len(dst) != a.Rows() {
		panic(fmt.Sprintf("core: MatVecPass dst len %d, want %d", len(dst), a.Rows()))
	}
	useCompiled, err := eng.Resolve(false)
	if err != nil {
		return 0, err
	}
	if !useCompiled {
		res, err := NewMatVecSolver(w).Solve(a, x, b, MatVecOptions{Engine: EngineOracle})
		if err != nil {
			return 0, err
		}
		copy(dst, res.Y)
		return res.Stats.T, nil
	}
	t := ar.mvT
	t.Reset(a, w)
	sch, err := ar.memo.MatVecFor(t, false)
	if err != nil {
		return 0, err
	}
	if len(x) != a.Cols() {
		return 0, fmt.Errorf("core: len(x)=%d, want %d", len(x), a.Cols())
	}
	if b != nil && len(b) != a.Rows() {
		return 0, fmt.Errorf("core: len(b)=%d, want %d", len(b), a.Rows())
	}
	t.RecoverYFlat(dst, ar.matvecGrid(sch, t, x, b))
	return sch.T, nil
}

// matvecGrid replays the compiled matvec plan sch of transform t over its
// padded grid, with x and b zero-padded into arena scratch, and returns the
// flat ȳ buffer (valid until the arena's next Reset). It is the compiled
// body shared by MatVecPass and MatVecSolver.Solve.
func (ar *Arena) matvecGrid(sch *schedule.MatVec, t dbt.Transform, x, b matrix.Vector) []float64 {
	w, _, mbar := t.Shape()
	bp := ar.Floats(sch.BLen)
	clear(bp)
	copy(bp, b)
	ybar := ar.Floats(sch.Rows)
	xp := ar.Floats(mbar * w)
	clear(xp)
	copy(xp, x)
	sch.ExecGrid(t.Padded().Raw(), xp, bp, ybar)
	return ybar
}

// MatMulPass computes dst = A·B + E (e may be nil) as one hexagonal-array
// pass on the selected engine and returns the pass's measured step count T.
// dst must be A.Rows()×B.Cols() and must not alias a or b; it may be e
// itself, which makes the pass an in-place update dst += A·B. Allocation
// behavior matches MatVecPass: zero steady-state allocations on the
// compiled engine, bit-identical results on both. It is MatMulUpdate's
// body on whole matrices: the block at (0, 0).
func (ar *Arena) MatMulPass(dst, a, b, e *matrix.Dense, w int, eng Engine) (int, error) {
	if dst.Rows() != a.Rows() || dst.Cols() != b.Cols() {
		panic(fmt.Sprintf("core: MatMulPass dst %d×%d, want %d×%d", dst.Rows(), dst.Cols(), a.Rows(), b.Cols()))
	}
	if a.Cols() != b.Rows() {
		return 0, fmt.Errorf("core: A is %d×%d but B is %d×%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	if e != nil && (e.Rows() != a.Rows() || e.Cols() != b.Cols()) {
		return 0, fmt.Errorf("core: E is %d×%d, want %d×%d", e.Rows(), e.Cols(), a.Rows(), b.Cols())
	}
	return ar.matmulPass(dst, 0, 0, a, b, 0, 0, b.Cols(), e, w, eng)
}

// MatMulUpdate updates a block of a larger matrix in place with one
// hexagonal-array pass, D ← A·B′ + D, where D is the a.Rows()×cols block
// of dst at (r0, c0) and B′ the a.Cols()×cols block of b at (br0, bc0),
// and returns the pass's measured step count T. dst must not alias a; b
// may be dst itself when B′ and D do not overlap (B′ is staged before D is
// written), and both blocks must lie inside their matrices. Nothing of dst
// outside D is read or written. The compiled engine replays D and B′ where
// they are, through a plan whose E/C row stride is dst.Cols() — A is read
// in place and B′ staged once, transposed through its row stride — when
// D's dimensions are multiples of w, and through zero-padded arena
// scratch otherwise; it allocates nothing in the steady state. The oracle
// engine copies the blocks out and D back. Results are bit-identical on
// both engines and to MatMulPass on the copied-out blocks.
func (ar *Arena) MatMulUpdate(dst *matrix.Dense, r0, c0 int, a, b *matrix.Dense, br0, bc0, cols, w int, eng Engine) (int, error) {
	if r0 < 0 || c0 < 0 || br0 < 0 || bc0 < 0 || cols < 0 ||
		r0+a.Rows() > dst.Rows() || c0+cols > dst.Cols() || br0+a.Cols() > b.Rows() || bc0+cols > b.Cols() {
		panic(fmt.Sprintf("core: MatMulUpdate of the %d×%d block at (%d,%d) of %d×%d from the %d×%d block at (%d,%d) of %d×%d",
			a.Rows(), cols, r0, c0, dst.Rows(), dst.Cols(), a.Cols(), cols, br0, bc0, b.Rows(), b.Cols()))
	}
	return ar.matmulPass(dst, r0, c0, a, b, br0, bc0, cols, dst, w, eng)
}

// matmulPass is the one body behind MatMulPass and MatMulUpdate: the
// a.Rows()×cols block of dst at (r0, c0) becomes A·B′ + E′, where B′ is
// the a.Cols()×cols block of b at (br0, bc0) and E′ the block of e at
// (r0, c0) — e is nil, dst itself or a matrix of dst's shape.
func (ar *Arena) matmulPass(dst *matrix.Dense, r0, c0 int, a, b *matrix.Dense, br0, bc0, cols int, e *matrix.Dense, w int, eng Engine) (int, error) {
	useCompiled, err := eng.Resolve(false)
	if err != nil {
		return 0, err
	}
	if useCompiled {
		return ar.matmulGrid(dst, r0, c0, a, b, br0, bc0, cols, e, w).T, nil
	}
	rows, p := a.Rows(), a.Cols()
	if br0 != 0 || bc0 != 0 || p != b.Rows() || cols != b.Cols() {
		b = matrix.SliceInto(ar.Dense(p, cols), b, br0, br0+p, bc0, bc0+cols)
	}
	if e != nil && (r0 != 0 || c0 != 0 || rows != e.Rows() || cols != e.Cols()) {
		e = matrix.SliceInto(ar.Dense(rows, cols), e, r0, r0+rows, c0, c0+cols)
	}
	res, err := NewMatMulSolver(w).Solve(a, b, MatMulOptions{E: e, Engine: EngineOracle})
	if err != nil {
		return 0, err
	}
	dst.SetRect(r0, c0, res.C)
	return res.Stats.T, nil
}
