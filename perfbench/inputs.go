package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/sparse"
)

// system is one seeded A·x = d problem with the serial solver's answer,
// computed in set-up: the benchmark compares every op's result with it bit
// for bit (the engines' bit-identity contract makes the comparison exact).
type system struct {
	a     *matrix.Dense
	rows  [][]float64 // a's rows, for JSON request bodies
	d     matrix.Vector
	opts  solve.Options
	x     matrix.Vector // serial solution
	steps int           // serial stats: LU + triangular + matvec array steps
	swaps int           // serial stats: partial-pivoting row exchanges
	iters int           // serial stats: refinement cycles
}

// solveSteps is the array-step total (the paper's T) a solve's stats report.
func solveSteps(st *solve.SolveStats) int {
	return st.LU.ArraySteps + st.TriSteps + st.MatVecSteps
}

// newSystem solves (a, d) serially under opts and records the answer.
func newSystem(a *matrix.Dense, d matrix.Vector, w int, opts solve.Options) (system, error) {
	x, st, err := solve.NewWorkspace(w).Solve(a, d, opts)
	if err != nil {
		return system{}, fmt.Errorf("serial reference solve: %w", err)
	}
	rows := make([][]float64, a.Rows())
	for i := range rows {
		rows[i] = a.RawRow(i)
	}
	return system{
		a: a, rows: rows, d: d, opts: opts,
		x:     append(matrix.Vector(nil), x...),
		steps: solveSteps(st), swaps: st.LU.RowSwaps, iters: st.Refine.Iters,
	}, nil
}

// diagDominant returns a seeded strictly diagonally dominant n×n system
// with small integer entries: unpivoted block LU never meets a zero pivot.
func diagDominant(rng *rand.Rand, n int) (*matrix.Dense, matrix.Vector) {
	a := matrix.RandomDense(rng, n, n, 4)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				s += math.Abs(a.At(i, j))
			}
		}
		a.Set(i, i, s+1+float64(rng.Intn(3)))
	}
	return a, matrix.RandomVector(rng, n, 5)
}

// scrambled returns a diagonally dominant system with its rows permuted:
// the leading minors may be singular, so only a pivoted solve succeeds, and
// partial pivoting must exchange rows to restore the dominant diagonal.
func scrambled(rng *rand.Rand, n int) (*matrix.Dense, matrix.Vector) {
	dd, d := diagDominant(rng, n)
	a := matrix.NewDense(n, n)
	pd := matrix.NewVector(n)
	for i, pi := range rng.Perm(n) {
		copy(a.RawRow(i), dd.RawRow(pi))
		pd[i] = d[pi]
	}
	return a, pd
}

// growth returns a seeded perturbation of Wilkinson's growth matrix (unit
// diagonal, −1 below it, ones in the last column) with a fractional
// right-hand side. Partial pivoting exchanges no rows on it and the last
// column doubles at every elimination step, so the direct solve's residual
// exceeds the refinement tolerance: iterative refinement must run at least
// one correction cycle, and converges.
func growth(rng *rand.Rand, n int) (*matrix.Dense, matrix.Vector) {
	const eps = 1e-3
	a := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1+eps*rng.Float64())
		for j := 0; j < i; j++ {
			a.Set(i, j, -1+eps*rng.Float64())
		}
		a.Set(i, n-1, 1)
	}
	d := matrix.NewVector(n)
	for i := range d {
		d[i] = 2*rng.Float64() - 1
	}
	return a, d
}

// stencil is the block-tridiagonal sparse operator of the mixed-stream
// workload with a pool of seeded operand vectors and their serial results.
type stencil struct {
	t  *sparse.MatVec
	xs []matrix.Vector
	bs []matrix.Vector
	ys []matrix.Vector // ys[i] = A·xs[i] + bs[i], computed serially
	t1 int             // per-pass step count T
}

// Stencil shape: w = 4, 16 block rows (n = 64), three retained blocks per
// band except at the edges.
const (
	stencilW      = 4
	stencilBlocks = 16
	stencilVecs   = 64
)

// stencilOperator returns the seeded block-tridiagonal operator. Its
// retained-block pattern, and so its compiled plan, is the same for every
// seed; only the values change.
func stencilOperator(rng *rand.Rand) *sparse.MatVec {
	n := stencilW * stencilBlocks
	a := matrix.NewDense(n, n)
	for r := 0; r < stencilBlocks; r++ {
		for s := r - 1; s <= r+1; s++ {
			if s < 0 || s >= stencilBlocks {
				continue
			}
			for i := 0; i < stencilW; i++ {
				for j := 0; j < stencilW; j++ {
					a.Set(r*stencilW+i, s*stencilW+j, float64(rng.Intn(9)-4)+rng.Float64())
				}
			}
		}
	}
	return sparse.NewMatVec(a, stencilW)
}

// newStencil builds the seeded operator and vector pool and solves every
// vector serially on a private arena.
func newStencil(rng *rand.Rand) (*stencil, error) {
	st := &stencil{t: stencilOperator(rng)}
	n := st.t.N
	ar := core.NewArena()
	for v := 0; v < stencilVecs; v++ {
		x := matrix.NewVector(n)
		b := matrix.NewVector(n)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
			b[i] = 2*rng.Float64() - 1
		}
		y := matrix.NewVector(n)
		ar.Reset()
		t, err := st.t.PassInto(ar, y, x, b, core.EngineCompiled)
		if err != nil {
			return nil, fmt.Errorf("serial reference sparse pass: %w", err)
		}
		st.xs, st.bs, st.ys, st.t1 = append(st.xs, x), append(st.bs, b), append(st.ys, y), t
	}
	return st, nil
}

// sameBits reports whether got and want hold bit-identical values.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}
