package schedule

import (
	"fmt"

	"repro/internal/systolic"
)

// TriSolve is a compiled schedule for the w-PE band triangular solver array
// (Kung & Leiserson's linear-system array, internal/trisolve): the full
// event plan of one L·x = b band solve of dimension n.
//
// Unlike the matrix-product plans there is no feedback topology to tabulate
// — the array's recurrence is self-feeding (every divider output re-enters
// the x stream at a fixed offset) — so the plan is purely the analytic
// cycle accounting plus the accumulation order: row i's partial sum
// collects L[i][i−d]·x_{i−d} for d *descending* from w−1 to 1 (the y item
// meets the farthest diagonal first as it moves left from PE w−1 to the
// divider at PE 0), then divides by L[i][i]. Each row is one reversed run
// with a compile-known clamped span — min(i, w−1) terms — so the replay
// kernels (kernel.go) carry no per-term boundary branch. Exec replays
// exactly the array's order, so results are bit-identical to the
// structural oracle.
type TriSolve struct {
	// W is the array size, N the system dimension.
	W, N int
	// Rows is N (kept for symmetry with the other plans' buffer sizing).
	Rows int
	// T is the step count the array would measure (2n + w − 2); MACs the
	// multiply–accumulate count of PEs 1..w−1; Divisions the division count
	// of PE 0 (= n).
	T, MACs, Divisions int

	// kern selects the replay kernel family for W (kernel.go).
	kern kern
}

// compileTriSolve builds the schedule for an n-dimensional band solve on w
// PEs. The whole plan is analytic: PE d fires once per row i ≥ d, the
// divider once per row, and the last x is available at cycle 2n + w − 2.
func compileTriSolve(n, w int) *TriSolve {
	if w < 1 || n < 0 {
		panic(fmt.Sprintf("schedule: invalid trisolve shape n=%d w=%d", n, w))
	}
	s := &TriSolve{W: w, N: n, Rows: n, Divisions: n, kern: kernelFor(w)}
	if n == 0 {
		return s
	}
	s.T = 2*n + w - 2
	for d := 1; d < w; d++ {
		if n > d {
			s.MACs += n - d
		}
	}
	return s
}

// Exec runs the compiled schedule over one problem's data. lband is the
// packed lower band (dbt.PackTriBand layout: lband[i*w+d] = L[i][i−d], zero
// outside the matrix or the stored band), b the right-hand side (len ≥ N)
// and x the output buffer (len ≥ N). Exec performs no allocation; each row
// is one reversed run clamped to min(i, w−1) terms, accumulated in the
// array's cycle order (descending diagonal) from the same zero
// initialization, so every float64 rounding step matches the structural
// simulator. Like the oracle, it panics on a zero diagonal.
func (s *TriSolve) Exec(lband, b, x []float64) {
	w := s.W
	if len(lband) < s.N*w || len(b) < s.N || len(x) < s.N {
		panic(fmt.Sprintf("schedule: Exec buffer sizes lband=%d b=%d x=%d for n=%d w=%d",
			len(lband), len(b), len(x), s.N, w))
	}
	// Head rows i < w−1: only diagonals d ≤ i land inside the matrix, so the
	// run clamps to i terms — the boundary the per-term branch used to test.
	head := w - 1
	if head > s.N {
		head = s.N
	}
	for i := 0; i < head; i++ {
		row := lband[i*w : (i+1)*w]
		v := dotRunRev(0, row[1:i+1], x[:i])
		diag := row[0]
		if diag == 0 {
			panic(fmt.Sprintf("trisolve: zero diagonal at row %d", i))
		}
		x[i] = (b[i] - v) / diag
	}
	// Full rows carry exactly w−1 terms: a constant-length reversed run the
	// width specializations unroll.
	for i := head; i < s.N; i++ {
		row := lband[i*w : (i+1)*w]
		var v float64
		switch s.kern {
		case kernW8:
			v = dotRunRev7(0, row[1:], x[i-7:])
		case kernW4:
			v = dotRunRev3(0, row[1:], x[i-3:])
		default:
			v = dotRunRev(0, row[1:w], x[i-w+1:i])
		}
		diag := row[0]
		if diag == 0 {
			panic(fmt.Sprintf("trisolve: zero diagonal at row %d", i))
		}
		x[i] = (b[i] - v) / diag
	}
}

// Activity returns the per-PE operation counts the array would measure: PE
// d ≥ 1 one MAC per row i ≥ d, PE 0 one division per row, Cycles = T.
func (s *TriSolve) Activity() *systolic.Activity {
	a := systolic.NewActivity(s.W)
	if s.N == 0 {
		return a
	}
	a.MACs[0] = s.N
	for d := 1; d < s.W; d++ {
		if s.N > d {
			a.MACs[d] = s.N - d
		}
	}
	a.Cycles = s.T
	return a
}
