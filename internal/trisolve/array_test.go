package trisolve

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/matrix"
)

// randLowerBand builds a nonsingular lower triangular band matrix.
func randLowerBand(rng *rand.Rand, n, w int) *matrix.Band {
	l := matrix.NewBand(n, n, -(w - 1), 0)
	for i := 0; i < n; i++ {
		for d := 1; d < w; d++ {
			if j := i - d; j >= 0 {
				l.Set(i, j, float64(rng.Intn(5)-2))
			}
		}
		l.Set(i, i, float64(1+rng.Intn(3)))
	}
	return l
}

func TestSolveBandExact(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, w := range []int{1, 2, 3, 5} {
		for _, n := range []int{1, 2, w, 3 * w, 17} {
			l := randLowerBand(rng, n, w)
			want := matrix.RandomVector(rng, n, 3)
			b := l.MulVec(want, nil)
			res := New(w).SolveBand(l, b)
			if !res.X.Equal(want, 1e-9) {
				t.Errorf("w=%d n=%d: wrong solution (off %g)", w, n, res.X.MaxAbsDiff(want))
			}
		}
	}
}

func TestSolveBandStepCount(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, w := range []int{1, 2, 4} {
		for _, n := range []int{1, 7, 3 * w} {
			l := randLowerBand(rng, n, w)
			res := New(w).SolveBand(l, matrix.NewVector(n))
			if got, want := res.T, analysis.TriSolveSteps(n, w); got != want {
				t.Errorf("w=%d n=%d: T=%d, want %d", w, n, got, want)
			}
		}
	}
}

func TestSolveBandDivisions(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	w, n := 3, 12
	l := randLowerBand(rng, n, w)
	res := New(w).SolveBand(l, matrix.NewVector(n))
	if res.Divisions != n {
		t.Errorf("divisions=%d, want %d", res.Divisions, n)
	}
	// MAC PEs: PE d executes one MAC per row i ≥ d.
	for d := 1; d < w; d++ {
		if got, want := res.Activity.MACs[d], n-d; got != want {
			t.Errorf("PE %d: %d MACs, want %d", d, got, want)
		}
	}
}

func TestSolveBandValidation(t *testing.T) {
	ar := New(2)
	for _, f := range []func(){
		func() { New(0) },
		func() { ar.SolveBand(matrix.NewBand(2, 3, -1, 0), make(matrix.Vector, 2)) },
		func() { ar.SolveBand(matrix.NewBand(2, 2, -1, 1), make(matrix.Vector, 2)) },
		func() { ar.SolveBand(matrix.NewBand(2, 2, -1, 0), make(matrix.Vector, 1)) },
		func() { // zero diagonal
			l := matrix.NewBand(2, 2, -1, 0)
			l.Set(1, 0, 1)
			ar.SolveBand(l, make(matrix.Vector, 2))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestSolveLowerDense: the blocked size-independent solver is exact for
// arbitrary sizes on a fixed array, with one triangular pass per block row
// and one panel pass per block below the diagonal.
func TestSolveLowerDense(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for _, w := range []int{2, 3, 4} {
		tw := NewWorkspace(w)
		for _, n := range []int{1, w, 2*w + 1, 4 * w} {
			l := randomLower(rng, n)
			want := matrix.RandomVector(rng, n, 3)
			b := l.MulVec(want, nil)
			x := make(matrix.Vector, n)
			st, err := tw.SolveLowerInto(x, l, b, core.EngineAuto)
			if err != nil {
				t.Fatalf("w=%d n=%d: %v", w, n, err)
			}
			if !x.Equal(want, 1e-9) {
				t.Errorf("w=%d n=%d: wrong solution (off %g)", w, n, x.MaxAbsDiff(want))
			}
			nb := (n + w - 1) / w
			if st.TriPasses != nb {
				t.Errorf("w=%d n=%d: %d triangular passes, want %d", w, n, st.TriPasses, nb)
			}
			if want := nb * (nb - 1) / 2; st.MatVecPasses != want {
				t.Errorf("w=%d n=%d: %d matvec passes, want %d", w, n, st.MatVecPasses, want)
			}
		}
	}
}

func TestSolveUpperDense(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	w, n := 3, 10
	u := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			u.Set(i, j, float64(rng.Intn(5)-2))
		}
		u.Set(i, i, float64(1+rng.Intn(3)))
	}
	want := matrix.RandomVector(rng, n, 3)
	b := u.MulVec(want, nil)
	x := make(matrix.Vector, n)
	if _, err := NewWorkspace(w).SolveUpperInto(x, u, b, core.EngineAuto); err != nil {
		t.Fatal(err)
	}
	if !x.Equal(want, 1e-9) {
		t.Errorf("wrong solution (off %g)", x.MaxAbsDiff(want))
	}
}

// TestSolverValidation: the upper solve rejects malformed input before any
// array pass, and a zero pivot or a non-triangular matrix with an error.
func TestSolverValidation(t *testing.T) {
	tw := NewWorkspace(2)
	x := make(matrix.Vector, 2)
	if _, err := tw.SolveUpperInto(x, matrix.NewDense(2, 3), make(matrix.Vector, 2), core.EngineAuto); err == nil {
		t.Error("expected non-square upper error")
	}
	if _, err := tw.SolveUpperInto(x, identity(2), make(matrix.Vector, 3), core.EngineAuto); err == nil {
		t.Error("expected upper rhs length error")
	}
	if _, err := tw.SolveUpperInto(x, matrix.NewDense(2, 2), make(matrix.Vector, 2), core.EngineAuto); !errors.Is(err, ErrSingular) {
		t.Errorf("upper err = %v, want ErrSingular", err)
	}
	notU := matrix.FromRows([][]float64{{1, 0}, {1, 1}})
	if _, err := tw.SolveUpperInto(x, notU, make(matrix.Vector, 2), core.EngineAuto); err == nil {
		t.Error("expected not-upper error")
	}
}

func identity(n int) *matrix.Dense {
	id := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	return id
}
