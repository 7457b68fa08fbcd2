package trisolve

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// randomLower builds a unit-free nonsingular dense lower triangular matrix.
func randomLower(rng *rand.Rand, n int) *matrix.Dense {
	l := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, float64(rng.Intn(5)-2))
		}
		l.Set(i, i, float64(1+rng.Intn(3)))
	}
	return l
}

// TestWorkspaceBandMatchesEngine: SolveBandInto must be bit-identical to
// Array.SolveBandEngine on both engines, across shapes and reuse.
func TestWorkspaceBandMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, w := range []int{1, 2, 3, 5} {
		tw := NewWorkspace(w)
		ar := New(w)
		for _, n := range []int{1, 2, w, 2*w + 1, 17} {
			l := matrix.NewBand(n, n, -(w - 1), 0)
			for i := 0; i < n; i++ {
				for d := 1; d < w; d++ {
					if j := i - d; j >= 0 {
						l.Set(i, j, float64(rng.Intn(5)-2))
					}
				}
				l.Set(i, i, float64(1+rng.Intn(3)))
			}
			b := matrix.RandomVector(rng, n, 4)
			for _, eng := range []core.Engine{core.EngineOracle, core.EngineCompiled} {
				ref, err := ar.SolveBandEngine(l, b, eng)
				if err != nil {
					t.Fatal(err)
				}
				x := make(matrix.Vector, n)
				steps, err := tw.SolveBandInto(x, l, b, eng)
				if err != nil {
					t.Fatal(err)
				}
				if !x.Equal(ref.X, 0) || steps != ref.T {
					t.Fatalf("%v w=%d n=%d: SolveBandInto differs (T %d vs %d)", eng, w, n, steps, ref.T)
				}
			}
		}
	}
}

// TestWorkspaceLowerUpper: the right-looking workspace solver must solve
// exactly (against reference arithmetic) and bit-identically across engines
// (stats included).
func TestWorkspaceLowerUpper(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, w := range []int{1, 2, 3, 4} {
		ws := NewWorkspace(w)
		for _, n := range []int{1, w, 2*w + 1, 3 * w, 14} {
			l := randomLower(rng, n)
			want := matrix.RandomVector(rng, n, 3)
			b := l.MulVec(want, nil)

			x := make(matrix.Vector, n)
			st, err := ws.SolveLowerInto(x, l, b, core.EngineCompiled)
			if err != nil {
				t.Fatal(err)
			}
			if !x.Equal(want, 1e-8) {
				t.Fatalf("w=%d n=%d: wrong solution (off %g)", w, n, x.MaxAbsDiff(want))
			}
			xo := make(matrix.Vector, n)
			sto, err := ws.SolveLowerInto(xo, l, b, core.EngineOracle)
			if err != nil {
				t.Fatal(err)
			}
			if !x.Equal(xo, 0) || !reflect.DeepEqual(st, sto) {
				t.Fatalf("w=%d n=%d: engines disagree\ncompiled %+v\noracle   %+v", w, n, st, sto)
			}
			// Upper solve through the mirror.
			u := l.Transpose()
			bu := u.MulVec(want, nil)
			xu := make(matrix.Vector, n)
			stu, err := ws.SolveUpperInto(xu, u, bu, core.EngineCompiled)
			if err != nil {
				t.Fatal(err)
			}
			if !xu.Equal(want, 1e-8) {
				t.Fatalf("w=%d n=%d: wrong upper solution (off %g)", w, n, xu.MaxAbsDiff(want))
			}
			xuo := make(matrix.Vector, n)
			stuo, err := ws.SolveUpperInto(xuo, u, bu, core.EngineOracle)
			if err != nil {
				t.Fatal(err)
			}
			if !xu.Equal(xuo, 0) || !reflect.DeepEqual(stu, stuo) {
				t.Fatalf("w=%d n=%d: upper engines disagree", w, n)
			}
		}
	}
}

// TestWorkspaceErrors: SolveLowerInto returns errors for malformed shapes,
// a zero pivot and a matrix that is not lower triangular, instead of
// panicking or returning garbage.
func TestWorkspaceErrors(t *testing.T) {
	tw := NewWorkspace(2)
	x := make(matrix.Vector, 2)
	if _, err := tw.SolveLowerInto(x, matrix.NewDense(2, 3), make(matrix.Vector, 2), core.EngineAuto); err == nil {
		t.Error("expected non-square error")
	}
	if _, err := tw.SolveLowerInto(x, matrix.NewDense(2, 2), make(matrix.Vector, 3), core.EngineAuto); err == nil {
		t.Error("expected length error")
	}
	if _, err := tw.SolveLowerInto(x, matrix.NewDense(2, 2), make(matrix.Vector, 2), core.EngineAuto); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	} else {
		var serr *SingularError
		if !errors.As(err, &serr) || serr.Index != 0 {
			t.Errorf("err = %#v, want a *SingularError at pivot 0", err)
		}
	}
	notLower := matrix.FromRows([][]float64{{1, 5}, {0, 1}})
	if _, err := tw.SolveLowerInto(x, notLower, make(matrix.Vector, 2), core.EngineAuto); err == nil {
		t.Error("expected not-lower-triangular error")
	}
}
