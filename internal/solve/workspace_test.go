package solve

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/matrix"
	"repro/internal/trisolve"
)

// TestWorkspaceReuse: repeated solves on one workspace — different
// problems, different shapes — must match fresh-workspace solves exactly
// (no state leaking between calls).
func TestWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	w := 3
	ws := NewWorkspace(w)
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(14)
		a, _ := diagonallyDominant(rng, n)
		d := a.MulVec(matrix.RandomVector(rng, n, 4), nil)
		x, st, err := ws.Solve(a, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		xf, stf, err := Solve(a, d, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !x.Equal(xf, 0) || !reflect.DeepEqual(st, stf) {
			t.Fatalf("trial %d (n=%d): reused workspace differs from fresh", trial, n)
		}
	}
}

// TestSingularThenHealthy: a zero pivot surfaces as a *SingularError at
// pivot 0, and the same workspace then factors a healthy matrix exactly as
// a fresh workspace does.
func TestSingularThenHealthy(t *testing.T) {
	ws := NewWorkspace(2)
	singular := matrix.NewDense(4, 4) // all zeros: pivot fails immediately
	_, _, _, err := ws.BlockLU(singular, Options{})
	if !errors.Is(err, trisolve.ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	var serr *SingularError
	if !errors.As(err, &serr) || serr.Index != 0 {
		t.Fatalf("err = %#v, want a *SingularError at pivot 0", err)
	}
	rng := rand.New(rand.NewSource(404))
	a, _ := diagonallyDominant(rng, 6)
	l, u, st, err := ws.BlockLU(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lf, uf, stf, err := NewWorkspace(2).BlockLU(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Equal(lf, 0) || !u.Equal(uf, 0) || !reflect.DeepEqual(st, stf) {
		t.Fatal("workspace that hit a singular pivot factors differently from a fresh one")
	}
}
