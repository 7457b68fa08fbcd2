package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// TestArenaPassesMatchSolvers: the arena pass API must be bit-identical to
// the public solvers on both engines — values and step counts — and the
// two engines must agree with each other, shape by shape.
func TestArenaPassesMatchSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ar := NewArena()
	for trial := 0; trial < 40; trial++ {
		w := 1 + rng.Intn(4)
		n, m := 1+rng.Intn(3*w), 1+rng.Intn(3*w)
		a := matrix.RandomDense(rng, n, m, 5)
		x := matrix.RandomVector(rng, m, 5)
		b := matrix.RandomVector(rng, n, 5)
		if rng.Intn(3) == 0 {
			b = nil
		}
		ref, err := NewMatVecSolver(w).Solve(a, x, b, MatVecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var prev matrix.Vector
		for _, eng := range []Engine{EngineCompiled, EngineOracle} {
			ar.Reset()
			dst := make(matrix.Vector, n)
			steps, err := ar.MatVecPass(dst, a, x, b, w, eng)
			if err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(ref.Y, 0) {
				t.Fatalf("%v MatVecPass differs from Solve (w=%d n=%d m=%d)", eng, w, n, m)
			}
			if steps != ref.Stats.T {
				t.Fatalf("%v MatVecPass T=%d, Solve T=%d", eng, steps, ref.Stats.T)
			}
			if prev != nil && !dst.Equal(prev, 0) {
				t.Fatal("engines disagree in MatVecPass")
			}
			prev = dst
		}

		p := 1 + rng.Intn(2*w)
		am := matrix.RandomDense(rng, n, p, 4)
		bm := matrix.RandomDense(rng, p, m, 4)
		var e *matrix.Dense
		if rng.Intn(2) == 0 {
			e = matrix.RandomDense(rng, n, m, 4)
		}
		mref, err := NewMatMulSolver(w).Solve(am, bm, MatMulOptions{E: e})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []Engine{EngineCompiled, EngineOracle} {
			ar.Reset()
			dst := matrix.NewDense(n, m)
			steps, err := ar.MatMulPass(dst, am, bm, e, w, eng)
			if err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(mref.C, 0) {
				t.Fatalf("%v MatMulPass differs from Solve (w=%d n=%d p=%d m=%d)", eng, w, n, p, m)
			}
			if steps != mref.Stats.T {
				t.Fatalf("%v MatMulPass T=%d, Solve T=%d", eng, steps, mref.Stats.T)
			}
		}
	}
}

// TestArenaScratchReuse: Floats and Dense hand out distinct buffers within
// one Reset window and recycle them across windows.
func TestArenaScratchReuse(t *testing.T) {
	ar := NewArena()
	a := ar.Floats(8)
	b := ar.Floats(4)
	if &a[0] == &b[0] {
		t.Fatal("Floats returned overlapping buffers in one window")
	}
	m1 := ar.Dense(2, 3)
	m2 := ar.Dense(2, 3)
	if m1 == m2 {
		t.Fatal("Dense returned the same matrix twice in one window")
	}
	ar.Reset()
	if a2 := ar.Floats(6); &a2[0] != &a[0] {
		t.Fatal("Floats did not recycle the first slot after Reset")
	}
	if m := ar.Dense(3, 2); m != m1 {
		t.Fatal("Dense did not recycle the first slot after Reset")
	}
}
