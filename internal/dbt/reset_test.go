package dbt

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// TestResetMatchesNew: a transform rebuilt in place across a sequence of
// random shapes must be indistinguishable from a freshly constructed one —
// band contents, x̄ stream and recovered y alike.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	reused := &MatVec{}
	for trial := 0; trial < 25; trial++ {
		w := 1 + rng.Intn(4)
		n, m := 1+rng.Intn(3*w), 1+rng.Intn(3*w)
		a := matrix.RandomDense(rng, n, m, 5)
		reused.Reset(a, w)
		fresh := NewMatVec(a, w)
		if reused.W != fresh.W || reused.NBar != fresh.NBar || reused.MBar != fresh.MBar ||
			reused.N != fresh.N || reused.M != fresh.M {
			t.Fatalf("Reset header mismatch: %+v vs %+v", reused, fresh)
		}
		for i := 0; i < fresh.BandRows(); i++ {
			for d := 0; d < w; d++ {
				if j := i + d; j < fresh.BandCols() {
					if reused.BandAt(i, j) != fresh.BandAt(i, j) {
						t.Fatalf("Reset band mismatch at (%d,%d)", i, j)
					}
				}
			}
		}
		x := matrix.RandomVector(rng, m, 5)
		if !reused.TransformX(x).Equal(fresh.TransformX(x), 0) {
			t.Fatal("Reset x̄ stream mismatch")
		}
	}
}

// TestRecoverYFlat: recovering y from the flat ȳ buffer must match the
// per-block RecoverY on every shape, ragged tails included.
func TestRecoverYFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		w := 1 + rng.Intn(4)
		n, m := 1+rng.Intn(3*w), 1+rng.Intn(3*w)
		tr := NewMatVec(matrix.RandomDense(rng, n, m, 5), w)
		flat := make([]float64, tr.BandRows())
		for i := range flat {
			flat[i] = float64(rng.Intn(19) - 9)
		}
		ybars := make([]matrix.Vector, tr.Blocks())
		for k := range ybars {
			ybars[k] = matrix.Vector(flat[k*w : (k+1)*w]).Clone()
		}
		want := tr.RecoverY(ybars)
		got := tr.RecoverYFlat(make(matrix.Vector, n), flat)
		if !got.Equal(want, 0) {
			t.Fatalf("RecoverYFlat mismatch (w=%d n=%d m=%d)", w, n, m)
		}
	}
}
