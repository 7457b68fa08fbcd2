package dbt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestByColumnsIndexRules(t *testing.T) {
	// n̄=2, m̄=3 at w=3: column-major order with the last block row's L
	// shifted one column.
	tr := NewMatVecByColumns(matrix.NewDense(6, 9), 3)
	wantU := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}
	wantL := [][2]int{{0, 0}, {1, 1}, {0, 1}, {1, 2}, {0, 2}, {1, 0}}
	for k := 0; k < tr.Blocks(); k++ {
		if r, s := tr.UpperIndex(k); r != wantU[k][0] || s != wantU[k][1] {
			t.Errorf("Ū_%d = U_{%d,%d}, want U_{%d,%d}", k, r, s, wantU[k][0], wantU[k][1])
		}
		if r, s := tr.LowerIndex(k); r != wantL[k][0] || s != wantL[k][1] {
			t.Errorf("L̄_%d = L_{%d,%d}, want L_{%d,%d}", k, r, s, wantL[k][0], wantL[k][1])
		}
	}
}

func TestByColumnsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for _, w := range []int{1, 2, 3, 4} {
		for n := 1; n <= 2*w+1; n += w {
			for m := 1; m <= 2*w+1; m += w {
				tr := NewMatVecByColumns(matrix.RandomDense(rng, n, m, 4), w)
				if err := tr.Validate(); err != nil {
					t.Errorf("n=%d m=%d w=%d: %v", n, m, w, err)
				}
			}
		}
	}
}

// TestByColumnsRecurrence: the block-level recurrence (BandAt + chaining)
// recovers y = A·x + b exactly — verified through the generic Transform
// plumbing rather than a bespoke recurrence.
func TestByColumnsRecurrence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(4)
		n := 1 + rng.Intn(3*w)
		m := 1 + rng.Intn(3*w)
		a := matrix.RandomDense(rng, n, m, 4)
		x := matrix.RandomVector(rng, m, 4)
		b := matrix.RandomVector(rng, n, 4)
		tr := NewMatVecByColumns(a, w)
		ybars := runTransform(tr, x, b)
		return tr.RecoverY(ybars).Equal(a.MulVec(x, b), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// runTransform executes any Transform at block level (the mathematical
// reference for the array).
func runTransform(t Transform, x, b matrix.Vector) []matrix.Vector {
	w, nbar, _ := t.Shape()
	xbar := t.TransformX(x)
	var bp matrix.Vector
	if b == nil {
		bp = matrix.NewVector(nbar * w)
	} else {
		bp = b.Pad(nbar * w)
	}
	ybars := make([]matrix.Vector, t.Blocks())
	for k := 0; k < t.Blocks(); k++ {
		y := make(matrix.Vector, w)
		switch src := t.BSource(k); src.Kind {
		case FromB:
			copy(y, bp[src.Index*w:(src.Index+1)*w])
		case FromFeedback:
			copy(y, ybars[src.Index])
		}
		for a := 0; a < w; a++ {
			i := k*w + a
			for j := i; j < i+w && j < t.BandCols(); j++ {
				y[a] += t.BandAt(i, j) * xbar[j]
			}
		}
		ybars[k] = y
	}
	return ybars
}

// TestByRowsThroughGenericRunner: the by-rows transform behaves identically
// under the generic runner (guards the Transform interface contract).
func TestByRowsThroughGenericRunner(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	a := matrix.RandomDense(rng, 7, 11, 4)
	x := matrix.RandomVector(rng, 11, 4)
	b := matrix.RandomVector(rng, 7, 4)
	tr := NewMatVec(a, 3)
	got := tr.RecoverY(runTransform(tr, x, b))
	if !got.Equal(a.MulVec(x, b), 0) {
		t.Error("generic runner diverges for by-rows")
	}
}

// TestByColumnsXStreamLocality: x̄ streams each block n̄ times in a row —
// the variant's selling point.
func TestByColumnsXStreamLocality(t *testing.T) {
	w := 3
	tr := NewMatVecByColumns(matrix.NewDense(2*w, 3*w), w)
	x := make(matrix.Vector, 3*w)
	for i := range x {
		x[i] = float64(i)
	}
	xbar := tr.TransformX(x)
	for k := 0; k < tr.Blocks(); k++ {
		s := k / tr.NBar
		for c := 0; c < w; c++ {
			if xbar[k*w+c] != x[s*w+c] {
				t.Fatalf("x̄ block %d element %d = %g, want x block %d", k, c, xbar[k*w+c], s)
			}
		}
	}
}

// TestByColumnsChaining: b̄ chains hop n̄ blocks (the longer feedback).
func TestByColumnsChaining(t *testing.T) {
	tr := NewMatVecByColumns(matrix.NewDense(6, 9), 3) // n̄=2, m̄=3
	wantB := []BSource{
		{FromB, 0}, {FromB, 1},
		{FromFeedback, 0}, {FromFeedback, 1},
		{FromFeedback, 2}, {FromFeedback, 3},
	}
	wantY := []YDest{
		{false, 2}, {false, 3},
		{false, 4}, {false, 5},
		{true, 0}, {true, 1},
	}
	for k := range wantB {
		if got := tr.BSource(k); got != wantB[k] {
			t.Errorf("BSource(%d) = %+v, want %+v", k, got, wantB[k])
		}
		if got := tr.YDest(k); got != wantY[k] {
			t.Errorf("YDest(%d) = %+v, want %+v", k, got, wantY[k])
		}
	}
}
