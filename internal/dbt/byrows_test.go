package dbt

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

func TestMatVecDimensions(t *testing.T) {
	cases := []struct {
		n, m, w            int
		nbar, mbar         int
		bandRows, bandCols int
	}{
		{6, 9, 3, 2, 3, 18, 20},   // the paper's Fig. 2/3 example
		{3, 3, 3, 1, 1, 3, 5},     // PRT special case n̄=m̄=1
		{1, 1, 4, 1, 1, 4, 7},     // heavy padding
		{7, 5, 3, 3, 2, 18, 20},   // non-multiples
		{10, 10, 5, 2, 2, 20, 24}, // square
	}
	for _, c := range cases {
		a := matrix.NewDense(c.n, c.m)
		tr := NewMatVec(a, c.w)
		if tr.NBar != c.nbar || tr.MBar != c.mbar {
			t.Errorf("n=%d m=%d w=%d: got n̄=%d m̄=%d want %d %d", c.n, c.m, c.w, tr.NBar, tr.MBar, c.nbar, c.mbar)
		}
		if tr.BandRows() != c.bandRows || tr.BandCols() != c.bandCols {
			t.Errorf("n=%d m=%d w=%d: band %d×%d want %d×%d", c.n, c.m, c.w, tr.BandRows(), tr.BandCols(), c.bandRows, c.bandCols)
		}
	}
}

func TestMatVecValidateConditions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{1, 2, 3, 4, 5} {
		for n := 1; n <= 2*w+1; n += w {
			for m := 1; m <= 2*w+1; m += w {
				tr := NewMatVec(matrix.RandomDense(rng, n, m, 5), w)
				if err := tr.Validate(); err != nil {
					t.Errorf("n=%d m=%d w=%d: %v", n, m, w, err)
				}
			}
		}
	}
}

func TestMatVecIndexRules(t *testing.T) {
	// Spot-check the paper's DBT-by-rows rules for the Fig. 2 example
	// (n̄=2, m̄=3): Ū_k = U_{⌊k/m̄⌋, k mod m̄}, L̄_k = L_{⌊k/m̄⌋, (k mod m̄+1) mod m̄}.
	tr := NewMatVec(matrix.NewDense(6, 9), 3)
	wantU := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	wantL := [][2]int{{0, 1}, {0, 2}, {0, 0}, {1, 1}, {1, 2}, {1, 0}}
	for k := 0; k < tr.Blocks(); k++ {
		if r, s := tr.UpperIndex(k); r != wantU[k][0] || s != wantU[k][1] {
			t.Errorf("Ū_%d = U_{%d,%d}, want U_{%d,%d}", k, r, s, wantU[k][0], wantU[k][1])
		}
		if r, s := tr.LowerIndex(k); r != wantL[k][0] || s != wantL[k][1] {
			t.Errorf("L̄_%d = L_{%d,%d}, want L_{%d,%d}", k, r, s, wantL[k][0], wantL[k][1])
		}
	}
}

func TestMatVecBandIsFull(t *testing.T) {
	// The paper's central claim for efficiency: the transformed band is
	// completely filled ("no empty position") when A is dense. Use an
	// all-ones matrix with dimensions that are exact multiples of w so no
	// padding zeros appear.
	for _, w := range []int{2, 3, 4} {
		a := matrix.NewDense(2*w, 3*w)
		for i := 0; i < a.Rows(); i++ {
			for j := 0; j < a.Cols(); j++ {
				a.Set(i, j, 1)
			}
		}
		tr := NewMatVec(a, w)
		band := tr.Band()
		if got, want := band.NonzeroCount(), band.StoredCount(); got != want {
			t.Errorf("w=%d: band has %d nonzeros of %d stored positions", w, got, want)
		}
	}
}

func TestMatVecBSourceYDest(t *testing.T) {
	tr := NewMatVec(matrix.NewDense(6, 9), 3) // n̄=2, m̄=3
	// b̄: block 0 ← b_0, blocks 1,2 ← feedback, block 3 ← b_1, blocks 4,5 ← feedback.
	wantB := []BSource{
		{FromB, 0}, {FromFeedback, 0}, {FromFeedback, 1},
		{FromB, 1}, {FromFeedback, 3}, {FromFeedback, 4},
	}
	wantY := []YDest{
		{false, 1}, {false, 2}, {true, 0},
		{false, 4}, {false, 5}, {true, 1},
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

// TestMatVecRecurrenceCorrect is the core matvec property: the block-level
// recurrence with feedback recovers exactly y = A·x + b for every shape.
func TestMatVecRecurrenceCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range []int{1, 2, 3, 4, 5} {
		for _, n := range []int{1, 2, w - 1, w, w + 1, 2 * w, 3*w - 1} {
			for _, m := range []int{1, 2, w - 1, w, w + 1, 2 * w, 3*w + 1} {
				if n < 1 || m < 1 {
					continue
				}
				a := matrix.RandomDense(rng, n, m, 4)
				x := matrix.RandomVector(rng, m, 4)
				b := matrix.RandomVector(rng, n, 4)
				tr := NewMatVec(a, w)
				got := tr.RecoverY(tr.BlockRecurrence(x, b))
				want := a.MulVec(x, b)
				if !got.Equal(want, 0) {
					t.Errorf("w=%d n=%d m=%d: recurrence diverges by %g", w, n, m, got.MaxAbsDiff(want))
				}
			}
		}
	}
}

func TestMatVecRecurrenceNilB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := matrix.RandomDense(rng, 5, 7, 4)
	x := matrix.RandomVector(rng, 7, 4)
	tr := NewMatVec(a, 3)
	got := tr.RecoverY(tr.BlockRecurrence(x, nil))
	want := a.MulVec(x, nil)
	if !got.Equal(want, 0) {
		t.Errorf("nil b: diverges by %g", got.MaxAbsDiff(want))
	}
}

// TestMatVecBandEqualsTransform checks that multiplying the materialized
// band Ā by x̄ block-wise reproduces the recurrence outputs: the band view
// and the recurrence view of the transformation agree.
func TestMatVecBandEqualsTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, w := range []int{2, 3, 4} {
		a := matrix.RandomDense(rng, 2*w+1, 3*w-1, 4)
		x := matrix.RandomVector(rng, a.Cols(), 4)
		b := matrix.RandomVector(rng, a.Rows(), 4)
		tr := NewMatVec(a, w)
		band := tr.Band()
		xbar := tr.TransformX(x)
		ybars := tr.BlockRecurrence(x, b)
		// Row block k of Ā times x̄ must equal ȳ_k minus its initialization.
		for k := 0; k < tr.Blocks(); k++ {
			for aIdx := 0; aIdx < w; aIdx++ {
				i := k*w + aIdx
				s := 0.0
				for j := i; j < i+w && j < tr.BandCols(); j++ {
					s += band.At(i, j) * xbar[j]
				}
				var init float64
				src := tr.BSource(k)
				if src.Kind == FromB {
					bb := b.Pad(tr.NBar * w)
					init = bb[src.Index*w+aIdx]
				} else {
					init = ybars[src.Index][aIdx]
				}
				if got, want := s+init, ybars[k][aIdx]; got != want {
					t.Fatalf("w=%d k=%d a=%d: band row gives %g, recurrence %g", w, k, aIdx, got, want)
				}
			}
		}
	}
}

func TestMatVecTransformXTail(t *testing.T) {
	// The tail x̄_{n̄m̄} must be the first w−1 elements of x_0 (the x block
	// selected by L̄_{n̄m̄−1} under DBT-by-rows).
	w := 4
	a := matrix.NewDense(2*w, 3*w)
	x := make(matrix.Vector, 3*w)
	for i := range x {
		x[i] = float64(i + 1)
	}
	tr := NewMatVec(a, w)
	xbar := tr.TransformX(x)
	if len(xbar) != tr.BandCols() {
		t.Fatalf("len(x̄) = %d, want %d", len(xbar), tr.BandCols())
	}
	tail := xbar[len(xbar)-(w-1):]
	for i := 0; i < w-1; i++ {
		if tail[i] != x[i] {
			t.Errorf("tail[%d] = %g, want %g", i, tail[i], x[i])
		}
	}
	// And x̄_k = x_{k mod m̄} for every block.
	for k := 0; k < tr.Blocks(); k++ {
		for c := 0; c < w; c++ {
			if xbar[k*w+c] != x[(k%tr.MBar)*w+c] {
				t.Errorf("x̄_%d[%d] = %g, want %g", k, c, xbar[k*w+c], x[(k%tr.MBar)*w+c])
			}
		}
	}
}

func TestMatVecPanicsOnBadInput(t *testing.T) {
	tr := NewMatVec(matrix.NewDense(4, 4), 2)
	mustPanic(t, func() { tr.TransformX(make(matrix.Vector, 3)) })
	mustPanic(t, func() { tr.BlockRecurrence(make(matrix.Vector, 3), nil) })
	mustPanic(t, func() { tr.BSource(99) })
	mustPanic(t, func() { tr.UpperIndex(-1) })
	mustPanic(t, func() { tr.RecoverY(nil) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}
