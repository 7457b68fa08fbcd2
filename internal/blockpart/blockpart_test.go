package blockpart

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestCeil(t *testing.T) {
	cases := [][3]int{{1, 3, 1}, {3, 3, 1}, {4, 3, 2}, {9, 3, 3}, {10, 3, 4}, {5, 1, 5}}
	for _, c := range cases {
		if got := Ceil(c[0], c[1]); got != c[2] {
			t.Errorf("Ceil(%d,%d)=%d, want %d", c[0], c[1], got, c[2])
		}
	}
	mustPanic(t, func() { Ceil(0, 3) })
	mustPanic(t, func() { Ceil(3, 0) })
}

func TestPartitionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a := matrix.RandomDense(rng, 7, 10, 4)
	g := Partition(a, 3)
	if g.BlockRows != 3 || g.BlockCols != 4 {
		t.Errorf("grid %d×%d, want 3×4", g.BlockRows, g.BlockCols)
	}
	if g.Padded().Rows() != 9 || g.Padded().Cols() != 12 {
		t.Error("padding wrong")
	}
	// Padding area must be zero.
	if g.Padded().At(8, 11) != 0 || g.Padded().At(7, 0) != 0 {
		t.Error("padding not zero")
	}
	// Original region preserved.
	if g.Padded().At(6, 9) != a.At(6, 9) {
		t.Error("original data lost")
	}
	mustPanic(t, func() { Partition(a, 0) })
	mustPanic(t, func() { g.Block(3, 0) })
}

// TestSplitIsExact: U_rs + L_rs = A_rs for every block (property), with U
// holding the main diagonal.
func TestSplitIsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(5)
		a := matrix.RandomDense(rng, 1+rng.Intn(3*w), 1+rng.Intn(3*w), 4)
		g := Partition(a, w)
		for r := 0; r < g.BlockRows; r++ {
			for s := 0; s < g.BlockCols; s++ {
				blk := g.Block(r, s)
				// U on and above the diagonal, L strictly below, U+L = A_rs.
				for i := 0; i < w; i++ {
					for j := 0; j < w; j++ {
						u, l := g.UpperAt(r, s, i, j), g.LowerAt(r, s, i, j)
						if u+l != blk.At(i, j) || j < i && u != 0 || j >= i && l != 0 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTriangleAccessors(t *testing.T) {
	a := matrix.FromRows([][]float64{
		{1, 2},
		{3, 4},
	})
	g := Partition(a, 2)
	if g.UpperAt(0, 0, 0, 1) != 2 || g.UpperAt(0, 0, 1, 0) != 0 {
		t.Error("UpperAt broken")
	}
	if g.LowerAt(0, 0, 1, 0) != 3 || g.LowerAt(0, 0, 0, 1) != 0 {
		t.Error("LowerAt broken")
	}
	if g.UpperAt(0, 0, 1, 1) != 4 { // diagonal belongs to U
		t.Error("diagonal must belong to U")
	}
	if g.At(0, 0, 0, 0) != 1 {
		t.Error("At broken")
	}
}

func TestBlockIsZero(t *testing.T) {
	a := matrix.NewDense(4, 4)
	a.Set(3, 3, 5)
	g := Partition(a, 2)
	if !g.BlockIsZero(0, 0) || g.BlockIsZero(1, 1) {
		t.Error("BlockIsZero broken")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
