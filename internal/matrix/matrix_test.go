package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, -3)
	if m.At(0, 0) != 1 || m.At(1, 2) != -3 || m.At(0, 1) != 0 {
		t.Error("Set/At broken")
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Error("dims broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases storage")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Error("FromRows broken")
	}
	if got := FromRows(nil); got.Rows() != 0 {
		t.Error("empty FromRows")
	}
	mustPanic(t, func() { FromRows([][]float64{{1}, {1, 2}}) })
}

func TestPadSlice(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	p := m.Pad(3, 4)
	if p.At(1, 1) != 4 || p.At(2, 3) != 0 {
		t.Error("Pad broken")
	}
	s := p.Slice(0, 2, 0, 2)
	if !s.Equal(m, 0) {
		t.Error("Slice broken")
	}
	mustPanic(t, func() { m.Pad(1, 5) })
	mustPanic(t, func() { m.Slice(0, 3, 0, 1) })
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := RandomDense(rng, 1+rng.Intn(8), 1+rng.Intn(8), 5)
		return m.Transpose().Transpose().Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMulVecLinearity: A(x+y) = Ax + Ay (property).
func TestMulVecLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(6), 1+rng.Intn(6)
		a := RandomDense(rng, n, m, 4)
		x := RandomVector(rng, m, 4)
		y := RandomVector(rng, m, 4)
		sum := make(Vector, m)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		lhs := a.MulVec(sum, nil)
		rx, ry := a.MulVec(x, nil), a.MulVec(y, nil)
		for i := range lhs {
			if lhs[i] != rx[i]+ry[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMulAssociativeWithVec: (A·B)·x = A·(B·x) with integer data (exact).
func TestMulAssociativeWithVec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p, m := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandomDense(rng, n, p, 3)
		b := RandomDense(rng, p, m, 3)
		x := RandomVector(rng, m, 3)
		lhs := a.Mul(b).MulVec(x, nil)
		rhs := a.MulVec(b.MulVec(x, nil), nil)
		return lhs.Equal(rhs, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTransposeProduct: (A·B)ᵀ = Bᵀ·Aᵀ (property).
func TestTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p, m := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandomDense(rng, n, p, 3)
		b := RandomDense(rng, p, m, 3)
		return a.Mul(b).Transpose().Equal(b.Transpose().Mul(a.Transpose()), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	if !v.Pad(5).Equal(Vector{1, 2, 3, 0, 0}, 0) {
		t.Error("Pad broken")
	}
	if !v.Block(1, 2).Equal(Vector{3}, 0) {
		t.Error("short tail Block broken")
	}
	if v.MaxAbsDiff(Vector{1, 2, 5}) != 2 {
		t.Error("MaxAbsDiff broken")
	}
	mustPanic(t, func() { v.Pad(1) })
}

func TestEqualAndDiff(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1, 2.4}})
	if a.Equal(b, 0.3) || !a.Equal(b, 0.5) {
		t.Error("tolerance comparison broken")
	}
	if d := a.MaxAbsDiff(b); d < 0.39 || d > 0.41 {
		t.Errorf("MaxAbsDiff=%g", d)
	}
	if !a.Equal(a, 0) {
		t.Error("self equality")
	}
	if a.Equal(NewDense(2, 2), 100) {
		t.Error("shape mismatch must not be equal")
	}
}

func TestAddMIsZero(t *testing.T) {
	a := FromRows([][]float64{{1, -1}})
	b := FromRows([][]float64{{-1, 1}})
	if !a.AddM(b).Equal(NewDense(1, 2), 0) {
		t.Error("AddM of opposite matrices is not zero")
	}
	mustPanic(t, func() { a.AddM(NewDense(2, 2)) })
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
