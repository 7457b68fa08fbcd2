package solve

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// diagonallyDominant builds a strictly diagonally dominant n×n system.
func diagonallyDominant(rng *rand.Rand, n int) (*matrix.Dense, matrix.Vector) {
	a := matrix.RandomDense(rng, n, n, 3)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				rowSum += math.Abs(a.At(i, j))
			}
		}
		a.Set(i, i, rowSum+1+float64(rng.Intn(3)))
	}
	d := matrix.RandomVector(rng, n, 5)
	return a, d
}

func TestJacobiConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{3, 7, 12} {
		a, d := diagonallyDominant(rng, n)
		x, stats, err := Jacobi(a, d, 3, 500, 1e-10, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v (residual %g after %d sweeps)", n, err, stats.Residual, stats.Sweeps)
		}
		if got := a.MulVec(x, nil); !got.Equal(d, 1e-8) {
			t.Errorf("n=%d: residual too large", n)
		}
		if stats.ArraySteps == 0 {
			t.Errorf("n=%d: no array work recorded", n)
		}
	}
}

func TestGaussSeidelConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{3, 8, 13} {
		a, d := diagonallyDominant(rng, n)
		x, stats, err := GaussSeidel(a, d, 3, 500, 1e-10, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := a.MulVec(x, nil); !got.Equal(d, 1e-8) {
			t.Errorf("n=%d: residual too large", n)
		}
		if stats.Sweeps == 0 || stats.ArraySteps == 0 {
			t.Errorf("n=%d: stats not recorded: %+v", n, stats)
		}
	}
}

// TestGaussSeidelFasterThanJacobi: on the same system, Gauss–Seidel needs
// no more sweeps than Jacobi (classical result; here a sanity check that
// the block updates really use fresh values).
func TestGaussSeidelFasterThanJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a, d := diagonallyDominant(rng, 12)
	_, js, err := Jacobi(a, d, 3, 1000, 1e-10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, gs, err := GaussSeidel(a, d, 3, 1000, 1e-10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gs.Sweeps > js.Sweeps {
		t.Errorf("Gauss-Seidel %d sweeps vs Jacobi %d", gs.Sweeps, js.Sweeps)
	}
}

func TestJacobiNoConvergence(t *testing.T) {
	// A non-dominant rotation-like system that Jacobi cannot solve in 3 sweeps.
	a := matrix.FromRows([][]float64{{1, 2}, {3, 1}})
	d := matrix.Vector{1, 1}
	_, _, err := Jacobi(a, d, 2, 3, 1e-12, Options{})
	if err == nil {
		t.Error("expected ErrNoConvergence")
	}
}

func TestSolveValidation(t *testing.T) {
	a := matrix.NewDense(2, 3)
	if _, _, err := Jacobi(a, make(matrix.Vector, 2), 2, 5, 1e-6, Options{}); err == nil {
		t.Error("expected non-square error")
	}
	sq := matrix.FromRows([][]float64{{0, 1}, {1, 1}})
	if _, _, err := Jacobi(sq, make(matrix.Vector, 2), 2, 5, 1e-6, Options{}); err == nil {
		t.Error("expected zero-diagonal error")
	}
	if _, _, err := GaussSeidel(a, make(matrix.Vector, 2), 2, 5, 1e-6, Options{}); err == nil {
		t.Error("expected non-square error")
	}
}
