package solve

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/trisolve"
)

func TestBlockLUFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, n := range []int{1, 3, 6, 10, 13} {
		for _, w := range []int{2, 3, 4} {
			a, _ := diagonallyDominant(rng, n)
			l, u, stats, err := BlockLU(a, w, Options{})
			if err != nil {
				t.Fatalf("n=%d w=%d: %v", n, w, err)
			}
			if !l.Mul(u).Equal(a, 1e-8) {
				t.Errorf("n=%d w=%d: L·U ≠ A (off by %g)", n, w, l.Mul(u).MaxAbsDiff(a))
			}
			// Shape: unit lower / upper triangular.
			for i := 0; i < n; i++ {
				if l.At(i, i) != 1 {
					t.Errorf("L[%d][%d]=%g, want 1", i, i, l.At(i, i))
				}
				for j := i + 1; j < n; j++ {
					if l.At(i, j) != 0 {
						t.Errorf("L[%d][%d]=%g above diagonal", i, j, l.At(i, j))
					}
				}
				for j := 0; j < i; j++ {
					if u.At(i, j) != 0 {
						t.Errorf("U[%d][%d]=%g below diagonal", i, j, u.At(i, j))
					}
				}
			}
			if n > w && stats.ArrayPasses == 0 {
				t.Errorf("n=%d w=%d: trailing updates did not use the array", n, w)
			}
		}
	}
}

func TestBlockLUZeroPivot(t *testing.T) {
	a := matrix.FromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	if _, _, _, err := BlockLU(a, 2, Options{}); err == nil {
		t.Error("expected zero-pivot error")
	}
	if _, _, _, err := BlockLU(matrix.NewDense(2, 3), 2, Options{}); err == nil {
		t.Error("expected non-square error")
	}
}

// TestBlockLUUnpivotedZeroPivot pins PivotNone's zero-pivot rule: a zero
// pivot is an error exactly when a multiplier would divide by it. A = L·U
// is built from integer unit-L and U factors with one zero on U's
// diagonal, so elimination reproduces U exactly and meets that zero at
// column j, whether j is inside a diagonal block or at a block's edge.
// Below the last row nothing divides by U[n−1][n−1]: the factors come back
// and the solve's triangular phase reports the singularity instead.
func TestBlockLUUnpivotedZeroPivot(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	n := 7
	for _, w := range []int{1, 2, 3, 4} {
		for j := 0; j < n; j++ {
			a := zeroPivotProduct(rng, n, j)
			l, u, _, err := BlockLU(a, w, Options{})
			if j < n-1 {
				var serr *SingularError
				if !errors.As(err, &serr) || *serr != (SingularError{Op: "solve.BlockLU", Index: j}) {
					t.Errorf("w=%d zero at U[%d][%d]: err = %v, want solve.BlockLU singular pivot at %d", w, j, j, err, j)
				}
				continue
			}
			if err != nil {
				t.Fatalf("w=%d zero at U[%d][%d]: BlockLU: %v", w, j, j, err)
			}
			if !l.Mul(u).Equal(a, 0) || u.At(j, j) != 0 {
				t.Errorf("w=%d: factors of a last-pivot-zero matrix are not exact", w)
			}
			_, _, err = Solve(a, matrix.NewVector(n), w, Options{})
			var serr *SingularError
			if !errors.As(err, &serr) || !strings.HasPrefix(serr.Op, "trisolve.") {
				t.Errorf("w=%d: Solve err = %v, want a trisolve singular pivot", w, err)
			}
		}
	}
}

// zeroPivotProduct returns L·U for a random integer unit-lower L and an
// integer upper U whose diagonal is 2 except for a 0 at U[j][j].
func zeroPivotProduct(rng *rand.Rand, n, j int) *matrix.Dense {
	l, u := identity(n), matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			l.Set(i, k, float64(rng.Intn(3)-1))
		}
		for k := i + 1; k < n; k++ {
			u.Set(i, k, float64(rng.Intn(3)-1))
		}
		if i != j {
			u.Set(i, i, 2)
		}
	}
	return l.Mul(u)
}

func TestLowerTriangularInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for _, n := range []int{1, 4, 7, 12} {
		for _, w := range []int{2, 3} {
			lo := matrix.NewDense(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					lo.Set(i, j, float64(rng.Intn(5)-2))
				}
				lo.Set(i, i, float64(1+rng.Intn(3)))
			}
			inv, stats, err := LowerTriangularInverse(lo, w, Options{})
			if err != nil {
				t.Fatalf("n=%d w=%d: %v", n, w, err)
			}
			prod := lo.Mul(inv)
			id := identity(n)
			if !prod.Equal(id, 1e-9) {
				t.Errorf("n=%d w=%d: L·L⁻¹ ≠ I (off by %g)", n, w, prod.MaxAbsDiff(id))
			}
			if n > w && stats.ArrayPasses == 0 {
				t.Errorf("n=%d w=%d: inversion did not use the array", n, w)
			}
		}
	}
}

func TestLowerTriangularInverseSingular(t *testing.T) {
	lo := matrix.NewDense(2, 2)
	lo.Set(1, 0, 1) // zero diagonal
	_, _, err := LowerTriangularInverse(lo, 2, Options{})
	if !errors.Is(err, trisolve.ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
	var serr *SingularError
	if !errors.As(err, &serr) || serr.Index != 0 {
		t.Errorf("err = %#v, want a *SingularError at pivot 0", err)
	}
}

func TestDenseInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 4, 9} {
		a, _ := diagonallyDominant(rng, n)
		inv, stats, err := Inverse(a, 3, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !a.Mul(inv).Equal(identity(n), 1e-7) {
			t.Errorf("n=%d: A·A⁻¹ ≠ I (off by %g)", n, a.Mul(inv).MaxAbsDiff(identity(n)))
		}
		if !inv.Mul(a).Equal(identity(n), 1e-7) {
			t.Errorf("n=%d: A⁻¹·A ≠ I", n)
		}
		if n > 3 && stats.ArraySteps == 0 {
			t.Errorf("n=%d: no array work", n)
		}
	}
}

// TestLUArrayDominance: for larger matrices, the host op count grows like
// n·w² per block column (O(n²w) total) while the array handles the O(n³)
// trailing volume — host ops per total multiply work must shrink as n grows.
func TestLUArrayDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	w := 3
	ratio := func(n int) float64 {
		a, _ := diagonallyDominant(rng, n)
		_, _, stats, err := BlockLU(a, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return float64(stats.HostOps) / float64(n*n*n)
	}
	small, large := ratio(6), ratio(24)
	if large >= small {
		t.Errorf("host-op share did not shrink: n=6 → %.4f, n=24 → %.4f", small, large)
	}
}

func identity(n int) *matrix.Dense {
	id := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	return id
}

// Guard against accidental float drift in the well-conditioned test
// systems: the diagonally dominant generators must produce condition
// numbers small enough that 1e-7 tolerances are meaningful.
func TestDominantSystemsAreWellScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	a, _ := diagonallyDominant(rng, 10)
	maxAbs := 0.0
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if v := math.Abs(a.At(i, j)); v > maxAbs {
				maxAbs = v
			}
		}
	}
	if maxAbs > 100 {
		t.Errorf("test generator produces badly scaled entries (max %g)", maxAbs)
	}
}
