package solve

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Every solver in this package issues its array passes through core, so
// forcing the two engines must produce bit-identical factors, solutions
// and statistics. These tests sweep the solver workloads — LU, full solve,
// block-partitioned solve, iterative sweeps — through both engines.

func engines() []core.Engine { return []core.Engine{core.EngineOracle, core.EngineCompiled} }

// TestBlockLUEngineEquiv: L, U and stats must be bit-identical across
// engines (ArraySteps included — the compiled plan reports the oracle's T).
func TestBlockLUEngineEquiv(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, w := range []int{1, 2, 3, 4} {
		for _, n := range []int{1, w, 2*w + 1, 3 * w, 17} {
			a, _ := diagonallyDominant(rng, n)
			l0, u0, st0, err := BlockLU(a, w, Options{Engine: core.EngineOracle})
			if err != nil {
				t.Fatalf("oracle BlockLU (w=%d n=%d): %v", w, n, err)
			}
			l1, u1, st1, err := BlockLU(a, w, Options{Engine: core.EngineCompiled})
			if err != nil {
				t.Fatalf("compiled BlockLU (w=%d n=%d): %v", w, n, err)
			}
			if !l0.Equal(l1, 0) || !u0.Equal(u1, 0) {
				t.Fatalf("w=%d n=%d: engines disagree on factors", w, n)
			}
			if !reflect.DeepEqual(st0, st1) {
				t.Fatalf("w=%d n=%d: stats differ\ncompiled %+v\noracle   %+v", w, n, st1, st0)
			}
		}
	}
}

// TestSolveDirect: the full direct solve (LU + two in-array triangular
// solves) is exact-to-tolerance and engine-independent bit for bit.
func TestSolveDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for _, w := range []int{2, 3, 4} {
		for _, n := range []int{1, w, 2*w + 1, 14} {
			a, _ := diagonallyDominant(rng, n)
			want := matrix.RandomVector(rng, n, 4)
			d := a.MulVec(want, nil)
			var results []matrix.Vector
			var stats []*SolveStats
			for _, eng := range engines() {
				x, st, err := Solve(a, d, w, Options{Engine: eng})
				if err != nil {
					t.Fatalf("%v Solve (w=%d n=%d): %v", eng, w, n, err)
				}
				if !x.Equal(want, 1e-7) {
					t.Errorf("%v w=%d n=%d: wrong solution (off %g)", eng, w, n, x.MaxAbsDiff(want))
				}
				if st.TriPasses == 0 {
					t.Errorf("%v w=%d n=%d: no triangular array passes recorded", eng, w, n)
				}
				results = append(results, x)
				stats = append(stats, st)
			}
			if !results[0].Equal(results[1], 0) {
				t.Fatalf("w=%d n=%d: engines disagree on x", w, n)
			}
			if !reflect.DeepEqual(stats[0], stats[1]) {
				t.Fatalf("w=%d n=%d: stats differ\noracle   %+v\ncompiled %+v", w, n, stats[0], stats[1])
			}
		}
	}
}

// TestBlockPartitionedSolve: the identity-padded block embedding solves
// ragged shapes exactly and matches Solve bit for bit on block multiples.
func TestBlockPartitionedSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, w := range []int{2, 3, 4} {
		for _, n := range []int{1, w - 1, w, w + 1, 2*w + 1, 3 * w} {
			if n < 1 {
				continue
			}
			a, _ := diagonallyDominant(rng, n)
			want := matrix.RandomVector(rng, n, 4)
			d := a.MulVec(want, nil)
			x, stats, err := BlockPartitionedSolve(a, d, w, Options{})
			if err != nil {
				t.Fatalf("w=%d n=%d: %v", w, n, err)
			}
			if !x.Equal(want, 1e-7) {
				t.Errorf("w=%d n=%d: wrong solution (off %g)", w, n, x.MaxAbsDiff(want))
			}
			if stats.Residual > 1e-7 {
				t.Errorf("w=%d n=%d: residual %g", w, n, stats.Residual)
			}
			if n%w == 0 {
				direct, _, err := Solve(a, d, w, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !x.Equal(direct, 0) {
					t.Errorf("w=%d n=%d: block-partitioned differs from direct on an aligned shape", w, n)
				}
			}
		}
	}
	if _, _, err := BlockPartitionedSolve(matrix.NewDense(2, 3), make(matrix.Vector, 2), 2, Options{}); err == nil {
		t.Error("expected non-square error")
	}
	if _, _, err := BlockPartitionedSolve(matrix.NewDense(2, 2), make(matrix.Vector, 3), 2, Options{}); err == nil {
		t.Error("expected rhs length error")
	}
}

// TestIterativeEngineEquiv: Jacobi and Gauss–Seidel sweeps are bit-identical
// across engines (same iterates, same sweep counts, same residuals).
func TestIterativeEngineEquiv(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	a, d := diagonallyDominant(rng, 11)
	for _, method := range []struct {
		name string
		run  func(eng core.Engine) (matrix.Vector, *IterStats, error)
	}{
		{"jacobi", func(eng core.Engine) (matrix.Vector, *IterStats, error) {
			return Jacobi(a, d, 3, 300, 1e-10, Options{Engine: eng})
		}},
		{"gauss-seidel", func(eng core.Engine) (matrix.Vector, *IterStats, error) {
			return GaussSeidel(a, d, 3, 300, 1e-10, Options{Engine: eng})
		}},
	} {
		x0, st0, err := method.run(core.EngineOracle)
		if err != nil {
			t.Fatalf("%s oracle: %v", method.name, err)
		}
		x1, st1, err := method.run(core.EngineCompiled)
		if err != nil {
			t.Fatalf("%s compiled: %v", method.name, err)
		}
		if !x0.Equal(x1, 0) || !reflect.DeepEqual(st0, st1) {
			t.Fatalf("%s: engines disagree (sweeps %d vs %d, residual %g vs %g)",
				method.name, st0.Sweeps, st1.Sweeps, st0.Residual, st1.Residual)
		}
	}
}

// TestInverseEngineEquiv: LowerTriangularInverse and the full Inverse on
// top of it return the same inverse and stats on both engines, DeepEqual.
func TestInverseEngineEquiv(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	for _, w := range []int{2, 3, 4} {
		for _, n := range []int{1, w, 2*w + 1, 13} {
			l := matrix.NewDense(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					l.Set(i, j, float64(rng.Intn(5)-2))
				}
				l.Set(i, i, float64(1+rng.Intn(3)))
			}
			x0, st0, err := LowerTriangularInverse(l, w, Options{Engine: core.EngineCompiled})
			if err != nil {
				t.Fatalf("compiled inverse (w=%d n=%d): %v", w, n, err)
			}
			eye := matrix.NewDense(n, n)
			for i := 0; i < n; i++ {
				eye.Set(i, i, 1)
			}
			if !l.Mul(x0).Equal(eye, 1e-8) {
				t.Fatalf("w=%d n=%d: L·X ≠ I", w, n)
			}
			x1, st1, err := LowerTriangularInverse(l, w, Options{Engine: core.EngineOracle})
			if err != nil {
				t.Fatalf("oracle inverse (w=%d n=%d): %v", w, n, err)
			}
			if !x0.Equal(x1, 0) || !reflect.DeepEqual(st0, st1) {
				t.Fatalf("w=%d n=%d: engines disagree on the inverse\ncompiled %+v\noracle   %+v", w, n, st0, st1)
			}
			a, _ := diagonallyDominant(rng, n)
			ai0, ast0, err := Inverse(a, w, Options{Engine: core.EngineCompiled})
			if err != nil {
				t.Fatal(err)
			}
			ai1, ast1, err := Inverse(a, w, Options{Engine: core.EngineOracle})
			if err != nil {
				t.Fatal(err)
			}
			if !ai0.Equal(ai1, 0) || !reflect.DeepEqual(ast0, ast1) {
				t.Fatalf("w=%d n=%d: engines disagree on Inverse", w, n)
			}
		}
	}
}
