package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// randomFloats returns a rows×cols matrix of non-integral values spread
// over several binades, so any reassociation of an accumulation chain
// changes the rounded result.
func randomFloats(rng *rand.Rand, rows, cols int) *matrix.Dense {
	m := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64()*math.Ldexp(1, rng.Intn(9)-4))
		}
	}
	return m
}

// sameBits reports whether two equally shaped matrices agree bit for bit.
func sameBits(a, b *matrix.Dense) (i, j int, ok bool) {
	for i = 0; i < a.Rows(); i++ {
		for j = 0; j < a.Cols(); j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// TestMatMulGridReplayBitIdentical pins the grid-direct matmul replay to the
// structural hexagonal oracle bit for bit (math.Float64bits), through both
// compiled callers: MatMulSolver.Solve and Arena.MatMulPass — the latter on
// one arena reused across every shape, both with a separate dst and in
// place (dst = E). Shapes are randomized over w ∈ {1,2,3,4,5,8} with
// ragged and block-multiple n, p, m, p̄ and m̄ up to 3, and E nil or not.
func TestMatMulGridReplayBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ar := NewArena()
	for _, w := range []int{1, 2, 3, 4, 5, 8} {
		for trial := 0; trial < 10; trial++ {
			nbar, pbar, mbar := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3)
			if trial < 2 { // always cover p̄>1 and m̄>1
				pbar, mbar = 2+trial, 3-trial
			}
			n, p, m := nbar*w, pbar*w, mbar*w
			if trial%3 != 0 { // ragged in every dimension
				n, p, m = n-rng.Intn(w), p-rng.Intn(w), m-rng.Intn(w)
			}
			a, b := randomFloats(rng, n, p), randomFloats(rng, p, m)
			var e *matrix.Dense
			if trial%2 == 1 {
				e = randomFloats(rng, n, m)
			}
			s := NewMatMulSolver(w)
			want, err := s.Solve(a, b, MatMulOptions{E: e, Engine: EngineOracle})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Solve(a, b, MatMulOptions{E: e, Engine: EngineCompiled})
			if err != nil {
				t.Fatal(err)
			}
			if i, j, ok := sameBits(got.C, want.C); !ok {
				t.Fatalf("w=%d %d×%d·%d×%d E=%v: Solve C[%d][%d] = %v, oracle %v",
					w, n, p, p, m, e != nil, i, j, got.C.At(i, j), want.C.At(i, j))
			}
			ar.Reset()
			dst := ar.Dense(n, m)
			inPlace := ar.Dense(n, m)
			if e != nil {
				inPlace = matrix.CloneInto(inPlace, e)
			} else {
				clear(inPlace.Raw())
			}
			for _, c := range []struct {
				dst, e *matrix.Dense
				name   string
			}{{dst, e, "MatMulPass"}, {inPlace, inPlace, "in-place MatMulPass"}} {
				steps, err := ar.MatMulPass(c.dst, a, b, c.e, w, EngineCompiled)
				if err != nil {
					t.Fatal(err)
				}
				if steps != want.Stats.T {
					t.Fatalf("w=%d %d×%d·%d×%d: %s T=%d, oracle %d", w, n, p, p, m, c.name, steps, want.Stats.T)
				}
				if i, j, ok := sameBits(c.dst, want.C); !ok {
					t.Fatalf("w=%d %d×%d·%d×%d E=%v: %s C[%d][%d] = %v, oracle %v",
						w, n, p, p, m, e != nil, c.name, i, j, c.dst.At(i, j), want.C.At(i, j))
				}
			}
		}
	}
}
