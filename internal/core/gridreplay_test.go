package core

import (
	"math"
	"math/rand"
	"reflect"
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
// place (dst = E). Shapes are randomized over w ∈ 1..8 with ragged and
// block-multiple n, p, m, n̄ and m̄ up to 3 and p̄ up to 4 — the longest
// feedback chains — and E nil or not.
func TestMatMulGridReplayBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ar := NewArena()
	for w := 1; w <= 8; w++ {
		for trial := 0; trial < 10; trial++ {
			nbar, pbar, mbar := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3)
			switch trial { // always cover p̄>1 and m̄>1, and p̄=4
			case 0, 1:
				pbar, mbar = 2+trial, 3-trial
			case 2:
				pbar = 4
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

// FuzzMatMulGridReplay is the fuzz armor of the flattened-chain matmul
// compiler: any shape — w ∈ 1..8, n̄, p̄, m̄ ∈ 1..4, each of n, p, m ragged
// or a block multiple per a bit of ragged, E nil or not — must replay bit
// for bit (math.Float64bits) to the structural hexagonal oracle, with equal
// MatMulStats. The in-place block form must too: Arena.MatMulUpdate on
// both engines, with E/C embedded at a random (r0, c0) of a wider matrix
// and B at a random (br0, bc0) of another, must produce the oracle's C in
// the block and leave every element outside it unchanged.
func FuzzMatMulGridReplay(f *testing.F) {
	f.Add(int64(1), 8, 1, 1, 1, uint8(0), false) // the BlockLU tile's row block
	f.Add(int64(2), 8, 4, 1, 1, uint8(7), true)  // ragged column of row blocks
	f.Add(int64(3), 3, 2, 4, 3, uint8(2), true)  // p̄ = 4: the longest chains
	f.Add(int64(4), 1, 4, 4, 4, uint8(0), false) // w=1 degenerate array
	f.Add(int64(5), 7, 3, 3, 2, uint8(5), true)  // odd width, no unrolled kernel
	f.Fuzz(func(t *testing.T, seed int64, w, nbar, pbar, mbar int, ragged uint8, withE bool) {
		w = 1 + fuzzAbs(w)%8
		nbar, pbar, mbar = 1+fuzzAbs(nbar)%4, 1+fuzzAbs(pbar)%4, 1+fuzzAbs(mbar)%4
		rng := rand.New(rand.NewSource(seed))
		dims := [3]int{nbar * w, pbar * w, mbar * w}
		for i := range dims {
			if ragged>>i&1 == 1 {
				dims[i] -= rng.Intn(w)
			}
		}
		n, p, m := dims[0], dims[1], dims[2]
		a, b := randomFloats(rng, n, p), randomFloats(rng, p, m)
		var e *matrix.Dense
		if withE {
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
			t.Fatalf("w=%d %d×%d·%d×%d E=%v: C[%d][%d] = %v, oracle %v", w, n, p, p, m, withE, i, j, got.C.At(i, j), want.C.At(i, j))
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("w=%d %d×%d·%d×%d: stats\ncompiled %+v\noracle   %+v", w, n, p, p, m, got.Stats, want.Stats)
		}

		r0, c0, br0, bc0 := rng.Intn(w+1), rng.Intn(w+1), rng.Intn(w+1), rng.Intn(w+1)
		wide := randomFloats(rng, r0+n+rng.Intn(w+1), c0+m+rng.Intn(w+1))
		if e != nil {
			wide.SetRect(r0, c0, e)
		} else {
			wide.SetRect(r0, c0, matrix.NewDense(n, m))
		}
		bWide := randomFloats(rng, br0+p+rng.Intn(w+1), bc0+m+rng.Intn(w+1))
		bWide.SetRect(br0, bc0, b)
		ar := GetArena()
		defer PutArena(ar)
		for _, eng := range []Engine{EngineCompiled, EngineOracle} {
			dst := wide.Clone()
			steps, err := ar.MatMulUpdate(dst, r0, c0, a, bWide, br0, bc0, m, w, eng)
			if err != nil {
				t.Fatal(err)
			}
			if steps != want.Stats.T {
				t.Fatalf("w=%d %d×%d·%d×%d %v: MatMulUpdate T=%d, oracle %d", w, n, p, p, m, eng, steps, want.Stats.T)
			}
			for i := 0; i < dst.Rows(); i++ {
				for j := 0; j < dst.Cols(); j++ {
					ref := wide.At(i, j)
					if i >= r0 && i < r0+n && j >= c0 && j < c0+m {
						ref = want.C.At(i-r0, j-c0)
					}
					if math.Float64bits(dst.At(i, j)) != math.Float64bits(ref) {
						t.Fatalf("w=%d %d×%d·%d×%d E=%v %v: MatMulUpdate at (%d,%d) of %d×%d, B at (%d,%d): [%d][%d] = %v, want %v",
							w, n, p, p, m, withE, eng, r0, c0, dst.Rows(), dst.Cols(), br0, bc0, i, j, dst.At(i, j), ref)
					}
				}
			}
		}
	})
}

// fuzzAbs keeps fuzzed shape parameters in range without biasing the modulo.
func fuzzAbs(v int) int {
	if v < 0 {
		if v == -v { // math.MinInt
			return 0
		}
		return -v
	}
	return v
}
