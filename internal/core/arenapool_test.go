package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// TestArenaPoolConcurrentCompiledSolves: six goroutines run the one-shot
// compiled matvec (by rows, by columns, and overlapped where n̄ ≥ 2) and
// matmul solves over random ragged shapes, each borrowing pooled arenas
// concurrently; every result must DeepEqual the structural oracle's. A
// pooled arena that leaked state between borrowers — a stale transform,
// plan or scratch slab — would surface as a mismatch.
func TestArenaPoolConcurrentCompiledSolves(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			errs <- poolRounds(rand.New(rand.NewSource(seed)), 25)
		}(int64(100 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// poolRounds runs rounds random compiled-vs-oracle comparisons and returns
// the first mismatch.
func poolRounds(rng *rand.Rand, rounds int) error {
	for i := 0; i < rounds; i++ {
		w := 1 + rng.Intn(4)
		n, m := 1+rng.Intn(3*w), 1+rng.Intn(3*w)
		a := randomFloats(rng, n, m)
		x := matrix.Vector(randomFloats(rng, m, 1).Raw())
		b := matrix.Vector(randomFloats(rng, n, 1).Raw())
		if rng.Intn(3) == 0 {
			b = nil
		}
		variants := []MatVecOptions{{}, {ByColumns: true}}
		if (n+w-1)/w >= 2 {
			variants = append(variants, MatVecOptions{Overlap: true})
		}
		mv := NewMatVecSolver(w)
		for _, opts := range variants {
			oracle, compiled := opts, opts
			oracle.Engine, compiled.Engine = EngineOracle, EngineCompiled
			want, err := mv.Solve(a, x, b, oracle)
			if err != nil {
				return err
			}
			got, err := mv.Solve(a, x, b, compiled)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("matvec w=%d %d×%d %+v: compiled %+v, oracle %+v", w, n, m, opts, got, want)
			}
		}
		p := 1 + rng.Intn(3*w)
		bm := randomFloats(rng, m, p)
		var e *matrix.Dense
		if rng.Intn(2) == 0 {
			e = randomFloats(rng, n, p)
		}
		mm := NewMatMulSolver(w)
		want, err := mm.Solve(a, bm, MatMulOptions{E: e, Engine: EngineOracle})
		if err != nil {
			return err
		}
		got, err := mm.Solve(a, bm, MatMulOptions{E: e, Engine: EngineCompiled})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("matmul w=%d %d×%d·%d×%d: compiled and oracle results differ", w, n, m, m, p)
		}
	}
	return nil
}

// TestOneShotCompiledAllocs pins the allocation count of the warm one-shot
// compiled facades at the benchjson headline shapes (matvec w=8 n̄m̄=16,
// matmul w=3 p̄n̄m̄=27): scratch comes from a pooled arena, so only the
// result (its struct, y or C, and copied statistics) is allocated.
func TestOneShotCompiledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rng := rand.New(rand.NewSource(7))
	a := matrix.RandomDense(rng, 16*8, 8, 3)
	x := matrix.RandomVector(rng, 8, 3)
	mv := NewMatVecSolver(8)
	ma, mb := matrix.RandomDense(rng, 9, 9, 3), matrix.RandomDense(rng, 9, 9, 3)
	mm := NewMatMulSolver(3)
	for _, c := range []struct {
		name string
		want float64
		run  func() error
	}{
		{"matvec", 2, func() error {
			_, err := mv.Solve(a, x, nil, MatVecOptions{Engine: EngineCompiled})
			return err
		}},
		{"matmul", 5, func() error {
			_, err := mm.Solve(ma, mb, MatMulOptions{Engine: EngineCompiled})
			return err
		}},
	} {
		if err := c.run(); err != nil { // warm the plan caches and the pool
			t.Fatal(err)
		}
		var err error
		got := testing.AllocsPerRun(100, func() { err = c.run() })
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.name, got, c.want)
		}
	}
}
