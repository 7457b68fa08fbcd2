package sparse

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// FuzzSparseMatVec is the fuzz armor of the pattern-keyed compiled sparse
// path: random shapes and retained-block patterns — including empty row
// bands and the fully dense Q = n̄m̄ grid — must replay bit-identically to
// the structural oracle, results AND statistics, match the host reference
// arithmetic exactly (integer-valued data, so every accumulation order is
// exact), and hit the closed-form step count. The committed corpus under
// testdata/fuzz seeds the shapes the unit tests care about; CI runs a short
// -fuzz smoke on top of the seed replay.
func FuzzSparseMatVec(f *testing.F) {
	f.Add(3, 4, 3, []byte{0xa5, 0x0f}, int64(1))       // mixed pattern
	f.Add(1, 1, 1, []byte{0x00}, int64(2))             // all-zero, Q=0
	f.Add(4, 2, 2, []byte{0xff}, int64(3))             // fully dense, Q=n̄m̄
	f.Add(2, 5, 3, []byte{0x1c, 0xe0}, int64(4))       // empty bands between active ones
	f.Add(1, 4, 4, []byte{0x81, 0x42, 0x24}, int64(5)) // w=1 degenerate array
	f.Fuzz(func(t *testing.T, w, nb, mb int, pattern []byte, seed int64) {
		w = 1 + abs(w)%4
		nb = 1 + abs(nb)%5
		mb = 1 + abs(mb)%5
		rng := rand.New(rand.NewSource(seed))
		bit := func(i int) bool {
			if len(pattern) == 0 {
				return false
			}
			return pattern[(i/8)%len(pattern)]>>(i%8)&1 == 1
		}
		a := matrix.NewDense(nb*w, mb*w)
		for r := 0; r < nb; r++ {
			for s := 0; s < mb; s++ {
				if !bit(r*mb + s) {
					continue
				}
				for i := 0; i < w; i++ {
					for j := 0; j < w; j++ {
						a.Set(r*w+i, s*w+j, float64(rng.Intn(9)-4))
					}
				}
			}
		}
		x := matrix.RandomVector(rng, mb*w, 4)
		var b matrix.Vector
		if seed%2 == 0 {
			b = matrix.RandomVector(rng, nb*w, 4)
		}
		tr := NewMatVec(a, w)
		want, err := tr.SolveEngine(x, b, core.EngineOracle)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		got, err := tr.SolveEngine(x, b, core.EngineCompiled)
		if err != nil {
			t.Fatalf("compiled: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compiled diverges from structural (w=%d n̄=%d m̄=%d Q=%d pattern=%v):\ncompiled %+v\noracle   %+v",
				w, nb, mb, tr.TotalBlocks(), tr.Retained, got, want)
		}
		if !got.Y.Equal(a.MulVec(x, b), 0) {
			t.Fatalf("wrong result (w=%d n̄=%d m̄=%d pattern=%v)", w, nb, mb, tr.Retained)
		}
		if got.T != tr.PredictedSteps() {
			t.Fatalf("T=%d, formula predicts %d (w=%d pattern=%v)", got.T, tr.PredictedSteps(), w, tr.Retained)
		}
		// The arena pass must agree too — it is the stream's execution path.
		ar := core.NewArena()
		dst := make(matrix.Vector, tr.N)
		steps, err := tr.PassInto(ar, dst, x, b, core.EngineCompiled)
		if err != nil {
			t.Fatalf("PassInto: %v", err)
		}
		if steps != want.T || !dst.Equal(want.Y, 0) {
			t.Fatalf("PassInto diverges from structural (w=%d pattern=%v)", w, tr.Retained)
		}
		// Batched replay: k fresh right-hand sides through one plan must be
		// bit-identical, Result by Result, to k independent solves.
		k := 1 + int(uint64(seed)%4)
		xs := make([]matrix.Vector, k)
		bs := make([]matrix.Vector, k)
		for v := range xs {
			xs[v] = matrix.RandomVector(rng, mb*w, 4)
			if (int(uint64(seed))+v)%2 == 0 {
				bs[v] = matrix.RandomVector(rng, nb*w, 4)
			}
		}
		many, err := tr.SolveMany(xs, bs, core.EngineCompiled)
		if err != nil {
			t.Fatalf("SolveMany: %v", err)
		}
		for v := range many {
			one, err := tr.SolveEngine(xs[v], bs[v], core.EngineOracle)
			if err != nil {
				t.Fatalf("oracle vector %d: %v", v, err)
			}
			if !reflect.DeepEqual(many[v], one) {
				t.Fatalf("batched vector %d diverges from its independent solve (w=%d k=%d pattern=%v):\nbatched %+v\nlooped  %+v",
					v, w, k, tr.Retained, many[v], one)
			}
		}
		// Overlap: pairwise-interleaved programs on the collision-checked
		// array produce the same values and per-PE MACs in no more steps,
		// and the compiled TOverlap matches the measured run exactly.
		ov, err := tr.solveOverlapped(x, b)
		if err != nil {
			t.Fatalf("solveOverlapped: %v", err)
		}
		ovc, err := tr.SolveOverlappedEngine(x, b, core.EngineCompiled)
		if err != nil {
			t.Fatalf("SolveOverlappedEngine: %v", err)
		}
		if !reflect.DeepEqual(ovc, ov) {
			t.Fatalf("compiled overlap diverges from structural (w=%d pattern=%v):\ncompiled %+v\noracle   %+v",
				w, tr.Retained, ovc, ov)
		}
		if !ov.Y.Equal(want.Y, 0) || !reflect.DeepEqual(ov.MACs, want.MACs) || ov.T > want.T {
			t.Fatalf("overlap changed the computation (w=%d pattern=%v): T=%d vs %d", w, tr.Retained, ov.T, want.T)
		}
	})
}

// abs keeps fuzzed shape parameters in range without biasing the modulo.
func abs(v int) int {
	if v < 0 {
		if v == -v { // math.MinInt
			return 0
		}
		return -v
	}
	return v
}
