package sparse

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// blockSparse builds a matrix whose w×w blocks are nonzero with probability
// density (at least guaranteeing reproducibility via rng).
func blockSparse(rng *rand.Rand, nb, mb, w int, density float64) *matrix.Dense {
	a := matrix.NewDense(nb*w, mb*w)
	for r := 0; r < nb; r++ {
		for s := 0; s < mb; s++ {
			if rng.Float64() >= density {
				continue
			}
			for i := 0; i < w; i++ {
				for j := 0; j < w; j++ {
					a.Set(r*w+i, s*w+j, float64(rng.Intn(9)-4))
				}
			}
		}
	}
	return a
}

func TestSparseCorrectAcrossDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, w := range []int{2, 3} {
		for _, density := range []float64{0, 0.2, 0.5, 0.8, 1} {
			a := blockSparse(rng, 4, 5, w, density)
			x := matrix.RandomVector(rng, 5*w, 4)
			b := matrix.RandomVector(rng, 4*w, 4)
			tr := NewMatVec(a, w)
			res, err := tr.Solve(x, b)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Y.Equal(a.MulVec(x, b), 0) {
				t.Errorf("w=%d density=%.1f: wrong result", w, density)
			}
		}
	}
}

func TestSparseStepsFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, density := range []float64{0.3, 0.6, 1} {
		w := 3
		a := blockSparse(rng, 5, 4, w, density)
		x := matrix.RandomVector(rng, 4*w, 3)
		tr := NewMatVec(a, w)
		res, err := tr.Solve(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.T != tr.PredictedSteps() {
			t.Errorf("density=%.1f: T=%d, predicted %d", density, res.T, tr.PredictedSteps())
		}
	}
}

// TestSparseBeatsDenseDBT (E10): on block-sparse inputs the sparse schedule
// is shorter than full DBT, approaching the density ratio.
func TestSparseBeatsDenseDBT(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	w := 4
	a := blockSparse(rng, 6, 6, w, 0.3)
	x := matrix.RandomVector(rng, 6*w, 3)
	tr := NewMatVec(a, w)
	if tr.Density() >= 0.8 {
		t.Skip("rng produced a dense instance")
	}
	res, err := tr.Solve(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := core.NewMatVecSolver(w).Solve(a, x, nil, core.MatVecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.T >= dense.Stats.T {
		t.Errorf("sparse T=%d not below dense DBT T=%d (density %.2f)", res.T, dense.Stats.T, tr.Density())
	}
}

func TestSparseEmptyMatrix(t *testing.T) {
	w := 3
	a := matrix.NewDense(2*w, 2*w)
	b := matrix.RandomVector(rand.New(rand.NewSource(64)), 2*w, 4)
	tr := NewMatVec(a, w)
	res, err := tr.Solve(matrix.NewVector(2*w), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 || res.Q != 0 {
		t.Errorf("empty matrix: T=%d Q=%d, want 0, 0", res.T, res.Q)
	}
	if !res.Y.Equal(b, 0) {
		t.Error("empty matrix: y must equal b")
	}
}

func TestSparseDensityAccounting(t *testing.T) {
	w := 2
	a := matrix.NewDense(2*w, 3*w)
	// Exactly two nonzero blocks.
	a.Set(0, 0, 1)
	a.Set(w, 2*w, 5)
	tr := NewMatVec(a, w)
	if tr.TotalBlocks() != 2 {
		t.Errorf("Q=%d, want 2", tr.TotalBlocks())
	}
	if got, want := tr.Density(), 2.0/6; got != want {
		t.Errorf("density=%g, want %g", got, want)
	}
}

func TestSparseValidation(t *testing.T) {
	tr := NewMatVec(matrix.NewDense(4, 4), 2)
	if _, err := tr.Solve(make(matrix.Vector, 3), nil); err == nil {
		t.Error("expected x length error")
	}
	if _, err := tr.Solve(make(matrix.Vector, 4), make(matrix.Vector, 1)); err == nil {
		t.Error("expected b length error")
	}
}

// TestSparseEngineEquiv: the compiled engine replays a pattern-keyed plan
// that must be bit-identical to the structural simulator — results AND
// statistics (T, utilization, per-PE MAC counts) — across random patterns,
// with and without b, including empty bands and fully dense grids. Auto
// resolves to the compiled path.
func TestSparseEngineEquiv(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	equivArena := core.NewArena()
	for _, w := range []int{1, 2, 3, 4} {
		for _, density := range []float64{0, 0.2, 0.5, 0.8, 1} {
			nb, mb := 1+rng.Intn(5), 1+rng.Intn(5)
			a := blockSparse(rng, nb, mb, w, density)
			x := matrix.RandomVector(rng, mb*w, 5)
			var b matrix.Vector
			if rng.Intn(2) == 0 {
				b = matrix.RandomVector(rng, nb*w, 5)
			}
			tr := NewMatVec(a, w)
			want, err := tr.SolveEngine(x, b, core.EngineOracle)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []core.Engine{core.EngineCompiled, core.EngineAuto} {
				got, err := tr.SolveEngine(x, b, eng)
				if err != nil {
					t.Fatalf("%v (w=%d density=%.1f): %v", eng, w, density, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v diverges from the structural solve (w=%d n̄=%d m̄=%d density=%.1f):\ncompiled %+v\noracle   %+v",
						eng, w, nb, mb, density, got, want)
				}
				// The memo-resolved variant (the stream's full-job path)
				// must return the identical result.
				onArena, err := tr.SolveEngineOn(equivArena, x, b, eng)
				if err != nil {
					t.Fatalf("SolveEngineOn %v: %v", eng, err)
				}
				if !reflect.DeepEqual(onArena, want) {
					t.Fatalf("SolveEngineOn %v diverges from the structural solve (w=%d density=%.1f)", eng, w, density)
				}
			}
			if !want.Y.Equal(a.MulVec(x, b), 0) {
				t.Fatalf("w=%d density=%.1f: wrong result", w, density)
			}
		}
	}
}

// TestSparseEngineValidation: both engines report the same operand-length
// failures, and an invalid engine value errors on the sparse path too.
func TestSparseEngineValidation(t *testing.T) {
	tr := NewMatVec(matrix.NewDense(4, 4), 2)
	for _, eng := range []core.Engine{core.EngineOracle, core.EngineCompiled} {
		if _, err := tr.SolveEngine(make(matrix.Vector, 3), nil, eng); err == nil {
			t.Errorf("%v: expected x length error", eng)
		}
		if _, err := tr.SolveEngine(make(matrix.Vector, 4), make(matrix.Vector, 1), eng); err == nil {
			t.Errorf("%v: expected b length error", eng)
		}
	}
	if _, err := tr.SolveEngine(make(matrix.Vector, 4), nil, core.Engine(99)); err == nil {
		t.Error("expected unknown-engine error")
	}
}

// TestSparseEmptyBandAccounting pins the step-count accounting the package
// doc claims: row bands with no retained blocks cost nothing (adding one
// leaves T unchanged), an all-zero matrix runs zero cycles on both engines,
// and TotalBlocks/T agree with the executed schedule exactly.
func TestSparseEmptyBandAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := 3
	// Base: 3 active bands; extended: same blocks plus one all-zero band.
	base := blockSparse(rng, 3, 4, w, 1)
	ext := matrix.NewDense(4*w, 4*w)
	ext.SetRect(0, 0, base)
	trBase, trExt := NewMatVec(base, w), NewMatVec(ext, w)
	if trBase.TotalBlocks() != trExt.TotalBlocks() {
		t.Fatalf("Q changed when adding an empty band: %d vs %d", trBase.TotalBlocks(), trExt.TotalBlocks())
	}
	x := matrix.RandomVector(rng, 4*w, 4)
	b := matrix.RandomVector(rng, 4*w, 4)
	for _, eng := range []core.Engine{core.EngineOracle, core.EngineCompiled} {
		rb, err := trBase.SolveEngine(x, b[:3*w], eng)
		if err != nil {
			t.Fatal(err)
		}
		re, err := trExt.SolveEngine(x, b, eng)
		if err != nil {
			t.Fatal(err)
		}
		if rb.T != re.T || rb.T != trBase.PredictedSteps() {
			t.Errorf("%v: empty band not free: base T=%d ext T=%d predicted %d", eng, rb.T, re.T, trBase.PredictedSteps())
		}
		if !reflect.DeepEqual(rb.MACs, re.MACs) {
			t.Errorf("%v: empty band changed per-PE work: %v vs %v", eng, rb.MACs, re.MACs)
		}
		// The executed schedule agrees with the block accounting exactly:
		// total MACs = Q·w², spread uniformly (one MAC per band row per PE).
		wantPE := rb.Q * w
		for k, m := range rb.MACs {
			if m != wantPE {
				t.Errorf("%v: PE %d executed %d MACs, want Q·w=%d", eng, k, m, wantPE)
			}
		}
		// All-zero matrix: zero blocks, zero cycles, no PE activity — the
		// "costs nothing" claim held exactly.
		zero, err := NewMatVec(matrix.NewDense(2*w, 2*w), w).SolveEngine(matrix.NewVector(2*w), b[:2*w], eng)
		if err != nil {
			t.Fatal(err)
		}
		if zero.T != 0 || zero.Q != 0 || zero.Utilization != 0 || zero.MACs != nil {
			t.Errorf("%v: all-zero matrix ran cycles: %+v", eng, zero)
		}
		if !zero.Y.Equal(b[:2*w], 0) {
			t.Errorf("%v: all-zero matrix must return b", eng)
		}
	}
}

// TestSparsePassInto: the arena pass writes exactly what SolveEngine
// returns on both engines, and the warm compiled path allocates nothing.
func TestSparsePassInto(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w := 3
	a := blockSparse(rng, 4, 4, w, 0.5)
	x := matrix.RandomVector(rng, 4*w, 5)
	b := matrix.RandomVector(rng, 4*w, 5)
	tr := NewMatVec(a, w)
	ar := core.NewArena()
	dst := make(matrix.Vector, tr.N)
	for _, eng := range []core.Engine{core.EngineOracle, core.EngineCompiled} {
		want, err := tr.SolveEngine(x, b, eng)
		if err != nil {
			t.Fatal(err)
		}
		ar.Reset()
		steps, err := tr.PassInto(ar, dst, x, b, eng)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if steps != want.T || !dst.Equal(want.Y, 0) {
			t.Fatalf("%v: PassInto diverges: steps=%d want %d", eng, steps, want.T)
		}
	}
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	allocs := testing.AllocsPerRun(50, func() {
		ar.Reset()
		if _, err := tr.PassInto(ar, dst, x, b, core.EngineCompiled); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm compiled PassInto allocates %v objects/op, want 0", allocs)
	}
}

// TestSparsePassIntoDstError is the regression for the dst-length panic:
// a mismatched dst must come back as a returned error on both engines —
// exactly like every other operand-length failure — so a malformed Into
// job arriving through the stream surfaces as a validation error, not a
// *core.PanicError. PassManyInto follows the same contract.
func TestSparsePassIntoDstError(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	w := 2
	a := blockSparse(rng, 3, 3, w, 0.6)
	x := matrix.RandomVector(rng, 3*w, 4)
	tr := NewMatVec(a, w)
	ar := core.NewArena()
	for _, eng := range []core.Engine{core.EngineOracle, core.EngineCompiled} {
		bad := make(matrix.Vector, tr.N-1)
		if _, err := tr.PassInto(ar, bad, x, nil, eng); err == nil {
			t.Errorf("%v: PassInto accepted a short dst", eng)
		}
		if _, err := tr.PassManyInto(ar, []matrix.Vector{bad}, []matrix.Vector{x}, nil, eng); err == nil {
			t.Errorf("%v: PassManyInto accepted a short dst", eng)
		}
		if _, err := tr.PassManyInto(ar, []matrix.Vector{make(matrix.Vector, tr.N)}, []matrix.Vector{x, x}, nil, eng); err == nil {
			t.Errorf("%v: PassManyInto accepted mismatched batch lengths", eng)
		}
	}
	if _, err := tr.SolveMany(nil, nil, core.EngineCompiled); err == nil {
		t.Error("SolveMany accepted an empty batch")
	}
	if _, err := tr.SolveMany([]matrix.Vector{x, x}, []matrix.Vector{nil}, core.EngineCompiled); err == nil {
		t.Error("SolveMany accepted mismatched x/b batch lengths")
	}
	if _, err := tr.SolveMany([]matrix.Vector{x[:1]}, nil, core.EngineOracle); err == nil {
		t.Error("SolveMany accepted a short x")
	}
}

// TestSparseSolveMany: every Result of a batched solve is DeepEqual to the
// independent SolveEngine call for that vector, on both engines and through
// the arena-memo variant, including nil and per-entry-nil b batches.
func TestSparseSolveMany(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, w := range []int{1, 3, 4} {
		for _, density := range []float64{0, 0.4, 1} {
			nb, mb := 1+rng.Intn(4), 1+rng.Intn(4)
			a := blockSparse(rng, nb, mb, w, density)
			tr := NewMatVec(a, w)
			k := 1 + rng.Intn(5)
			xs := make([]matrix.Vector, k)
			bs := make([]matrix.Vector, k)
			for v := range xs {
				xs[v] = matrix.RandomVector(rng, mb*w, 5)
				if v%2 == 0 {
					bs[v] = matrix.RandomVector(rng, nb*w, 5)
				}
			}
			if rng.Intn(3) == 0 {
				bs = nil
			}
			for _, eng := range []core.Engine{core.EngineOracle, core.EngineCompiled, core.EngineAuto} {
				many, err := tr.SolveMany(xs, bs, eng)
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				for v := range xs {
					var bv matrix.Vector
					if bs != nil {
						bv = bs[v]
					}
					want, err := tr.SolveEngine(xs[v], bv, eng)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(many[v], want) {
						t.Fatalf("%v w=%d k=%d: batched vector %d diverges:\nbatched %+v\nlooped  %+v", eng, w, k, v, many[v], want)
					}
				}
			}
		}
	}
}

// TestSparsePassManyInto: the batched arena pass writes per vector exactly
// what SolveEngine returns, and the warm compiled path allocates nothing.
func TestSparsePassManyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	w := 3
	const k = 4
	a := blockSparse(rng, 4, 4, w, 0.5)
	tr := NewMatVec(a, w)
	ar := core.NewArena()
	xs := make([]matrix.Vector, k)
	bs := make([]matrix.Vector, k)
	dsts := make([]matrix.Vector, k)
	for v := range xs {
		xs[v] = matrix.RandomVector(rng, 4*w, 5)
		bs[v] = matrix.RandomVector(rng, 4*w, 5)
		dsts[v] = make(matrix.Vector, tr.N)
	}
	for _, eng := range []core.Engine{core.EngineOracle, core.EngineCompiled} {
		ar.Reset()
		steps, err := tr.PassManyInto(ar, dsts, xs, bs, eng)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		for v := range xs {
			want, err := tr.SolveEngine(xs[v], bs[v], eng)
			if err != nil {
				t.Fatal(err)
			}
			if steps != want.T || !dsts[v].Equal(want.Y, 0) {
				t.Fatalf("%v: PassManyInto vector %d diverges: steps=%d want %d", eng, v, steps, want.T)
			}
		}
	}
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	allocs := testing.AllocsPerRun(50, func() {
		ar.Reset()
		if _, err := tr.PassManyInto(ar, dsts, xs, bs, core.EngineCompiled); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm compiled PassManyInto allocates %v objects/op, want 0", allocs)
	}
}

// TestSparseOverlapped: the overlapped run computes the same values and
// per-PE MAC counts as the back-to-back schedule in no more steps (strictly
// fewer once two programs actually pair), both engines DeepEqual, and the
// measured utilization matches MACs/(w·T) of the overlapped span.
func TestSparseOverlapped(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, w := range []int{1, 2, 3, 4} {
		for _, density := range []float64{0, 0.3, 0.7, 1} {
			nb, mb := 1+rng.Intn(5), 1+rng.Intn(5)
			a := blockSparse(rng, nb, mb, w, density)
			x := matrix.RandomVector(rng, mb*w, 5)
			b := matrix.RandomVector(rng, nb*w, 5)
			tr := NewMatVec(a, w)
			base, err := tr.SolveEngine(x, b, core.EngineOracle)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tr.solveOverlapped(x, b)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []core.Engine{core.EngineCompiled, core.EngineAuto} {
				got, err := tr.SolveOverlappedEngine(x, b, eng)
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v overlap diverges from structural (w=%d n̄=%d m̄=%d):\ncompiled %+v\noracle   %+v",
						eng, w, nb, mb, got, want)
				}
			}
			if !want.Y.Equal(base.Y, 0) || !reflect.DeepEqual(want.MACs, base.MACs) || want.Q != base.Q {
				t.Fatalf("w=%d: overlap changed the computation", w)
			}
			if want.T > base.T {
				t.Fatalf("w=%d: overlapped T=%d exceeds back-to-back T=%d", w, want.T, base.T)
			}
			active := 0
			for _, cols := range tr.Retained {
				if len(cols) > 0 {
					active++
				}
			}
			if active >= 2 && w >= 2 && want.T >= base.T {
				t.Fatalf("w=%d active=%d: overlap saved no cycles: T=%d vs %d", w, active, want.T, base.T)
			}
			if active >= 2 && want.Utilization <= base.Utilization {
				t.Fatalf("w=%d: overlap did not lift utilization: %.4f vs %.4f", w, want.Utilization, base.Utilization)
			}
		}
	}
}

// TestSparseKeyAllocFree pins Key()'s documented "allocation-free" claim:
// the digest is a pure loop over the retained pattern and the key is a
// value type, so recomputing it per submission costs no allocations.
func TestSparseKeyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rng := rand.New(rand.NewSource(53))
	tr := NewMatVec(blockSparse(rng, 6, 6, 3, 0.5), 3)
	var sink PatternKey
	allocs := testing.AllocsPerRun(100, func() {
		sink = tr.Key()
	})
	if allocs != 0 {
		t.Errorf("Key allocates %v objects/op, documented allocation-free", allocs)
	}
	_ = sink
}

// TestSparseSolveEngineAllocs pins the allocation count of the warm
// one-shot compiled SolveEngine at the benchjson tridiagonal stencil
// (w=4, 16 block rows): scratch comes from a pooled core arena, so only
// the Result, its y and its per-PE MAC counts are allocated.
func TestSparseSolveEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rng := rand.New(rand.NewSource(5))
	w, nb := 4, 16
	a := matrix.NewDense(nb*w, nb*w)
	for r := 0; r < nb; r++ {
		for s := r - 1; s <= r+1; s++ {
			if s < 0 || s >= nb {
				continue
			}
			for i := 0; i < w; i++ {
				for j := 0; j < w; j++ {
					a.Set(r*w+i, s*w+j, float64(rng.Intn(9)-4))
				}
			}
		}
	}
	tr := NewMatVec(a, w)
	x, b := matrix.RandomVector(rng, nb*w, 3), matrix.RandomVector(rng, nb*w, 3)
	var err error
	solve := func() { _, err = tr.SolveEngine(x, b, core.EngineCompiled) }
	solve() // publish the plan and warm the arena pool
	if allocs := testing.AllocsPerRun(100, solve); allocs != 3 {
		t.Errorf("warm compiled SolveEngine allocates %v objects/op, want 3", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}
