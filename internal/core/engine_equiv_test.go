package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/matrix"
)

// The compiled-schedule engine must be indistinguishable from the
// cycle-accurate structural oracle: identical results bit for bit AND
// identical measured statistics (step count, utilization, MAC counts,
// feedback delays, grouping conflicts). These tests sweep shapes and option
// combinations through both engines and compare everything.

// matvecOptionCombos enumerates every valid MatVecOptions combination for a
// shape (ByColumns excludes Overlap; Overlap needs n̄ ≥ 2).
func matvecOptionCombos(nbar int) []MatVecOptions {
	var out []MatVecOptions
	for _, lower := range []bool{false, true} {
		for _, byCols := range []bool{false, true} {
			for _, overlap := range []bool{false, true} {
				if overlap && (byCols || nbar < 2) {
					continue
				}
				out = append(out, MatVecOptions{Overlap: overlap, LowerBand: lower, ByColumns: byCols})
			}
		}
	}
	return out
}

func checkMatVecEquiv(t *testing.T, w, n, m int, a *matrix.Dense, x, b matrix.Vector, opts MatVecOptions) {
	t.Helper()
	s := NewMatVecSolver(w)
	oracleOpts, compiledOpts := opts, opts
	oracleOpts.Engine = EngineOracle
	compiledOpts.Engine = EngineCompiled
	want, err := s.Solve(a, x, b, oracleOpts)
	if err != nil {
		t.Fatalf("oracle solve (w=%d n=%d m=%d %+v): %v", w, n, m, opts, err)
	}
	got, err := s.Solve(a, x, b, compiledOpts)
	if err != nil {
		t.Fatalf("compiled solve (w=%d n=%d m=%d %+v): %v", w, n, m, opts, err)
	}
	ctx := fmt.Sprintf("w=%d n=%d m=%d opts=%+v", w, n, m, opts)
	if !reflect.DeepEqual(got.Y, want.Y) {
		t.Fatalf("%s: Y differs\ncompiled %v\noracle   %v", ctx, got.Y, want.Y)
	}
	// Traces aside (the compiled engine never records one), the full stats
	// must match field by field.
	ws, gs := want.Stats, got.Stats
	ws.Trace, gs.Trace = nil, nil
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: stats differ\ncompiled %+v\noracle   %+v", ctx, gs, ws)
	}
}

// TestEngineEquivMatVecSweep sweeps w ∈ {1..8}, n̄, m̄ ∈ {1..6} (with ragged
// shapes off the block boundaries) across every option combination.
func TestEngineEquivMatVecSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for w := 1; w <= 8; w++ {
		for nbar := 1; nbar <= 6; nbar++ {
			for mbar := 1; mbar <= 6; mbar++ {
				if testing.Short() && (nbar > 3 || mbar > 3) {
					continue
				}
				// Exact block-multiple shape and a ragged one.
				shapes := [][2]int{{nbar * w, mbar * w}}
				if w > 1 {
					shapes = append(shapes, [2]int{(nbar-1)*w + 1 + rng.Intn(w-1), (mbar-1)*w + 1 + rng.Intn(w-1)})
				}
				for _, nm := range shapes {
					n, m := nm[0], nm[1]
					a := matrix.RandomDense(rng, n, m, 5)
					x := matrix.RandomVector(rng, m, 5)
					b := matrix.RandomVector(rng, n, 5)
					if rng.Intn(4) == 0 {
						b = nil
					}
					for _, opts := range matvecOptionCombos(nbar) {
						checkMatVecEquiv(t, w, n, m, a, x, b, opts)
					}
				}
			}
		}
	}
}

func checkMatMulEquiv(t *testing.T, w, n, p, m int, a, b, e *matrix.Dense) {
	t.Helper()
	s := NewMatMulSolver(w)
	want, err := s.Solve(a, b, MatMulOptions{E: e, Engine: EngineOracle})
	if err != nil {
		t.Fatalf("oracle solve (w=%d %d×%d·%d×%d): %v", w, n, p, p, m, err)
	}
	got, err := s.Solve(a, b, MatMulOptions{E: e, Engine: EngineCompiled})
	if err != nil {
		t.Fatalf("compiled solve (w=%d %d×%d·%d×%d): %v", w, n, p, p, m, err)
	}
	ctx := fmt.Sprintf("w=%d n=%d p=%d m=%d e=%v", w, n, p, m, e != nil)
	if !got.C.Equal(want.C, 0) {
		t.Fatalf("%s: C differs by %g", ctx, got.C.MaxAbsDiff(want.C))
	}
	ws, gs := want.Stats, got.Stats
	ws.Trace, gs.Trace = nil, nil
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: stats differ\ncompiled %+v\noracle   %+v", ctx, gs, ws)
	}
}

// TestEngineEquivMatMulSweep covers w ∈ {1..4} exhaustively on small block
// grids plus randomized larger draws up to w = 8, n̄/p̄/m̄ ≤ 6, with and
// without the E term and with ragged shapes.
func TestEngineEquivMatMulSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for w := 1; w <= 4; w++ {
		for nbar := 1; nbar <= 3; nbar++ {
			for pbar := 1; pbar <= 3; pbar++ {
				for mbar := 1; mbar <= 3; mbar++ {
					if testing.Short() && nbar*pbar*mbar > 8 {
						continue
					}
					n, p, m := nbar*w, pbar*w, mbar*w
					if w > 1 && rng.Intn(2) == 0 { // ragged
						n, p, m = n-rng.Intn(w-1), p-rng.Intn(w-1), m-rng.Intn(w-1)
					}
					a := matrix.RandomDense(rng, n, p, 4)
					b := matrix.RandomDense(rng, p, m, 4)
					var e *matrix.Dense
					if rng.Intn(2) == 0 {
						e = matrix.RandomDense(rng, n, m, 4)
					}
					checkMatMulEquiv(t, w, n, p, m, a, b, e)
				}
			}
		}
	}
}

// TestEngineEquivMatMulRandomLarge draws random larger shapes (w up to 8,
// bars up to 6) to catch anything the exhaustive small sweep misses.
func TestEngineEquivMatMulRandomLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large randomized sweep")
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 12; i++ {
		w := 5 + rng.Intn(4)
		nbar, pbar, mbar := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3)
		n, p, m := nbar*w-rng.Intn(w), pbar*w-rng.Intn(w), mbar*w-rng.Intn(w)
		a := matrix.RandomDense(rng, n, p, 4)
		b := matrix.RandomDense(rng, p, m, 4)
		var e *matrix.Dense
		if rng.Intn(2) == 0 {
			e = matrix.RandomDense(rng, n, m, 4)
		}
		checkMatMulEquiv(t, w, n, p, m, a, b, e)
	}
	// A couple of deeper matvec shapes beyond the 6×6 grid.
	for i := 0; i < 8; i++ {
		w := 1 + rng.Intn(8)
		nbar, mbar := 1+rng.Intn(10), 1+rng.Intn(10)
		n, m := nbar*w-rng.Intn(w), mbar*w-rng.Intn(w)
		a := matrix.RandomDense(rng, n, m, 5)
		x := matrix.RandomVector(rng, m, 5)
		for _, opts := range matvecOptionCombos(nbar) {
			checkMatVecEquiv(t, w, n, m, a, x, nil, opts)
		}
	}
}

// TestEngineTraceRules: traces require the structural engine.
func TestEngineTraceRules(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	x := matrix.Vector{1, 1}
	s := NewMatVecSolver(2)
	if _, err := s.Solve(a, x, nil, MatVecOptions{Trace: true, Engine: EngineCompiled}); err == nil {
		t.Fatal("compiled engine with trace should error")
	}
	res, err := s.Solve(a, x, nil, MatVecOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Trace == nil {
		t.Fatal("auto engine with trace should fall back to the oracle and record")
	}
	ms := NewMatMulSolver(2)
	if _, err := ms.Solve(a, a, MatMulOptions{Trace: true, Engine: EngineCompiled}); err == nil {
		t.Fatal("compiled engine with trace should error")
	}
	mres, err := ms.Solve(a, a, MatMulOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Stats.Trace == nil {
		t.Fatal("auto engine with trace should fall back to the oracle and record")
	}
}
