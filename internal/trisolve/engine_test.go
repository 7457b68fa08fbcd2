package trisolve

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// The compiled trisolve plan must be indistinguishable from the
// cycle-accurate array: identical X bit for bit AND identical measured
// statistics (T, per-PE activity, division count). These tests sweep
// random and adversarial shapes through both engines and compare the full
// Result structs.

// checkBandEquiv runs one band solve on both engines and DeepEquals the
// Results.
func checkBandEquiv(t *testing.T, w int, l *matrix.Band, b matrix.Vector) {
	t.Helper()
	ar := New(w)
	want, err := ar.SolveBandEngine(l, b, core.EngineOracle)
	if err != nil {
		t.Fatalf("oracle band solve (w=%d n=%d): %v", w, l.Rows(), err)
	}
	got, err := ar.SolveBandEngine(l, b, core.EngineCompiled)
	if err != nil {
		t.Fatalf("compiled band solve (w=%d n=%d): %v", w, l.Rows(), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("w=%d n=%d: engines disagree\ncompiled %+v\noracle   %+v", w, l.Rows(), got, want)
	}
	auto, err := ar.SolveBandEngine(l, b, core.EngineAuto)
	if err != nil {
		t.Fatalf("auto band solve: %v", err)
	}
	if !reflect.DeepEqual(auto, want) {
		t.Fatalf("w=%d n=%d: auto engine diverges from oracle", w, l.Rows())
	}
}

// TestBandEngineEquivSweep sweeps random band systems through both engines.
func TestBandEngineEquivSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, w := range []int{1, 2, 3, 5, 8} {
		for trial := 0; trial < 12; trial++ {
			n := 1 + rng.Intn(4*w)
			checkBandEquiv(t, w, randLowerBand(rng, n, w), matrix.RandomVector(rng, n, 5))
		}
	}
}

// TestBandEngineEquivEdgeCases pins the adversarial shapes: 1×1 systems,
// unit diagonals, bandwidth ≥ dimension (w > n, idle tail PEs), and bands
// narrower than the array (diagonal-only L on a wide array).
func TestBandEngineEquivEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(202))

	// 1×1 system on arrays of every width.
	for _, w := range []int{1, 2, 5} {
		l := matrix.NewBand(1, 1, 0, 0)
		l.Set(0, 0, 2)
		checkBandEquiv(t, w, l, matrix.Vector{6})
	}

	// Unit diagonal: divisions by exactly 1 must stay exact on both sides.
	for _, w := range []int{2, 4} {
		n := 3 * w
		l := matrix.NewBand(n, n, -(w - 1), 0)
		for i := 0; i < n; i++ {
			for d := 1; d < w; d++ {
				if j := i - d; j >= 0 {
					l.Set(i, j, float64(rng.Intn(7)-3))
				}
			}
			l.Set(i, i, 1)
		}
		checkBandEquiv(t, w, l, matrix.RandomVector(rng, n, 5))
	}

	// Bandwidth ≥ dimension: w > n leaves PEs ≥ n permanently idle.
	for _, nw := range [][2]int{{1, 4}, {2, 5}, {3, 8}} {
		n, w := nw[0], nw[1]
		checkBandEquiv(t, w, randLowerBand(rng, n, w), matrix.RandomVector(rng, n, 5))
	}

	// Diagonal-only band on a wide array: every MAC multiplies a
	// structural zero, which both engines must realize identically.
	w, n := 4, 9
	l := matrix.NewBand(n, n, 0, 0)
	for i := 0; i < n; i++ {
		l.Set(i, i, float64(1+rng.Intn(3)))
	}
	checkBandEquiv(t, w, l, matrix.RandomVector(rng, n, 5))
}

// TestDenseSolverEngineEquiv runs the blocked dense lower and upper solves
// on both engines and DeepEquals x and the PassStats (steps, pass counts).
func TestDenseSolverEngineEquiv(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for _, w := range []int{2, 3, 5} {
		oracle, compiled := NewWorkspace(w), NewWorkspace(w)
		for _, n := range []int{1, w - 1, w, 2*w + 1, 4 * w} {
			if n < 1 {
				continue
			}
			l := randomLower(rng, n)
			b := matrix.RandomVector(rng, n, 5)
			for _, upper := range []bool{false, true} {
				tri, solve := l, (*Workspace).SolveLowerInto
				if upper {
					tri, solve = l.Transpose(), (*Workspace).SolveUpperInto
				}
				want := make(matrix.Vector, n)
				wantSt, err := solve(oracle, want, tri, b, core.EngineOracle)
				if err != nil {
					t.Fatalf("oracle dense solve (w=%d n=%d): %v", w, n, err)
				}
				got := make(matrix.Vector, n)
				gotSt, err := solve(compiled, got, tri, b, core.EngineCompiled)
				if err != nil {
					t.Fatalf("compiled dense solve (w=%d n=%d): %v", w, n, err)
				}
				if !reflect.DeepEqual(got, want) || gotSt != wantSt {
					t.Fatalf("w=%d n=%d: engines disagree\ncompiled %v %+v\noracle   %v %+v", w, n, got, gotSt, want, wantSt)
				}
			}
		}
	}
}

// TestSolveBandEngineUnknown: an out-of-range engine value errors instead
// of picking a side silently.
func TestSolveBandEngineUnknown(t *testing.T) {
	l := matrix.NewBand(1, 1, 0, 0)
	l.Set(0, 0, 1)
	if _, err := New(2).SolveBandEngine(l, matrix.Vector{1}, core.Engine(99)); err == nil {
		t.Fatal("unknown engine should error")
	}
}
