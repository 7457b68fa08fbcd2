package trisolve

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// randomPacked builds an n×n LU factor in the packed layout SolveLUInto
// reads: {−2..2} multipliers in the strict lower triangle, a {−2..2}
// strict upper triangle and a {1..3} diagonal, with U[zero][zero] = 0
// when 0 ≤ zero < n.
func randomPacked(rng *rand.Rand, n, zero int) *matrix.Dense {
	lu := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lu.Set(i, j, float64(rng.Intn(5)-2))
		}
		lu.Set(i, i, float64(1+rng.Intn(3)))
	}
	if zero >= 0 && zero < n {
		lu.Set(zero, zero, 0)
	}
	return lu
}

// unpack splits a packed factor into a unit lower L and an upper U.
func unpack(lu *matrix.Dense) (l, u *matrix.Dense) {
	n := lu.Rows()
	l, u = matrix.NewDense(n, n), matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case j < i:
				l.Set(i, j, lu.At(i, j))
			case j == i:
				l.Set(i, i, 1)
				u.Set(i, i, lu.At(i, i))
			default:
				u.Set(i, j, lu.At(i, j))
			}
		}
	}
	return l, u
}

// TestSolveLUMatchesUnpacked: on both engines and a ragged (w, n) grid,
// SolveLUInto on a packed factor is bit for bit SolveLowerInto on its
// unpacked L followed by SolveUpperInto on its U — x, the summed
// PassStats, and the error of a zero U pivot.
func TestSolveLUMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, w := range []int{1, 2, 3, 4, 5, 8} {
		for _, n := range []int{0, 1, w - 1, w, w + 1, 2*w + 3, 3 * w, 29} {
			if n < 0 {
				continue
			}
			zero := -1
			if n > 0 && rng.Intn(3) == 0 {
				zero = rng.Intn(n)
			}
			lu := randomPacked(rng, n, zero)
			l, u := unpack(lu)
			b := matrix.RandomVector(rng, n, 4)
			for _, eng := range []core.Engine{core.EngineCompiled, core.EngineOracle} {
				ws := NewWorkspace(w)
				y, want := make(matrix.Vector, n), make(matrix.Vector, n)
				fw, err := ws.SolveLowerInto(y, l, b, eng)
				if err != nil {
					t.Fatalf("%v w=%d n=%d: lower: %v", eng, w, n, err)
				}
				bw, wantErr := ws.SolveUpperInto(want, u, y, eng)
				wantStats := PassStats{
					TriSteps:     fw.TriSteps + bw.TriSteps,
					TriPasses:    fw.TriPasses + bw.TriPasses,
					MatVecSteps:  fw.MatVecSteps + bw.MatVecSteps,
					MatVecPasses: fw.MatVecPasses + bw.MatVecPasses,
				}
				x := make(matrix.Vector, n)
				st, err := ws.SolveLUInto(x, lu, b, eng)
				if !reflect.DeepEqual(err, wantErr) {
					t.Fatalf("%v w=%d n=%d (zero U pivot at %d): err %v, want %v", eng, w, n, zero, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !reflect.DeepEqual(st, wantStats) {
					t.Fatalf("%v w=%d n=%d: stats %+v, want %+v", eng, w, n, st, wantStats)
				}
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v w=%d n=%d: x[%d] = %v, want %v", eng, w, n, i, x[i], want[i])
					}
				}
			}
		}
	}
}

// TestUpperPivotCoordinates: a zero at U[k][k] is reported by the upper
// phase at index k — by SolveUpperInto and by SolveLUInto's backward
// phase — for every k, w 1..4 and both engines.
func TestUpperPivotCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 5
	for w := 1; w <= 4; w++ {
		ws := NewWorkspace(w)
		for _, eng := range []core.Engine{core.EngineCompiled, core.EngineOracle} {
			for k := 0; k < n; k++ {
				lu := randomPacked(rng, n, k)
				_, u := unpack(lu)
				b := matrix.RandomVector(rng, n, 4)
				x := make(matrix.Vector, n)
				_, upErr := ws.SolveUpperInto(x, u, b, eng)
				_, luErr := ws.SolveLUInto(x, lu, b, eng)
				for _, err := range []error{upErr, luErr} {
					var serr *SingularError
					if !errors.As(err, &serr) || serr.Op != "trisolve.SolveUpperInto" || serr.Index != k {
						t.Errorf("%v w=%d, zero U[%d][%d]: err %v, want trisolve.SolveUpperInto at %d", eng, w, k, k, err, k)
					}
				}
			}
		}
	}
}

// TestDenseSolvesZeroAlloc: a warm workspace's compiled dense solves —
// lower, upper (mirrored block by block) and packed LU — allocate
// nothing, on block-multiple and ragged shapes.
func TestDenseSolvesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rng := rand.New(rand.NewSource(14))
	for _, shape := range [][2]int{{8, 128}, {4, 29}} {
		w, n := shape[0], shape[1]
		lu := randomPacked(rng, n, -1)
		l, u := unpack(lu)
		b := matrix.RandomVector(rng, n, 4)
		x := make(matrix.Vector, n)
		ws := NewWorkspace(w)
		for _, c := range []struct {
			name  string
			solve func() (PassStats, error)
		}{
			{"SolveLowerInto", func() (PassStats, error) { return ws.SolveLowerInto(x, l, b, core.EngineCompiled) }},
			{"SolveUpperInto", func() (PassStats, error) { return ws.SolveUpperInto(x, u, b, core.EngineCompiled) }},
			{"SolveLUInto", func() (PassStats, error) { return ws.SolveLUInto(x, lu, b, core.EngineCompiled) }},
		} {
			if _, err := c.solve(); err != nil { // warm
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(10, func() {
				if _, err := c.solve(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("w=%d n=%d: warm %s allocates %v objects/op, want 0", w, n, c.name, allocs)
			}
		}
	}
}
