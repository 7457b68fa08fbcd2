package solve

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// TestWorkspaceZeroAlloc pins the compiled-path allocation diet: once a
// workspace is warm (plans compiled, buffers grown), repeated solves on it
// must allocate nothing — the property BenchmarkSolverEngines' compiled
// rows report as 0 allocs/op.
func TestWorkspaceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rng := rand.New(rand.NewSource(405))
	w, n := 4, 24
	a, _ := diagonallyDominant(rng, n)
	d := a.MulVec(matrix.RandomVector(rng, n, 3), nil)
	ws := NewWorkspace(w)
	opts := Options{Engine: core.EngineCompiled}
	// Warm: compile every plan shape and grow every buffer.
	if _, _, err := ws.Solve(a, d, opts); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, _, _, err := ws.BlockLU(a, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("BlockLU steady state allocates %v objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := ws.Solve(a, d, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Solve steady state allocates %v objects/op, want 0", allocs)
	}
}

// TestArenaMatMulPassZeroAlloc: a warm arena's compiled matmul pass — the
// grid-direct replay behind every BlockLU trailing tile — allocates
// nothing, on block-multiple operands read in place, on ragged ones padded
// through arena scratch, and in place (dst = E).
func TestArenaMatMulPassZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rng := rand.New(rand.NewSource(406))
	ar := core.NewArena()
	for _, shape := range [][3]int{{24, 8, 8}, {21, 7, 5}} {
		n, p, m := shape[0], shape[1], shape[2]
		a := matrix.RandomDense(rng, n, p, 3)
		b := matrix.RandomDense(rng, p, m, 3)
		e := matrix.RandomDense(rng, n, m, 3)
		dst := matrix.NewDense(n, m)
		pass := func() {
			ar.Reset()
			if _, err := ar.MatMulPass(dst, a, b, e, 8, core.EngineCompiled); err != nil {
				t.Fatal(err)
			}
			if _, err := ar.MatMulPass(e, a, b, e, 8, core.EngineCompiled); err != nil {
				t.Fatal(err)
			}
		}
		pass() // warm: compile the plan, grow the arena
		if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
			t.Errorf("%d×%d·%d×%d: warm MatMulPass allocates %v objects/op, want 0", n, p, p, m, allocs)
		}
	}
}
