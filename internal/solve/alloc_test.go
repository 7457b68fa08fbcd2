package solve

import (
	"math/rand"
	"runtime"
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

// TestWorkspaceFootprint pins the packed factor: a warm n=128, w=8
// workspace used only for Solve retains one n×n matrix — the working copy,
// which holds L and U packed — and not separate L and U factors or an
// upper-triangle mirror beside it (each another n²·8 bytes). The
// process-wide plan cache is warmed first by a throwaway workspace, so
// only what the measured workspace itself keeps is counted.
func TestWorkspaceFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	w, n := 8, 128
	a, _ := diagonallyDominant(rng, n)
	d := a.MulVec(matrix.RandomVector(rng, n, 3), nil)
	warmSolveWorkspace(t, w, a, d)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ws := warmSolveWorkspace(t, w, a, d)
	runtime.GC()
	runtime.ReadMemStats(&after)
	// a and d stay live through both readings, so only ws differs.
	runtime.KeepAlive(ws)
	runtime.KeepAlive(a)
	runtime.KeepAlive(d)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(n * n * 8 * 5 / 4); retained >= limit {
		t.Errorf("warm n=%d w=%d workspace retains %d B of heap, want < %d (1.25·n²·8)", n, w, retained, limit)
	}
}

// warmSolveWorkspace returns a new workspace after three compiled solves
// of (a, d). It is not inlined, so a workspace the caller drops is garbage
// at the caller's next GC rather than a live object in its frame.
//
//go:noinline
func warmSolveWorkspace(t *testing.T, w int, a *matrix.Dense, d matrix.Vector) *Workspace {
	ws := NewWorkspace(w)
	for i := 0; i < 3; i++ {
		if _, _, err := ws.Solve(a, d, Options{Engine: core.EngineCompiled}); err != nil {
			t.Fatal(err)
		}
	}
	return ws
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
