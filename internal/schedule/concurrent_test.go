package schedule

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dbt"
	"repro/internal/matrix"
)

// These tests pin the plan cache's concurrency contract, since stream
// shards replay passes concurrently: many goroutines resolving the same
// shape must all get usable (and eventually shared) plans, and a plan held
// by a replaying goroutine must stay valid while the bounded cache rotates
// underneath it. Run with -race (CI does).

// TestPlanCacheConcurrentSameShape: hammer one shape from many goroutines,
// replaying each resolved plan and checking the numeric result every time.
func TestPlanCacheConcurrentSameShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const w, nm = 3, 4
	a := matrix.RandomDense(rng, nm*w, w, 5)
	x := matrix.RandomVector(rng, w, 5)
	want := a.MulVec(x, nil)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := dbt.NewMatVec(a, w)
			xp := x.Pad(tr.MBar * w)
			for i := 0; i < 200; i++ {
				sch, err := MatVecFor(tr, false)
				if err != nil {
					t.Error(err)
					return
				}
				y := make([]float64, sch.Rows)
				b := make([]float64, sch.BLen)
				sch.ExecGrid(tr.Padded().Raw(), xp, b, y)
				got := tr.RecoverYFlat(make(matrix.Vector, tr.N), y)
				if !got.Equal(want, 0) {
					t.Error("concurrent replay produced a wrong result")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanCacheEvictionWhileInUse: push the bounded cache past its cap
// (forcing the drop-and-rebuild rotation) while other goroutines keep
// replaying plans they resolved before the rotation. Plans are immutable,
// so a rotated-out plan must keep replaying correctly, and re-resolving
// its shape must still work.
func TestPlanCacheEvictionWhileInUse(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the plan cache past its bound")
	}
	const w = 2
	held := TriSolveFor(5, w)
	lband := []float64{2, 0, 1, 3, 1, 1, 2, 1, 1, 2}
	b := []float64{2, 4, 3, 5, 4}
	x := make([]float64, 5)
	held.Exec(lband, b, x)
	want := append([]float64(nil), x...)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				held.Exec(lband, b, x2(len(b)))
				if got := TriSolveFor(5, w); got.T != held.T || got.N != held.N {
					t.Error("re-resolved plan disagrees with the held one")
					return
				}
			}
		}()
	}
	// Rotate the cache at least twice over.
	for n := 10; n < 10+2*maxCached+10; n++ {
		TriSolveFor(n, w)
	}
	close(stop)
	wg.Wait()

	held.Exec(lband, b, x)
	for i := range x {
		if x[i] != want[i] {
			t.Fatal("held plan changed behavior after eviction")
		}
	}
}

// x2 allocates a fresh output buffer (keeps the hammer goroutines honest
// about not sharing output state).
func x2(n int) []float64 { return make([]float64, n) }

// TestPlanMemoSharesPlans: the per-arena memo must return the same plan
// pointer as the global cache, and hit its private map on repeats.
func TestPlanMemoSharesPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pm := NewPlanMemo()
	a := matrix.RandomDense(rng, 6, 4, 3)
	tr := dbt.NewMatVec(a, 2)
	first, err := pm.MatVecFor(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	global, err := MatVecFor(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	if first != global {
		t.Error("memo and global cache disagree on the plan instance")
	}
	again, err := pm.MatVecFor(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("memo failed to hit on a repeated shape")
	}
	if pm.TriSolveFor(7, 3) != pm.TriSolveFor(7, 3) {
		t.Error("trisolve memo failed to hit on a repeated shape")
	}
	if pm.MatMulFor(2, 2, 2, 2, 4) != pm.MatMulFor(2, 2, 2, 2, 4) {
		t.Error("matmul memo failed to hit on a repeated shape")
	}
}
