package stream

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/sparse"
)

// TestShardClamping: zero and negative shard counts and queue bounds fall
// back to the documented defaults instead of panicking or deadlocking.
func TestShardClamping(t *testing.T) {
	for _, shards := range []int{0, -3} {
		s := New(Config{Shards: shards, QueueBound: -1})
		if got, want := s.Shards(), runtime.GOMAXPROCS(0); got != want {
			t.Errorf("Shards(%d) clamps to %d, want GOMAXPROCS=%d", shards, got, want)
		}
		a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
		tk, err := s.SubmitMatVecQoS(2, MatVecProblem{A: a, X: matrix.Vector{1, 1}}, QoS{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Y.Equal(matrix.Vector{3, 7}, 0) {
			t.Errorf("clamped scheduler solved wrong: %v", res.Y)
		}
		s.Close()
	}
}

// TestSubmitAfterClose: every submission path reports ErrClosed after
// Close, and Close is idempotent.
func TestSubmitAfterClose(t *testing.T) {
	s := New(Config{Shards: 2})
	s.Close()
	s.Close() // idempotent
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := s.SubmitMatVecQoS(2, MatVecProblem{A: a, X: matrix.Vector{1, 1}}, QoS{}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitMatVecQoS after Close: %v, want ErrClosed", err)
	}
	if _, err := s.SubmitMatMulQoS(2, MatMulProblem{A: a, B: a}, QoS{}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitMatMulQoS after Close: %v, want ErrClosed", err)
	}
	dst := make(matrix.Vector, 2)
	if _, err := s.SubmitMatVecIntoQoS(dst, a, matrix.Vector{1, 1}, nil, 2, core.EngineAuto, QoS{}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitMatVecIntoQoS after Close: %v, want ErrClosed", err)
	}
	tr := sparse.NewMatVec(a, 2)
	if _, err := s.SubmitSparseMatVecQoS(tr, matrix.Vector{1, 1}, nil, core.EngineAuto, QoS{}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitSparseMatVecQoS after Close: %v, want ErrClosed", err)
	}
	if _, err := s.SubmitSparseMatVecInto(dst, tr, matrix.Vector{1, 1}, nil, core.EngineAuto); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitSparseMatVecInto after Close: %v, want ErrClosed", err)
	}
	if _, err := s.SubmitSparseBatchIntoQoS([]matrix.Vector{dst}, tr, []matrix.Vector{{1, 1}}, nil, core.EngineAuto, QoS{}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitSparseBatchIntoQoS after Close: %v, want ErrClosed", err)
	}
	if _, err := s.SubmitSolveOpts(a, matrix.Vector{1, 1}, 2, solve.Options{}, QoS{}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitSolveOpts after Close: %v, want ErrClosed", err)
	}
	if _, err := s.SubmitSolveIntoOpts(dst, a, matrix.Vector{1, 1}, 2, solve.Options{}, QoS{}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitSolveIntoOpts after Close: %v, want ErrClosed", err)
	}
}

// TestSaturation: under the Shed policy a scheduler whose single shard is
// occupied and whose queue is full fails fast with ErrSaturated, resumes
// accepting once drained, and counts the shed submissions.
func TestSaturation(t *testing.T) {
	s := New(Config{Shards: 1, QueueBound: 1, Policy: Shed})
	defer s.Close()
	// Occupy the only shard with a blocking fleet pass.
	release := occupyShard(t, s)
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	p := MatVecProblem{A: a, X: matrix.Vector{1, 1}}
	// One job fits the queue; the next must shed.
	tk1, err := s.SubmitMatVecQoS(2, p, QoS{})
	if err != nil {
		t.Fatalf("first submit should queue: %v", err)
	}
	if _, err := s.SubmitMatVecQoS(2, p, QoS{}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("second submit: %v, want ErrSaturated", err)
	}
	dst := make(matrix.Vector, 2)
	if _, err := s.SubmitMatVecIntoQoS(dst, a, matrix.Vector{1, 1}, nil, 2, core.EngineAuto, QoS{}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Into submit while saturated: %v, want ErrSaturated", err)
	}
	tr := sparse.NewMatVec(a, 2)
	if _, err := s.SubmitSparseMatVecQoS(tr, matrix.Vector{1, 1}, nil, core.EngineAuto, QoS{}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("sparse submit while saturated: %v, want ErrSaturated", err)
	}
	if _, err := s.SubmitSparseMatVecInto(dst, tr, matrix.Vector{1, 1}, nil, core.EngineAuto); !errors.Is(err, ErrSaturated) {
		t.Fatalf("sparse Into submit while saturated: %v, want ErrSaturated", err)
	}
	release()
	if res, err := tk1.Wait(); err != nil || !res.Y.Equal(matrix.Vector{3, 7}, 0) {
		t.Fatalf("queued job after drain: %v %v", res, err)
	}
	// Admission works again once the queue has space.
	tk2, err := s.SubmitMatVecQoS(2, p, QoS{})
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if _, err := tk2.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Shed != 4 || st.Submitted != 2 {
		t.Errorf("stats %+v, want 4 shed and 2 submitted", st)
	}
}

// TestAffinityHammer pounds one shape from many goroutines at once — the
// contended steady-state path (shared shard queue, plan memo hits, pooled
// jobs) that the -race job checks for data races — and verifies every
// result.
func TestAffinityHammer(t *testing.T) {
	s := New(Config{Shards: 2, QueueBound: 8})
	defer s.Close()
	const goroutines, perG = 8, 40
	w := 3
	a := matrix.FromRows([][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
		{13, 14, 15, 16},
	})
	x := matrix.Vector{1, -1, 2, -2}
	want := a.MulVec(x, nil)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make(matrix.Vector, a.Rows())
			for i := 0; i < perG; i++ {
				tk, err := s.SubmitMatVecIntoQoS(dst, a, x, nil, w, core.EngineCompiled, QoS{})
				if err != nil {
					errs[g] = err
					return
				}
				if _, err := tk.Wait(); err != nil {
					errs[g] = err
					return
				}
				if !dst.Equal(want, 0) {
					errs[g] = errors.New("wrong result under contention")
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if st := s.Stats(); st.Completed != goroutines*perG {
		t.Errorf("completed %d jobs, want %d", st.Completed, goroutines*perG)
	}
}

// TestInvalidDst: the Into submissions validate destination shapes at the
// submission boundary (a panic inside a shard would take the fleet down).
func TestInvalidDst(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := s.SubmitMatVecIntoQoS(make(matrix.Vector, 3), a, matrix.Vector{1, 1}, nil, 2, core.EngineAuto, QoS{}); err == nil {
		t.Error("matvec dst length mismatch should fail at submit")
	}
	if _, err := s.SubmitSparseMatVecInto(make(matrix.Vector, 3), sparse.NewMatVec(a, 2), matrix.Vector{1, 1}, nil, core.EngineAuto); err == nil {
		t.Error("sparse dst length mismatch should fail at submit")
	}
}

// TestInvalidArraySize: a matvec or matmul submission with w < 1 fails at
// submit — it never takes a queue slot or reaches a shard as a panic.
func TestInvalidArraySize(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	x := matrix.Vector{1, 1}
	if _, err := s.SubmitMatVecQoS(0, MatVecProblem{A: a, X: x}, QoS{}); err == nil {
		t.Error("SubmitMatVecQoS with w=0 should fail at submit")
	}
	if _, err := s.SubmitMatVecIntoQoS(make(matrix.Vector, 2), a, x, nil, 0, core.EngineAuto, QoS{}); err == nil {
		t.Error("SubmitMatVecIntoQoS with w=0 should fail at submit")
	}
	if _, err := s.SubmitMatMulQoS(-1, MatMulProblem{A: a, B: a}, QoS{}); err == nil {
		t.Error("SubmitMatMulQoS with w=-1 should fail at submit")
	}
	s.Flush()
	if st := s.Stats(); st.Submitted != 0 || st.Panics != 0 {
		t.Errorf("invalid submissions reached the fleet: %+v", st)
	}
}

// sparseStencil builds a block-tridiagonal test matrix — the repeated
// stencil whose pattern the affinity routing should keep on one shard.
func sparseStencil(nb, w int) *matrix.Dense {
	a := matrix.NewDense(nb*w, nb*w)
	for r := 0; r < nb; r++ {
		for _, s := range []int{r - 1, r, r + 1} {
			if s < 0 || s >= nb {
				continue
			}
			for i := 0; i < w; i++ {
				for j := 0; j < w; j++ {
					a.Set(r*w+i, s*w+j, float64((r+2*s+i*j)%7-3))
				}
			}
		}
	}
	return a
}

// TestSparseAffinityHammer pounds one retained-block pattern from many
// goroutines through schedulers at shard counts {1, 2, NumCPU} under both
// admission policies — the contended pattern-affinity steady state (shared
// shard queue, pattern-keyed memo hits, pooled jobs) the -race job checks —
// verifying every result against the serial references.
func TestSparseAffinityHammer(t *testing.T) {
	w := 3
	a := sparseStencil(4, w)
	tr := sparse.NewMatVec(a, w)
	x := make(matrix.Vector, a.Cols())
	for i := range x {
		x[i] = float64(i%5 - 2)
	}
	want := a.MulVec(x, nil)
	serial, err := tr.SolveEngine(x, nil, core.EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for _, pol := range []Policy{Block, Shed} {
			s := New(Config{Shards: shards, QueueBound: 8, Policy: pol})
			const goroutines, perG = 6, 30
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := make(matrix.Vector, tr.N)
					for i := 0; i < perG; i++ {
						// Alternate the Into fast path and the full-result
						// ticket; under Shed, retry sheds (load is bursty).
						if i%2 == 0 {
							tk, err := s.SubmitSparseMatVecInto(dst, tr, x, nil, core.EngineCompiled)
							for errors.Is(err, ErrSaturated) {
								tk, err = s.SubmitSparseMatVecInto(dst, tr, x, nil, core.EngineCompiled)
							}
							if err != nil {
								errs[g] = err
								return
							}
							if _, err := tk.Wait(); err != nil {
								errs[g] = err
								return
							}
							if !dst.Equal(want, 0) {
								errs[g] = errors.New("wrong Into result under contention")
								return
							}
						} else {
							tk, err := s.SubmitSparseMatVecQoS(tr, x, nil, core.EngineCompiled, QoS{})
							for errors.Is(err, ErrSaturated) {
								tk, err = s.SubmitSparseMatVecQoS(tr, x, nil, core.EngineCompiled, QoS{})
							}
							if err != nil {
								errs[g] = err
								return
							}
							res, err := tk.Wait()
							if err != nil {
								errs[g] = err
								return
							}
							if !reflect.DeepEqual(res, serial) {
								errs[g] = errors.New("full ticket differs from serial solve")
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("shards=%d policy=%v goroutine %d: %v", shards, pol, g, err)
				}
			}
			s.Close()
		}
	}
}

// TestSparseStreamZeroAlloc pins the sparse stream acceptance criterion:
// once the pattern-affinity shard is warm, a compiled sparse Into job —
// submit, execute, redeem — allocates nothing.
func TestSparseStreamZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	s := New(Config{Shards: 2})
	defer s.Close()
	w := 4
	a := sparseStencil(6, w)
	tr := sparse.NewMatVec(a, w)
	x := make(matrix.Vector, a.Cols())
	for i := range x {
		x[i] = float64(i)
	}
	dst := make(matrix.Vector, tr.N)
	roundTrip := func() {
		tk, err := s.SubmitSparseMatVecInto(dst, tr, x, nil, core.EngineCompiled)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every shard on the pattern (stealing can land early jobs
	// anywhere) before the measured steady state.
	for i := 0; i < 32; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs != 0 {
		t.Errorf("steady-state sparse stream job allocates %v objects/op, want 0", allocs)
	}
	if !dst.Equal(a.MulVec(x, nil), 0) {
		t.Error("warm sparse stream produced a wrong result")
	}
}

// TestStreamZeroAllocSteadyState pins the stream acceptance criterion:
// once the affinity shard is warm on a shape, a compiled Into job —
// submit, execute, redeem — allocates nothing.
func TestStreamZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	s := New(Config{Shards: 2})
	defer s.Close()
	w := 4
	a := matrix.NewDense(16, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			a.Set(i, j, float64(i+j+1))
		}
	}
	x := make(matrix.Vector, 16)
	for i := range x {
		x[i] = float64(i)
	}
	dst := make(matrix.Vector, 16)
	roundTrip := func() {
		tk, err := s.SubmitMatVecIntoQoS(dst, a, x, nil, w, core.EngineCompiled, QoS{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the shard's plan memo and the job pool
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs != 0 {
		t.Errorf("steady-state stream job allocates %v objects/op, want 0", allocs)
	}
}
