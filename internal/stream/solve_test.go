package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/trisolve"
)

// ddSystem builds a strictly diagonally dominant n×n system, so every
// leading minor is nonsingular and BlockLU proceeds without pivoting.
func ddSystem(rng *rand.Rand, n int) (*matrix.Dense, matrix.Vector) {
	a := matrix.RandomDense(rng, n, n, 3)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				rowSum += math.Abs(a.At(i, j))
			}
		}
		a.Set(i, i, rowSum+1+float64(rng.Intn(3)))
	}
	return a, matrix.RandomVector(rng, n, 5)
}

// permuteRows scrambles a system's rows in place-equivalent copies, so a
// well-conditioned matrix needs pivoting to factor.
func permuteRows(rng *rand.Rand, a *matrix.Dense, d matrix.Vector) (*matrix.Dense, matrix.Vector) {
	n := a.Rows()
	p := rng.Perm(n)
	pa := matrix.NewDense(n, n)
	pd := make(matrix.Vector, n)
	for i, pi := range p {
		for j := 0; j < n; j++ {
			pa.Set(i, j, a.At(pi, j))
		}
		pd[i] = d[pi]
	}
	return pa, pd
}

// solveCase is one streamed direct solve with its serial reference.
type solveCase struct {
	a    *matrix.Dense
	d    matrix.Vector
	w    int
	opts solve.Options
	x    matrix.Vector
	want *solve.SolveStats
}

// solveCases draws a case set with deliberate size repeats (the affinity
// and warm-workspace path) across both engines and both pivot policies
// (row-scrambled systems for the pivoted cases, so the permutation is
// nontrivial), with refinement sprinkled in, solving each with the serial
// one-shot solve.Solve for the reference.
func solveCases(t *testing.T, rng *rand.Rand, count int) []solveCase {
	t.Helper()
	sizes := []int{4, 6, 9, 4, 6} // recycled → same shard, warm workspace
	var cases []solveCase
	for i := 0; i < count; i++ {
		c := solveCase{w: 2 + i%2, opts: solve.Options{Engine: core.EngineCompiled}}
		if i%3 == 0 {
			c.opts.Engine = core.EngineOracle
		}
		c.a, c.d = ddSystem(rng, sizes[i%len(sizes)])
		if i%2 == 1 {
			c.opts.Pivot = solve.PivotPartial
			c.a, c.d = permuteRows(rng, c.a, c.d)
		}
		if i%4 == 3 {
			c.opts.Refine = solve.RefineOptions{MaxIters: 3}
		}
		x, stats, err := solve.Solve(c.a, c.d, c.w, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		c.x, c.want = x, stats
		cases = append(cases, c)
	}
	return cases
}

// TestSolveStreamMatrix is the solve-ticket equivalence matrix of ISSUE 7,
// extended by ISSUE 8 with pivoting and refinement: streamed full direct
// solves over engines {oracle, compiled} × pivot policies {None, Partial}
// × shards {1, 2, NumCPU} × admission policies {Block, Shed} return
// solutions AND stats (LU, pivot permutation, triangular and matvec pass
// accounting, refinement report, residual) DeepEqual to the serial
// one-shot solve.Solve, on both the full-result and the Into ticket
// variants (the Into stats carry a nil Perm by contract).
func TestSolveStreamMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(786))
	cases := solveCases(t, rng, 30)
	for _, shards := range shardLadder() {
		for _, policy := range []Policy{Block, Shed} {
			t.Run(fmt.Sprintf("shards=%d/policy=%v", shards, policy), func(t *testing.T) {
				s := New(Config{Shards: shards, QueueBound: 2 * len(cases), Policy: policy})
				defer s.Close()
				full := make([]SolveTicket, len(cases))
				into := make([]SolvePassTicket, len(cases))
				dsts := make([]matrix.Vector, len(cases))
				for i, c := range cases {
					var err error
					full[i], err = s.SubmitSolveOpts(c.a, c.d, c.w, c.opts, QoS{})
					if err != nil {
						t.Fatalf("SubmitSolveOpts %d: %v", i, err)
					}
					dsts[i] = make(matrix.Vector, len(c.d))
					into[i], err = s.SubmitSolveIntoOpts(dsts[i], c.a, c.d, c.w, c.opts, QoS{})
					if err != nil {
						t.Fatalf("SubmitSolveIntoOpts %d: %v", i, err)
					}
				}
				s.Flush()
				for i, c := range cases {
					x, stats, err := full[i].Wait()
					if err != nil {
						t.Fatalf("case %d: %v", i, err)
					}
					if !reflect.DeepEqual(x, c.x) || !reflect.DeepEqual(stats, c.want) {
						t.Errorf("case %d (n=%d w=%d %+v): stream solve diverged from serial", i, c.a.Rows(), c.w, c.opts)
					}
					istats, err := into[i].Wait()
					if err != nil {
						t.Fatalf("case %d Into: %v", i, err)
					}
					wantInto := *c.want
					wantInto.LU.Perm = nil
					if !reflect.DeepEqual(dsts[i], c.x) || !reflect.DeepEqual(istats, wantInto) {
						t.Errorf("case %d (n=%d w=%d %+v): Into solve diverged from serial", i, c.a.Rows(), c.w, c.opts)
					}
				}
				st := s.Stats()
				want := uint64(2 * len(cases))
				if st.Submitted != want || st.Completed != want || st.Shed != 0 || st.Panics != 0 {
					t.Errorf("stats %+v, want %d submitted+completed, 0 shed/panics", st, want)
				}
			})
		}
	}
}

// TestSolveChaos extends the chaos suite to solve tickets: under injected
// panics, delays, a stalled shard and live deadlines, every accepted solve
// ticket redeems exactly once with either a typed error (*core.PanicError
// or *DeadlineError, errors.Is-matchable) or a result DeepEqual to serial
// — never a stale or garbage solution — and every shard keeps serving.
func TestSolveChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(787))
	cases := solveCases(t, rng, 60)
	for _, shards := range shardLadder() {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := New(Config{
				Shards:     shards,
				QueueBound: len(cases),
				Injector: &Injector{
					Seed: 786, PanicEvery: 4,
					DelayEvery: 6, Delay: 500 * time.Microsecond,
					StallShard: 0, StallDelay: 200 * time.Microsecond,
				},
			})
			defer s.Close()
			tickets := make([]SolveTicket, len(cases))
			accepted := 0
			for i, c := range cases {
				q := QoS{}
				if i%5 == 0 {
					// A live but generous deadline: admission must not
					// corrupt the result, only ever fail it typed.
					q.Deadline = time.Now().Add(time.Minute)
				}
				tk, err := s.SubmitSolveOpts(c.a, c.d, c.w, c.opts, q)
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				tickets[i] = tk
				accepted++
			}
			panics := 0
			for i, c := range cases {
				x, stats, err := tickets[i].Wait()
				if err == nil {
					if !reflect.DeepEqual(x, c.x) || !reflect.DeepEqual(stats, c.want) {
						t.Errorf("case %d: chaos survivor diverged from serial", i)
					}
					continue
				}
				var perr *core.PanicError
				switch {
				case errors.As(err, &perr):
					if !errors.Is(err, core.ErrPanicked) || len(perr.Stack) == 0 {
						t.Fatalf("case %d: panic error %#v lacks sentinel or stack", i, err)
					}
					panics++
				case errors.Is(err, ErrDeadlineExceeded):
					// Typed expiry; the solution slots stay empty.
				default:
					t.Fatalf("case %d: unexpected error %v", i, err)
				}
				if x != nil || stats != nil {
					t.Errorf("case %d: failed ticket leaked a result", i)
				}
			}
			if panics == 0 {
				t.Fatal("injector fired no solve panics — the chaos suite tested nothing")
			}
			st := s.Stats()
			if st.Submitted != uint64(accepted) || st.Completed != uint64(accepted) {
				t.Errorf("stats %+v, want %d submitted and completed exactly once", st, accepted)
			}
			if st.Panics != uint64(panics) {
				t.Errorf("Stats.Panics = %d, observed %d panic errors", st.Panics, panics)
			}

			// The fleet survived: a clean follow-up solve still serves.
			c := cases[0]
			tk, err := s.SubmitSolveOpts(c.a, c.d, c.w, c.opts, QoS{})
			if err != nil {
				t.Fatal(err)
			}
			// The follow-up may itself draw an injected panic; retry until a
			// clean draw proves the shards kept serving.
			for {
				x, stats, err := tk.Wait()
				if err == nil {
					if !reflect.DeepEqual(x, c.x) || !reflect.DeepEqual(stats, c.want) {
						t.Error("post-chaos solve diverged from serial")
					}
					break
				}
				if !errors.Is(err, core.ErrPanicked) {
					t.Fatalf("post-chaos solve: %v", err)
				}
				if tk, err = s.SubmitSolveOpts(c.a, c.d, c.w, c.opts, QoS{}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSolveStreamExpiry: a solve ticket whose deadline passes while it
// waits resolves to the typed expiry error and the caller's dst is never
// touched — the deadline machinery covers the new job kinds end to end.
func TestSolveStreamExpiry(t *testing.T) {
	rng := rand.New(rand.NewSource(788))
	a, d := ddSystem(rng, 6)
	s := New(Config{Shards: 1, Injector: &Injector{StallShard: 0, StallDelay: 20 * time.Millisecond}})
	defer s.Close()
	// Occupy the shard so the doomed ticket expires while queued.
	blocker, err := s.SubmitSolveOpts(a, d, 2, solve.Options{Engine: core.EngineCompiled}, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	dst := matrix.Vector{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	tk, err := s.SubmitSolveIntoQoS(dst, a, d, 2, core.EngineCompiled, QoS{Deadline: time.Now().Add(time.Millisecond)})
	if err != nil {
		// Predictive admission may shed it up front once the EWMA is warm;
		// that is the same typed failure, still with dst untouched.
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("submit: %v", err)
		}
	} else {
		stats, werr := tk.Wait()
		if !errors.Is(werr, ErrDeadlineExceeded) {
			t.Fatalf("expired ticket returned %v, want ErrDeadlineExceeded", werr)
		}
		var derr *DeadlineError
		if !errors.As(werr, &derr) || !derr.Expired {
			t.Fatalf("expired ticket error %#v, want *DeadlineError{Expired: true}", werr)
		}
		if !reflect.DeepEqual(stats, solve.SolveStats{}) {
			t.Errorf("expired ticket leaked stats %+v", stats)
		}
	}
	for i, v := range dst {
		if !math.IsNaN(v) {
			t.Fatalf("dst[%d] = %v: expired solve touched the caller's buffer", i, v)
		}
	}
	if _, _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSolveStreamSingular is the no-workspace-poisoning regression test: a
// singular system streamed through the scheduler resolves its ticket to an
// errors.As-matchable *solve.SingularError with the pivot index intact,
// the Into variant leaves dst untouched, and a follow-up solve routed to
// the very same shard (same shape key) succeeds with serial-equal results
// — one bad system can never take a shard's warm workspace down.
func TestSolveStreamSingular(t *testing.T) {
	singular := matrix.FromRows([][]float64{{0, 1}, {1, 1}})
	d := matrix.Vector{1, 2}
	for _, shards := range shardLadder() {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := New(Config{Shards: shards})
			defer s.Close()

			tk, err := s.SubmitSolveOpts(singular, d, 2, solve.Options{Engine: core.EngineCompiled}, QoS{})
			if err != nil {
				t.Fatal(err)
			}
			x, stats, werr := tk.Wait()
			var serr *solve.SingularError
			if !errors.As(werr, &serr) {
				t.Fatalf("singular solve returned %v, want *solve.SingularError", werr)
			}
			if serr.Index != 0 || serr.Op != "solve.BlockLU" {
				t.Errorf("singular error %+v, want pivot index 0 from solve.BlockLU", serr)
			}
			if !errors.Is(werr, trisolve.ErrSingular) {
				t.Error("singular error does not match the trisolve.ErrSingular sentinel")
			}
			if x != nil || stats != nil {
				t.Error("singular ticket leaked a result")
			}

			dst := matrix.Vector{math.NaN(), math.NaN()}
			itk, err := s.SubmitSolveIntoQoS(dst, singular, d, 2, core.EngineCompiled, QoS{})
			if err != nil {
				t.Fatal(err)
			}
			if _, werr := itk.Wait(); !errors.As(werr, &serr) {
				t.Fatalf("singular Into solve returned %v, want *solve.SingularError", werr)
			}
			if !math.IsNaN(dst[0]) || !math.IsNaN(dst[1]) {
				t.Errorf("singular Into solve touched dst: %v", dst)
			}

			// Same shape, same engine → same shard, same (just-poisoned?)
			// workspace. It must serve a clean system bit-identically.
			good := matrix.FromRows([][]float64{{4, 1}, {1, 3}})
			wantX, wantStats, err := solve.Solve(good, d, 2, solve.Options{Engine: core.EngineCompiled})
			if err != nil {
				t.Fatal(err)
			}
			gtk, err := s.SubmitSolveOpts(good, d, 2, solve.Options{Engine: core.EngineCompiled}, QoS{})
			if err != nil {
				t.Fatal(err)
			}
			gx, gstats, err := gtk.Wait()
			if err != nil {
				t.Fatalf("follow-up solve on the singular shard: %v", err)
			}
			if !reflect.DeepEqual(gx, wantX) || !reflect.DeepEqual(gstats, wantStats) {
				t.Error("follow-up solve diverged from serial after a singular ticket")
			}
		})
	}
}

// TestSolveStreamIllConditioned: a refinement budget too tight for the
// requested tolerance resolves the ticket with the typed
// *solve.IllConditionedError and its ConditionReport — never an
// unconverged solution — and the shard keeps serving afterwards.
func TestSolveStreamIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(815))
	a, d := ddSystem(rng, 6)
	// An unreachable absolute tolerance forces the refinement loop to
	// exhaust its budget deterministically (the seed gives a nonzero
	// floating-point residual at every iteration).
	opts := solve.Options{
		Engine: core.EngineCompiled,
		Pivot:  solve.PivotPartial,
		Refine: solve.RefineOptions{MaxIters: 2, Tol: 1e-300},
	}
	s := New(Config{Shards: 2})
	defer s.Close()

	tk, err := s.SubmitSolveOpts(a, d, 2, opts, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	x, stats, werr := tk.Wait()
	var cerr *solve.IllConditionedError
	if !errors.As(werr, &cerr) {
		t.Fatalf("unconverged refinement returned %v, want *solve.IllConditionedError", werr)
	}
	if !errors.Is(werr, trisolve.ErrIllConditioned) {
		t.Error("ill-conditioned error does not match the trisolve.ErrIllConditioned sentinel")
	}
	if cerr.Report.Converged || cerr.Report.Iters != 2 || cerr.Report.ResidualNorm <= 0 {
		t.Errorf("condition report %+v, want 2 unconverged iterations with a positive residual", cerr.Report)
	}
	if x != nil || stats != nil {
		t.Error("ill-conditioned ticket leaked a result")
	}

	dst := matrix.Vector{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	itk, err := s.SubmitSolveIntoOpts(dst, a, d, 2, opts, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := itk.Wait(); !errors.As(werr, &cerr) {
		t.Fatalf("unconverged Into refinement returned %v, want *solve.IllConditionedError", werr)
	}
	if !math.IsNaN(dst[0]) || !math.IsNaN(dst[5]) {
		t.Errorf("ill-conditioned Into solve touched dst: %v", dst)
	}

	// The shard and its pooled workspace must stay healthy: the same
	// system with a sane budget converges and matches serial exactly.
	opts.Refine = solve.RefineOptions{MaxIters: 4}
	wantX, wantStats, err := solve.Solve(a, d, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	gtk, err := s.SubmitSolveOpts(a, d, 2, opts, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	gx, gstats, err := gtk.Wait()
	if err != nil {
		t.Fatalf("follow-up solve after ill-conditioned tickets: %v", err)
	}
	if !reflect.DeepEqual(gx, wantX) || !reflect.DeepEqual(gstats, wantStats) {
		t.Error("follow-up refined solve diverged from serial after ill-conditioned tickets")
	}
}

// TestSolveStreamValidation: malformed solve submissions fail at Submit
// with a synchronous error, before any job is drawn or enqueued.
func TestSolveStreamValidation(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	sq := matrix.FromRows([][]float64{{1, 0}, {0, 1}})
	rect := matrix.FromRows([][]float64{{1, 0, 0}, {0, 1, 0}})
	d := matrix.Vector{1, 2}
	if _, err := s.SubmitSolveOpts(rect, d, 2, solve.Options{Engine: core.EngineCompiled}, QoS{}); err == nil {
		t.Error("rectangular A was accepted")
	}
	if _, err := s.SubmitSolveOpts(sq, matrix.Vector{1}, 2, solve.Options{Engine: core.EngineCompiled}, QoS{}); err == nil {
		t.Error("short d was accepted")
	}
	if _, err := s.SubmitSolveOpts(sq, d, 0, solve.Options{Engine: core.EngineCompiled}, QoS{}); err == nil {
		t.Error("w=0 was accepted")
	}
	if _, err := s.SubmitSolveIntoQoS(matrix.Vector{1}, sq, d, 2, core.EngineCompiled, QoS{}); err == nil {
		t.Error("short dst was accepted")
	}
	if _, err := s.SubmitSolveOpts(sq, d, 2, solve.Options{Pivot: solve.PivotPolicy(9)}, QoS{}); err == nil {
		t.Error("an unknown pivot policy was accepted")
	}
	if _, err := s.SubmitSolveOpts(sq, d, 2, solve.Options{Refine: solve.RefineOptions{MaxIters: -1}}, QoS{}); err == nil {
		t.Error("a negative refinement budget was accepted")
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Errorf("validation failures consumed admissions: %+v", st)
	}
}

// TestSolveStreamZeroAllocSteadyState: the warm solve-as-a-service steady
// state allocates nothing — a compiled SubmitSolveIntoQoS round trip on a
// warm shard reports 0 allocs/op, with and without a live deadline,
// matching the matvec and sparse Into guarantees.
func TestSolveStreamZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rng := rand.New(rand.NewSource(789))
	a, d := ddSystem(rng, 8)
	s := New(Config{Shards: 2})
	defer s.Close()
	dst := make(matrix.Vector, 8)
	roundTrip := func(q QoS) {
		tk, err := s.SubmitSolveIntoQoS(dst, a, d, 2, core.EngineCompiled, q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip(QoS{}) // warm the shard's workspace, plans and job pool
	if allocs := testing.AllocsPerRun(50, func() { roundTrip(QoS{}) }); allocs != 0 {
		t.Errorf("steady-state solve stream job allocates %v objects/op, want 0", allocs)
	}
	deadline := QoS{Deadline: time.Now().Add(time.Hour)}
	roundTrip(deadline)
	if allocs := testing.AllocsPerRun(50, func() { roundTrip(deadline) }); allocs != 0 {
		t.Errorf("steady-state QoS solve stream job allocates %v objects/op, want 0", allocs)
	}

	// Pivoting and refinement ride the same pooled job and the shard
	// workspace's reused buffers, so the warm guarantee survives both.
	pa, pd := permuteRows(rng, a, d)
	opts := solve.Options{
		Engine: core.EngineCompiled,
		Pivot:  solve.PivotPartial,
		Refine: solve.RefineOptions{MaxIters: 3},
	}
	pivoted := func() {
		tk, err := s.SubmitSolveIntoOpts(dst, pa, pd, 2, opts, QoS{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	pivoted()
	if allocs := testing.AllocsPerRun(50, pivoted); allocs != 0 {
		t.Errorf("steady-state pivoted+refined solve stream job allocates %v objects/op, want 0", allocs)
	}
}
