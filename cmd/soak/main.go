// Command soak is a randomized differential tester: it drives every
// public code path (matvec by-rows / by-columns / lower-band / overlapped /
// sparse / multi-problem, matmul with and without E / 3-way overlapped,
// iterative and direct solvers) on random shapes and
// compares each result bit-for-bit against host reference arithmetic,
// while also checking every measured step count against the paper's
// formulas. Every matvec/matmul case — and, in the solvers category, every
// triangular solve and block LU — runs through BOTH execution engines: the
// cycle-accurate structural oracle and the compiled-schedule fast path,
// with results and stats compared bit-for-bit. The sparse category is the
// pattern-keyed differential: random retained-block patterns solved on the
// structural simulator, the compiled pattern-keyed plan and an arena pass,
// all DeepEqual and matched against host arithmetic and the closed-form
// step count. The sparse-batch category extends that differential to the
// batched replay — random batch depths through SolveMany and the arena
// PassManyInto, every vector DeepEqual its per-vector solve — and to the
// overlapped two-program schedule form, which must keep Y and the per-PE
// stats while never taking more steps. The solvers category also
// exercises the full direct solve, the block-partitioned embedding and the
// triangular inverse, the last on both engines; the stream category drives a
// sustained mixed-shape problem stream through the sharded stream
// scheduler at random shard counts — the cross-runtime differential:
// every ticket (matvec, matmul and pattern-routed sparse, full and Into
// variants) must redeem to exactly what a serial solve of the same problem
// returns, stats included; and the chaos category re-runs the stream
// differential under a seeded fault injector (forced sheds, delays, job
// panics) with mixed priorities and deadlines — every fault must surface
// as its typed error (ErrSaturated, stream.ErrDeadlineExceeded,
// core.ErrPanicked with a stack), every non-faulted ticket must still
// redeem to the serial result, and the scheduler's counters must add up.
// The solve-stream category is the solve-as-a-service differential:
// random systems streamed as full and Into solve tickets with mixed
// engines, priorities and deadlines, each required DeepEqual — solution
// and stats — to the serial one-shot solve.Solve, plus a singular system
// whose typed failure must leave its shard serving.
// The conditioning category is the no-garbage invariant: adversarially
// conditioned systems — well-conditioned rows scrambled so factorization
// needs pivoting, exactly singular (a zero column), symmetric indefinite,
// and geometric diagonal ladders spanning mild to near-singular — solved
// with partial pivoting and iterative refinement. Every scenario must end
// in one of exactly two states: a finite solution with a converged
// condition report, bit-identical across both engines and the stream
// runtime, or a typed error (*solve.SingularError or
// *solve.IllConditionedError) — never NaN, Inf or a silently wrong
// vector.
// Exits non-zero on the first mismatch.
//
// Usage:
//
//	soak -n 200 -seed 7 -maxw 5 [-only chaos]
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/sparse"
	"repro/internal/stream"
	"repro/internal/trisolve"
)

var failures int

func main() {
	n := flag.Int("n", 100, "random cases per category")
	seed := flag.Int64("seed", 1, "random seed")
	maxw := flag.Int("maxw", 5, "largest array size to draw")
	flag.StringVar(&only, "only", "", "run a single category (empty = all)")
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))

	run("matvec", *n, func() { matvecCase(rng, *maxw) })
	run("matmul", *n, func() { matmulCase(rng, *maxw) })
	run("sparse", *n/2, func() { sparseCase(rng, *maxw) })
	run("sparse-batch", *n/2, func() { sparseBatchCase(rng, *maxw) })
	run("solvers", *n/5, func() { solverCase(rng, *maxw) })
	run("stream", *n/10, func() { streamCase(rng, *maxw) })
	run("solve-stream", *n/10, func() { solveStreamCase(rng, *maxw) })
	run("conditioning", *n/5, func() { conditioningCase(rng, *maxw) })
	run("chaos", *n/10, func() { chaosCase(rng, *maxw) })

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "soak: %d failures\n", failures)
		os.Exit(1)
	}
	fmt.Println("soak: all categories clean")
}

// only, when set by the -only flag, restricts the run to one category.
var only string

func run(name string, n int, f func()) {
	if only != "" && only != name {
		return
	}
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		f()
	}
	fmt.Printf("  %-12s %4d cases ok\n", name, n)
}

func fail(format string, args ...interface{}) {
	failures++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

func matvecCase(rng *rand.Rand, maxw int) {
	w := 1 + rng.Intn(maxw)
	n := 1 + rng.Intn(4*w)
	m := 1 + rng.Intn(4*w)
	a := matrix.RandomDense(rng, n, m, 5)
	x := matrix.RandomVector(rng, m, 5)
	b := matrix.RandomVector(rng, n, 5)
	want := a.MulVec(x, b)
	s := core.NewMatVecSolver(w)

	opts := core.MatVecOptions{
		LowerBand: rng.Intn(2) == 0,
		ByColumns: rng.Intn(3) == 0,
	}
	nbar := (n + w - 1) / w
	if !opts.ByColumns && nbar >= 2 && rng.Intn(3) == 0 {
		opts.Overlap = true
	}
	res, err := s.Solve(a, x, b, opts)
	if err != nil {
		fail("matvec solve (w=%d n=%d m=%d %+v): %v", w, n, m, opts, err)
		return
	}
	if !res.Y.Equal(want, 0) {
		fail("matvec wrong (w=%d n=%d m=%d %+v): off %g", w, n, m, opts, res.Y.MaxAbsDiff(want))
	}
	// Cross-engine: the structural oracle must agree bit-for-bit, result
	// and stats alike.
	oracleOpts := opts
	oracleOpts.Engine = core.EngineOracle
	ores, err := s.Solve(a, x, b, oracleOpts)
	if err != nil {
		fail("matvec oracle solve (w=%d n=%d m=%d %+v): %v", w, n, m, opts, err)
		return
	}
	if !res.Y.Equal(ores.Y, 0) {
		fail("matvec engines disagree on Y (w=%d n=%d m=%d %+v)", w, n, m, opts)
	}
	if !reflect.DeepEqual(res.Stats, ores.Stats) {
		fail("matvec engines disagree on stats (w=%d n=%d m=%d %+v):\ncompiled %+v\noracle   %+v",
			w, n, m, opts, res.Stats, ores.Stats)
	}
	if !opts.Overlap && res.Stats.T != res.Stats.PredictedT {
		fail("matvec T=%d vs paper %d (w=%d n=%d m=%d %+v)", res.Stats.T, res.Stats.PredictedT, w, n, m, opts)
	}
	for _, d := range res.Stats.FeedbackDelays {
		wantD := analysis.MatVecFeedbackDelay(w)
		if opts.ByColumns {
			wantD = (2*nbar - 1) * w
		}
		if d != wantD {
			fail("matvec feedback delay %d, want %d (%+v)", d, wantD, opts)
		}
	}
}

func matmulCase(rng *rand.Rand, maxw int) {
	w := 1 + rng.Intn(maxw)
	n := 1 + rng.Intn(3*w)
	p := 1 + rng.Intn(3*w)
	m := 1 + rng.Intn(3*w)
	a := matrix.RandomDense(rng, n, p, 4)
	b := matrix.RandomDense(rng, p, m, 4)
	s := core.NewMatMulSolver(w)
	if rng.Intn(4) == 0 {
		// 3-way overlap path.
		as := []*matrix.Dense{a, matrix.RandomDense(rng, m, p, 4), matrix.RandomDense(rng, p, n, 4)}
		bs := []*matrix.Dense{b, matrix.RandomDense(rng, p, n, 4), matrix.RandomDense(rng, n, m, 4)}
		cs, _, err := s.SolveMany(as, bs)
		if err != nil {
			fail("matmul SolveMany: %v", err)
			return
		}
		for i := range cs {
			if !cs[i].Equal(as[i].Mul(bs[i]), 0) {
				fail("matmul SolveMany problem %d wrong (w=%d)", i, w)
			}
		}
		return
	}
	var e *matrix.Dense
	if rng.Intn(2) == 0 {
		e = matrix.RandomDense(rng, n, m, 4)
	}
	res, err := s.Solve(a, b, core.MatMulOptions{E: e})
	if err != nil {
		fail("matmul solve (w=%d %d×%d·%d×%d): %v", w, n, p, p, m, err)
		return
	}
	want := a.Mul(b)
	if e != nil {
		want = want.AddM(e)
	}
	if !res.C.Equal(want, 0) {
		fail("matmul wrong (w=%d n=%d p=%d m=%d): off %g", w, n, p, m, res.C.MaxAbsDiff(want))
	}
	if res.Stats.T != res.Stats.PredictedT {
		fail("matmul T=%d vs paper %d (w=%d)", res.Stats.T, res.Stats.PredictedT, w)
	}
	ores, err := s.Solve(a, b, core.MatMulOptions{E: e, Engine: core.EngineOracle})
	if err != nil {
		fail("matmul oracle solve (w=%d): %v", w, err)
		return
	}
	if !res.C.Equal(ores.C, 0) {
		fail("matmul engines disagree on C (w=%d n=%d p=%d m=%d)", w, n, p, m)
	}
	if !reflect.DeepEqual(res.Stats, ores.Stats) {
		fail("matmul engines disagree on stats (w=%d n=%d p=%d m=%d):\ncompiled %+v\noracle   %+v",
			w, n, p, m, res.Stats, ores.Stats)
	}
}

// sparseCase is the pattern-keyed differential: every random pattern runs
// on the structural simulator (the oracle) and the compiled pattern-keyed
// plan — whole results DeepEqual, stats included — against host reference
// arithmetic and the closed-form step count, with the compiled pass
// variant replayed on an arena.
func sparseCase(rng *rand.Rand, maxw int) {
	w := 1 + rng.Intn(maxw)
	nb := 1 + rng.Intn(5)
	mb := 1 + rng.Intn(5)
	a := matrix.NewDense(nb*w, mb*w)
	for r := 0; r < nb; r++ {
		for s := 0; s < mb; s++ {
			if rng.Float64() < 0.5 {
				for i := 0; i < w; i++ {
					for j := 0; j < w; j++ {
						a.Set(r*w+i, s*w+j, float64(rng.Intn(9)-4))
					}
				}
			}
		}
	}
	x := matrix.RandomVector(rng, mb*w, 5)
	var b matrix.Vector
	if rng.Intn(3) > 0 {
		b = matrix.RandomVector(rng, nb*w, 5)
	}
	tr := sparse.NewMatVec(a, w)
	res, err := tr.SolveEngine(x, b, core.EngineOracle)
	if err != nil {
		fail("sparse solve: %v", err)
		return
	}
	if !res.Y.Equal(a.MulVec(x, b), 0) {
		fail("sparse wrong (w=%d n̄=%d m̄=%d density %.2f)", w, nb, mb, tr.Density())
	}
	if res.T != tr.PredictedSteps() {
		fail("sparse T=%d vs predicted %d", res.T, tr.PredictedSteps())
	}
	cres, err := tr.SolveEngine(x, b, core.EngineCompiled)
	if err != nil {
		fail("sparse compiled solve: %v", err)
		return
	}
	if !reflect.DeepEqual(cres, res) {
		fail("sparse engines disagree (w=%d n̄=%d m̄=%d density %.2f):\ncompiled %+v\noracle   %+v",
			w, nb, mb, tr.Density(), cres, res)
	}
	dst := make(matrix.Vector, tr.N)
	sparseArena.Reset()
	steps, err := tr.PassInto(sparseArena, dst, x, b, core.EngineCompiled)
	if err != nil {
		fail("sparse pass: %v", err)
		return
	}
	if steps != res.T || !dst.Equal(res.Y, 0) {
		fail("sparse pass differs from structural (w=%d n̄=%d m̄=%d)", w, nb, mb)
	}
}

// sparseArena is the arena the sparse category replays compiled passes on
// — one owner goroutine, pattern-keyed plan memo warmed across cases.
var sparseArena = core.NewArena()

// sparseBatchCase is the batched-replay differential: a random batch of
// right-hand sides through SolveMany on a random engine must match the
// per-vector solves element for element (whole Results DeepEqual), the
// arena PassManyInto must reproduce the same outputs, and the overlapped
// two-program schedule form must return the same Y and per-PE stats as the
// back-to-back solve — on both its structural and compiled forms — in no
// more steps.
func sparseBatchCase(rng *rand.Rand, maxw int) {
	w := 1 + rng.Intn(maxw)
	nb := 1 + rng.Intn(5)
	mb := 1 + rng.Intn(5)
	a := matrix.NewDense(nb*w, mb*w)
	for r := 0; r < nb; r++ {
		for s := 0; s < mb; s++ {
			if rng.Float64() < 0.5 {
				for i := 0; i < w; i++ {
					for j := 0; j < w; j++ {
						a.Set(r*w+i, s*w+j, float64(rng.Intn(9)-4))
					}
				}
			}
		}
	}
	tr := sparse.NewMatVec(a, w)
	k := 1 + rng.Intn(6)
	xs := make([]matrix.Vector, k)
	bs := make([]matrix.Vector, k)
	for v := range xs {
		xs[v] = matrix.RandomVector(rng, mb*w, 5)
		if rng.Intn(3) > 0 {
			bs[v] = matrix.RandomVector(rng, nb*w, 5)
		}
	}
	eng := []core.Engine{core.EngineOracle, core.EngineCompiled, core.EngineAuto}[rng.Intn(3)]
	serial := make([]*sparse.Result, k)
	for v := range xs {
		res, err := tr.SolveEngine(xs[v], bs[v], eng)
		if err != nil {
			fail("sparse-batch serial solve: %v", err)
			return
		}
		serial[v] = res
	}
	batched, err := tr.SolveMany(xs, bs, eng)
	if err != nil {
		fail("sparse-batch SolveMany: %v", err)
		return
	}
	if !reflect.DeepEqual(batched, serial) {
		fail("sparse-batch diverges from per-vector solves (w=%d n̄=%d m̄=%d k=%d eng=%v)", w, nb, mb, k, eng)
	}
	dsts := make([]matrix.Vector, k)
	for v := range dsts {
		dsts[v] = make(matrix.Vector, tr.N)
	}
	sparseArena.Reset()
	steps, err := tr.PassManyInto(sparseArena, dsts, xs, bs, core.EngineCompiled)
	if err != nil {
		fail("sparse-batch pass: %v", err)
		return
	}
	for v := range dsts {
		if steps != serial[v].T || !dsts[v].Equal(serial[v].Y, 0) {
			fail("sparse-batch pass vector %d differs from serial (w=%d n̄=%d m̄=%d k=%d)", v, w, nb, mb, k)
		}
	}
	ov, err := tr.SolveOverlappedEngine(xs[0], bs[0], core.EngineCompiled)
	if err != nil {
		fail("sparse-batch overlapped solve: %v", err)
		return
	}
	ovS, err := tr.SolveOverlappedEngine(xs[0], bs[0], core.EngineOracle)
	if err != nil {
		fail("sparse-batch overlapped structural solve: %v", err)
		return
	}
	if !reflect.DeepEqual(ov, ovS) {
		fail("sparse-batch overlapped forms disagree (w=%d n̄=%d m̄=%d)", w, nb, mb)
	}
	if !ov.Y.Equal(serial[0].Y, 0) || !reflect.DeepEqual(ov.MACs, serial[0].MACs) || ov.T > serial[0].T {
		fail("sparse-batch overlap changed results (w=%d n̄=%d m̄=%d T=%d vs %d)", w, nb, mb, ov.T, serial[0].T)
	}
}

func solverCase(rng *rand.Rand, maxw int) {
	if maxw < 2 {
		maxw = 2 // the solver arrays need w ≥ 2
	}
	w := 2 + rng.Intn(maxw-1)
	n := 1 + rng.Intn(12)
	// Triangular solve on the dedicated array, on BOTH engines: correct
	// against reference arithmetic and bit-identical to each other, results
	// and stats alike.
	l := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, float64(rng.Intn(5)-2))
		}
		l.Set(i, i, float64(1+rng.Intn(3)))
	}
	want := matrix.RandomVector(rng, n, 3)
	d := l.MulVec(want, nil)
	tw := trisolve.NewWorkspace(w)
	x, ox := make(matrix.Vector, n), make(matrix.Vector, n)
	st, err := tw.SolveLowerInto(x, l, d, core.EngineCompiled)
	if err != nil {
		fail("trisolve: %v", err)
		return
	}
	if !x.Equal(want, 1e-8) {
		fail("trisolve wrong (w=%d n=%d): off %g", w, n, x.MaxAbsDiff(want))
	}
	ost, err := tw.SolveLowerInto(ox, l, d, core.EngineOracle)
	if err != nil {
		fail("trisolve oracle: %v", err)
		return
	}
	if !reflect.DeepEqual(x, ox) || st != ost {
		fail("trisolve engines disagree (w=%d n=%d):\ncompiled %v %+v\noracle   %v %+v", w, n, x, st, ox, ost)
	}
	// LU with array trailing updates: factors bit-identical across engines.
	a := matrix.RandomDense(rng, n, n, 2)
	for i := 0; i < n; i++ {
		a.Set(i, i, 20)
	}
	lf, uf, lst, err := solve.BlockLU(a, w, solve.Options{Engine: core.EngineCompiled})
	if err != nil {
		fail("lu: %v", err)
		return
	}
	if !lf.Mul(uf).Equal(a, 1e-8) {
		fail("lu wrong (w=%d n=%d)", w, n)
	}
	olf, ouf, olst, err := solve.BlockLU(a, w, solve.Options{Engine: core.EngineOracle})
	if err != nil {
		fail("lu oracle: %v", err)
		return
	}
	if !lf.Equal(olf, 0) || !uf.Equal(ouf, 0) || !reflect.DeepEqual(lst, olst) {
		fail("lu engines disagree (w=%d n=%d)", w, n)
	}
	// Full direct solve and the block-partitioned embedding.
	xb := matrix.RandomVector(rng, n, 3)
	db := a.MulVec(xb, nil)
	xs, _, err := solve.Solve(a, db, w, solve.Options{})
	if err != nil {
		fail("solve: %v", err)
		return
	}
	if !xs.Equal(xb, 1e-6) {
		fail("solve wrong (w=%d n=%d): off %g", w, n, xs.MaxAbsDiff(xb))
	}
	xp, _, err := solve.BlockPartitionedSolve(a, db, w, solve.Options{})
	if err != nil {
		fail("blockpart solve: %v", err)
		return
	}
	if !xp.Equal(xb, 1e-6) {
		fail("blockpart solve wrong (w=%d n=%d): off %g", w, n, xp.MaxAbsDiff(xb))
	}
	// Triangular inverse on both engines: bit-identical, stats included.
	inv, ist, err := solve.LowerTriangularInverse(l, w, solve.Options{Engine: core.EngineCompiled})
	if err != nil {
		fail("inverse: %v", err)
		return
	}
	oinv, oist, err := solve.LowerTriangularInverse(l, w, solve.Options{Engine: core.EngineOracle})
	if err != nil {
		fail("inverse oracle: %v", err)
		return
	}
	if !inv.Equal(oinv, 0) || !reflect.DeepEqual(ist, oist) {
		fail("inverse engines disagree (w=%d n=%d)", w, n)
	}
}

// streamCase drives a mixed-shape slice of problems through a stream
// scheduler at a random shard count and checks every redeemed ticket —
// results and stats — bit-for-bit against serial solves.
func streamCase(rng *rand.Rand, maxw int) {
	w := 1 + rng.Intn(maxw)
	shards := 1 + rng.Intn(4)
	s := stream.New(stream.Config{Shards: shards, QueueBound: 4 + rng.Intn(12)})
	defer s.Close()

	count := 6 + rng.Intn(10)
	mvp := make([]stream.MatVecProblem, 0, count)
	mvTickets := make([]stream.MatVecTicket, 0, count)
	mmp := make([]stream.MatMulProblem, 0, count)
	mmTickets := make([]stream.MatMulTicket, 0, count)
	// A couple of shapes recycled across the stream — the affinity path.
	shapes := [][2]int{{1 + rng.Intn(3*w), 1 + rng.Intn(3*w)}, {1 + rng.Intn(3*w), 1 + rng.Intn(3*w)}}
	for i := 0; i < count; i++ {
		var eng core.Engine
		if rng.Intn(3) == 0 {
			eng = core.EngineOracle
		}
		if rng.Intn(2) == 0 {
			sh := shapes[i%len(shapes)]
			p := stream.MatVecProblem{
				A:    matrix.RandomDense(rng, sh[0], sh[1], 5),
				X:    matrix.RandomVector(rng, sh[1], 5),
				B:    matrix.RandomVector(rng, sh[0], 5),
				Opts: core.MatVecOptions{Engine: eng},
			}
			tk, err := s.SubmitMatVecQoS(w, p, stream.QoS{})
			if err != nil {
				fail("stream submit matvec: %v", err)
				return
			}
			mvp, mvTickets = append(mvp, p), append(mvTickets, tk)
		} else {
			n, pd, m := 1+rng.Intn(2*w), 1+rng.Intn(2*w), 1+rng.Intn(2*w)
			p := stream.MatMulProblem{
				A:    matrix.RandomDense(rng, n, pd, 4),
				B:    matrix.RandomDense(rng, pd, m, 4),
				Opts: core.MatMulOptions{Engine: eng},
			}
			tk, err := s.SubmitMatMulQoS(w, p, stream.QoS{})
			if err != nil {
				fail("stream submit matmul: %v", err)
				return
			}
			mmp, mmTickets = append(mmp, p), append(mmTickets, tk)
		}
	}
	// Sparse tickets: one recycled random pattern (the affinity path) plus
	// its zero-alloc Into variant, checked below against serial solves.
	spw := 1 + rng.Intn(maxw)
	spnb, spmb := 1+rng.Intn(3), 1+rng.Intn(3)
	spa := matrix.NewDense(spnb*spw, spmb*spw)
	for r := 0; r < spnb; r++ {
		for c := 0; c < spmb; c++ {
			if rng.Intn(2) == 0 {
				for i := 0; i < spw; i++ {
					for j := 0; j < spw; j++ {
						spa.Set(r*spw+i, c*spw+j, float64(rng.Intn(9)-4))
					}
				}
			}
		}
	}
	spTr := sparse.NewMatVec(spa, spw)
	spx := matrix.RandomVector(rng, spmb*spw, 5)
	spTk, err := s.SubmitSparseMatVecQoS(spTr, spx, nil, core.EngineCompiled, stream.QoS{})
	if err != nil {
		fail("stream submit sparse: %v", err)
		return
	}
	spDst := make(matrix.Vector, spTr.N)
	spPass, err := s.SubmitSparseMatVecInto(spDst, spTr, spx, nil, core.EngineCompiled)
	if err != nil {
		fail("stream submit sparse into: %v", err)
		return
	}
	s.Flush()
	spGot, err := spTk.Wait()
	if err != nil {
		fail("stream sparse wait: %v", err)
		return
	}
	spWant, err := spTr.SolveEngine(spx, nil, core.EngineCompiled)
	if err != nil {
		fail("stream sparse serial check: %v", err)
		return
	}
	if !reflect.DeepEqual(spGot, spWant) {
		fail("stream sparse differs from serial (w=%d shards=%d)", spw, shards)
	}
	if steps, err := spPass.Wait(); err != nil || steps != spWant.T || !spDst.Equal(spWant.Y, 0) {
		fail("stream sparse pass differs from serial (w=%d shards=%d): %v", spw, shards, err)
	}
	for i, tk := range mvTickets {
		got, err := tk.Wait()
		if err != nil {
			fail("stream matvec wait: %v", err)
			return
		}
		want, err := core.NewMatVecSolver(w).Solve(mvp[i].A, mvp[i].X, mvp[i].B, mvp[i].Opts)
		if err != nil {
			fail("stream matvec serial check: %v", err)
			return
		}
		if !reflect.DeepEqual(got, want) {
			fail("stream matvec %d differs from serial (w=%d shards=%d)", i, w, shards)
		}
	}
	for i, tk := range mmTickets {
		got, err := tk.Wait()
		if err != nil {
			fail("stream matmul wait: %v", err)
			return
		}
		want, err := core.NewMatMulSolver(w).Solve(mmp[i].A, mmp[i].B, mmp[i].Opts)
		if err != nil {
			fail("stream matmul serial check: %v", err)
			return
		}
		if !reflect.DeepEqual(got, want) {
			fail("stream matmul %d differs from serial (w=%d shards=%d)", i, w, shards)
		}
	}
}

// solveStreamCase is the solve-as-a-service differential: random
// diagonally loaded systems streamed through the scheduler as full and
// Into solve tickets with mixed engines, priorities and generous
// deadlines, every redemption required DeepEqual — solution AND stats —
// to the serial one-shot solve.Solve of the same system. Sizes recycle so
// the shard-arena workspace pool serves warm hits, and one deliberately
// singular system per case checks the typed failure path leaves the shard
// serving.
func solveStreamCase(rng *rand.Rand, maxw int) {
	if maxw < 2 {
		maxw = 2
	}
	w := 2 + rng.Intn(maxw-1)
	shards := 1 + rng.Intn(4)
	s := stream.New(stream.Config{Shards: shards, QueueBound: 32})
	defer s.Close()

	count := 6 + rng.Intn(8)
	sizes := []int{2 + rng.Intn(2*w), 2 + rng.Intn(2*w)} // recycled → warm workspaces
	type ref struct {
		x     matrix.Vector
		stats *solve.SolveStats
	}
	as := make([]*matrix.Dense, count)
	ds := make([]matrix.Vector, count)
	refs := make([]ref, count)
	full := make([]stream.SolveTicket, count)
	into := make([]stream.SolvePassTicket, count)
	dsts := make([]matrix.Vector, count)
	for i := 0; i < count; i++ {
		n := sizes[i%len(sizes)]
		a := matrix.RandomDense(rng, n, n, 2)
		for k := 0; k < n; k++ {
			a.Set(k, k, 20)
		}
		d := matrix.RandomVector(rng, n, 5)
		var eng core.Engine
		if rng.Intn(3) == 0 {
			eng = core.EngineOracle
		}
		x, stats, err := solve.Solve(a, d, w, solve.Options{Engine: eng})
		if err != nil {
			fail("solve-stream serial reference: %v", err)
			return
		}
		as[i], ds[i], refs[i] = a, d, ref{x, stats}
		q := stream.QoS{}
		if rng.Intn(2) == 0 {
			q.Deadline = time.Now().Add(time.Minute)
		}
		if rng.Intn(4) == 0 {
			q.Priority = stream.Low
		}
		if full[i], err = s.SubmitSolveOpts(a, d, w, solve.Options{Engine: eng}, q); err != nil {
			fail("solve-stream submit: %v", err)
			return
		}
		dsts[i] = make(matrix.Vector, n)
		if into[i], err = s.SubmitSolveIntoQoS(dsts[i], a, d, w, eng, stream.QoS{}); err != nil {
			fail("solve-stream submit Into: %v", err)
			return
		}
	}
	for i := 0; i < count; i++ {
		x, stats, err := full[i].Wait()
		if err != nil {
			fail("solve-stream ticket %d: %v", i, err)
			continue
		}
		if !reflect.DeepEqual(x, refs[i].x) || !reflect.DeepEqual(stats, refs[i].stats) {
			fail("solve-stream ticket %d diverged from serial (n=%d w=%d shards=%d)", i, as[i].Rows(), w, shards)
		}
		istats, err := into[i].Wait()
		if err != nil {
			fail("solve-stream Into ticket %d: %v", i, err)
			continue
		}
		if !reflect.DeepEqual(dsts[i], refs[i].x) || !reflect.DeepEqual(istats, *refs[i].stats) {
			fail("solve-stream Into ticket %d diverged from serial (n=%d w=%d shards=%d)", i, as[i].Rows(), w, shards)
		}
	}
	// One singular system: typed error with the pivot index, then the same
	// shape again must still solve — no workspace poisoning.
	sing := matrix.NewDense(2, 2)
	sing.Set(0, 1, 1)
	sing.Set(1, 0, 1)
	sing.Set(1, 1, 1)
	stk, err := s.SubmitSolveOpts(sing, matrix.Vector{1, 2}, w, solve.Options{Engine: core.EngineCompiled}, stream.QoS{})
	if err != nil {
		fail("solve-stream singular submit: %v", err)
		return
	}
	var serr *solve.SingularError
	if _, _, err := stk.Wait(); !errors.As(err, &serr) || serr.Index != 0 {
		fail("solve-stream singular system returned %v, want *solve.SingularError at pivot 0", err)
	}
	good := matrix.FromRows([][]float64{{4, 1}, {1, 3}})
	wantX, wantStats, err := solve.Solve(good, matrix.Vector{1, 2}, w, solve.Options{})
	if err != nil {
		fail("solve-stream post-singular reference: %v", err)
		return
	}
	gtk, err := s.SubmitSolveOpts(good, matrix.Vector{1, 2}, w, solve.Options{Engine: core.EngineAuto}, stream.QoS{})
	if err != nil {
		fail("solve-stream post-singular submit: %v", err)
		return
	}
	if gx, gstats, err := gtk.Wait(); err != nil || !reflect.DeepEqual(gx, wantX) || !reflect.DeepEqual(gstats, wantStats) {
		fail("solve-stream post-singular solve diverged (err=%v)", err)
	}
}

// conditioningCase draws one adversarially conditioned system — rows
// scrambled so factorization needs pivoting, exactly singular, symmetric
// indefinite, or a geometric diagonal ladder — and requires the pivoted,
// refined solve to end in exactly one of two states: a finite solution
// with a converged condition report, bit-identical across engines and the
// stream runtime, or a typed *solve.SingularError /
// *solve.IllConditionedError. Anything else — an untyped failure, NaN or
// Inf in the solution, an unconverged report on the success path, or an
// engine disagreement — is a garbage escape.
func conditioningCase(rng *rand.Rand, maxw int) {
	if maxw < 2 {
		maxw = 2
	}
	w := 2 + rng.Intn(maxw-1)
	n := 3 + rng.Intn(10)
	kind := rng.Intn(4)
	kinds := [4]string{"needs-pivoting", "singular", "indefinite", "geometric-ladder"}
	a := matrix.NewDense(n, n)
	switch kind {
	case 0: // well-conditioned rows scrambled: unpivoted LU hits tiny or zero pivots
		dd := matrix.RandomDense(rng, n, n, 3)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if j != i {
					rowSum += math.Abs(dd.At(i, j))
				}
			}
			dd.Set(i, i, rowSum+1+float64(rng.Intn(3)))
		}
		for i, pi := range rng.Perm(n) {
			for j := 0; j < n; j++ {
				a.Set(i, j, dd.At(pi, j))
			}
		}
	case 1: // exactly singular: one column identically zero (exact in fp)
		zc := rng.Intn(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != zc {
					a.Set(i, j, float64(rng.Intn(9)-4))
				}
			}
		}
	case 2: // symmetric indefinite: mixed-sign diagonal, no dominance
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				v := float64(rng.Intn(7) - 3)
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
			sign := float64(1 - 2*(rng.Intn(2)))
			a.Set(i, i, sign*float64(1+rng.Intn(4)))
		}
	case 3: // geometric diagonal ladder: condition grows as ratio^(n-1)
		ratio := []float64{2, 4, 10}[rng.Intn(3)]
		scale := 1.0
		for i := 0; i < n; i++ {
			a.Set(i, i, scale)
			scale /= ratio
			for j := 0; j < i; j++ {
				a.Set(i, j, float64(rng.Intn(3)-1)*scale)
			}
		}
	}
	d := matrix.RandomVector(rng, n, 5)
	opts := solve.Options{
		Engine: core.EngineCompiled,
		Pivot:  solve.PivotPartial,
		Refine: solve.RefineOptions{MaxIters: 4},
	}
	x, stats, err := solve.Solve(a, d, w, opts)

	oracleOpts := opts
	oracleOpts.Engine = core.EngineOracle
	ox, ostats, oerr := solve.Solve(a, d, w, oracleOpts)

	if err != nil {
		var serr *solve.SingularError
		var cerr *solve.IllConditionedError
		if !errors.As(err, &serr) && !errors.As(err, &cerr) {
			fail("conditioning %s (n=%d w=%d): untyped failure %v", kinds[kind], n, w, err)
			return
		}
		if kind == 1 && !errors.As(err, &serr) {
			fail("conditioning singular (n=%d w=%d): zero column surfaced as %v, want *solve.SingularError", n, w, err)
		}
		// The failure must be engine-invariant: same outcome, same type.
		if oerr == nil {
			fail("conditioning %s (n=%d w=%d): compiled failed (%v) but oracle solved", kinds[kind], n, w, err)
		} else if errors.As(err, &serr) != errors.As(oerr, &serr) {
			fail("conditioning %s (n=%d w=%d): engines disagree on failure type: %v vs %v", kinds[kind], n, w, err, oerr)
		}
		return
	}
	if kind == 1 {
		fail("conditioning singular (n=%d w=%d): exactly singular system produced a solution", n, w)
		return
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fail("conditioning %s (n=%d w=%d): garbage x[%d]=%g escaped", kinds[kind], n, w, i, v)
			return
		}
	}
	if !stats.Refine.Converged {
		fail("conditioning %s (n=%d w=%d): success path carries an unconverged report %+v", kinds[kind], n, w, stats.Refine)
	}
	if oerr != nil {
		fail("conditioning %s (n=%d w=%d): compiled solved but oracle failed: %v", kinds[kind], n, w, oerr)
		return
	}
	if !reflect.DeepEqual(x, ox) || !reflect.DeepEqual(stats, ostats) {
		fail("conditioning %s (n=%d w=%d): engines disagree on the refined solve", kinds[kind], n, w)
	}
	// The stream runtime must redeem the same system to the same bits.
	s := stream.New(stream.Config{Shards: 1 + rng.Intn(3)})
	defer s.Close()
	tk, serr2 := s.SubmitSolveOpts(a, d, w, opts, stream.QoS{})
	if serr2 != nil {
		fail("conditioning %s stream submit: %v", kinds[kind], serr2)
		return
	}
	sx, sstats, werr := tk.Wait()
	if werr != nil {
		fail("conditioning %s (n=%d w=%d): stream failed where serial solved: %v", kinds[kind], n, w, werr)
		return
	}
	if !reflect.DeepEqual(sx, x) || !reflect.DeepEqual(sstats, stats) {
		fail("conditioning %s (n=%d w=%d): stream diverged from serial", kinds[kind], n, w)
	}
}

// chaosCase is the fault-injection differential: a mixed matvec stream
// with deterministic injected sheds, delays and panics, plus mixed
// priorities and (generous) deadlines. Every submission either succeeds or
// fails with a typed error; every redeemed ticket either carries a typed
// fault or a result bit-identical to the serial solve; and the scheduler's
// counters must account for every job.
func chaosCase(rng *rand.Rand, maxw int) {
	w := 1 + rng.Intn(maxw)
	shards := 1 + rng.Intn(4)
	inj := &stream.Injector{
		Seed:       rng.Int63(),
		ShedEvery:  5 + rng.Intn(5),
		PanicEvery: 5 + rng.Intn(5),
		DelayEvery: 6,
		Delay:      50 * time.Microsecond,
	}
	s := stream.New(stream.Config{Shards: shards, Injector: inj})
	defer s.Close()

	count := 12 + rng.Intn(12)
	problems := make([]stream.MatVecProblem, 0, count)
	tickets := make([]stream.MatVecTicket, 0, count)
	var sheds, accepted int
	for i := 0; i < count; i++ {
		n, m := 1+rng.Intn(3*w), 1+rng.Intn(3*w)
		p := stream.MatVecProblem{
			A: matrix.RandomDense(rng, n, m, 5),
			X: matrix.RandomVector(rng, m, 5),
			B: matrix.RandomVector(rng, n, 5),
		}
		q := stream.QoS{}
		if i%3 == 0 {
			q.Priority = stream.Low
		}
		if i%2 == 0 {
			q.Deadline = time.Now().Add(time.Hour) // live, never binding
		}
		tk, err := s.SubmitMatVecQoS(w, p, q)
		if err != nil {
			if !errors.Is(err, stream.ErrSaturated) && !errors.Is(err, stream.ErrDeadlineExceeded) {
				fail("chaos submit %d failed with untyped error: %v", i, err)
				return
			}
			sheds++
			continue
		}
		accepted++
		problems, tickets = append(problems, p), append(tickets, tk)
	}

	var panics int
	for i, tk := range tickets {
		got, err := tk.Wait()
		if err != nil {
			var perr *core.PanicError
			switch {
			case errors.As(err, &perr):
				if !errors.Is(err, core.ErrPanicked) || len(perr.Stack) == 0 {
					fail("chaos job %d panic error lacks sentinel or stack: %v", i, err)
					return
				}
				panics++
			case errors.Is(err, stream.ErrDeadlineExceeded):
				// Possible only under extreme scheduler starvation; the
				// typed error is the contract either way.
			default:
				fail("chaos job %d failed with untyped error: %v", i, err)
				return
			}
			continue
		}
		want, err := core.NewMatVecSolver(w).Solve(problems[i].A, problems[i].X, problems[i].B, problems[i].Opts)
		if err != nil {
			fail("chaos serial check %d: %v", i, err)
			return
		}
		if !reflect.DeepEqual(got, want) {
			fail("chaos job %d differs from serial (w=%d shards=%d seed=%d)", i, w, shards, inj.Seed)
			return
		}
	}

	st := s.Stats()
	if st.Submitted != uint64(accepted) || st.Completed != st.Submitted {
		fail("chaos stats %+v: %d accepted jobs must all complete", st, accepted)
	}
	if st.Shed != uint64(sheds) {
		fail("chaos stats %+v: observed %d admission sheds", st, sheds)
	}
	if st.Panics != uint64(panics) {
		fail("chaos stats %+v: observed %d panicked tickets", st, panics)
	}
	if st.ShedHigh+st.ShedLow != st.Shed {
		fail("chaos stats %+v: per-priority sheds do not sum", st)
	}
}
