// Command sweep regenerates the paper's quantitative results (experiments
// E1–E13, E15, E16 and E20 of DESIGN.md): step-count formulas, utilization
// asymptotes, feedback delays, register demands, baseline comparisons, the
// sparsity ablation, the §4 variants, the execution-engine comparisons for
// the matrix-product and solver workloads, the stream scheduler, the
// pattern-keyed sparse plan ladder, and the batched-replay depth ladder
// with the overlapped two-program schedule form — each as a table of
// paper-predicted vs simulator-measured values.
//
// Usage:
//
//	sweep            # run every experiment
//	sweep -exp E5    # run one experiment
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/solve"
	"repro/internal/sparse"
	"repro/internal/stream"
	"repro/internal/trisolve"
)

func main() {
	exp := flag.String("exp", "", "experiment id (E1..E13, E15, E16, E20); empty = all")
	flag.Parse()
	exps := []struct {
		id  string
		fn  func()
		doc string
	}{
		{"E1", e1, "matvec steps T = 2wn̄m̄+2w−3"},
		{"E2", e2, "matvec overlapped steps T = wn̄m̄+2w−2"},
		{"E3", e3, "matvec utilization → 1/2"},
		{"E4", e4, "matvec overlapped utilization → 1"},
		{"E5", e5, "matmul steps T = 3wp̄n̄m̄+4w−5"},
		{"E6", e6, "matmul utilization → 1/3"},
		{"E7", e7, "feedback delays (regular & irregular)"},
		{"E8", e8, "feedback register demand"},
		{"E9", e9, "baseline comparison"},
		{"E10", e10, "sparsity ablation"},
		{"E11", e11, "transformation variants (§4): by-columns, grouping, lower band, triangular array"},
		{"E12", e12, "execution engines: compiled-schedule speedup"},
		{"E13", e13, "solver workloads on both engines: trisolve, LU, full and block-partitioned solve"},
		{"E15", e15, "stream scheduler: sustained mixed-shape stream throughput across shard counts"},
		{"E16", e16, "pattern-keyed sparse plans: compiled engine across retained-block densities"},
		{"E20", e20, "batched replay depth ladder and the overlapped two-program schedule form"},
	}
	ran := false
	for _, e := range exps {
		if *exp == "" || *exp == e.id {
			fmt.Printf("== %s: %s ==\n", e.id, e.doc)
			e.fn()
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "sweep: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if misses > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d closed-form checks failed\n", misses)
		os.Exit(1)
	}
}

// misses counts the closed-form checks that failed; main exits non-zero
// if any did.
var misses int

// claim records one closed-form check (a measured value against the
// paper's formula) and returns its outcome for the printed table.
func claim(ok bool) bool {
	if !ok {
		misses++
	}
	return ok
}

func rng() *rand.Rand { return rand.New(rand.NewSource(1986)) }

func e1() {
	r := rng()
	fmt.Println("   w  n̄  m̄   T(paper)  T(measured)  match")
	for _, w := range []int{2, 3, 5, 8} {
		for _, nm := range [][2]int{{1, 1}, {2, 3}, {4, 4}, {6, 6}} {
			a := matrix.RandomDense(r, nm[0]*w, nm[1]*w, 3)
			x := matrix.RandomVector(r, nm[1]*w, 3)
			res, err := core.NewMatVecSolver(w).Solve(a, x, nil, core.MatVecOptions{})
			check(err)
			fmt.Printf("  %2d %2d %2d   %8d  %11d  %v\n", w, nm[0], nm[1],
				res.Stats.PredictedT, res.Stats.T, claim(res.Stats.T == res.Stats.PredictedT))
		}
	}
}

func e2() {
	r := rng()
	fmt.Println("   w  n̄  m̄   T(paper)  T(measured)  match")
	for _, w := range []int{2, 3, 5} {
		for _, nm := range [][2]int{{2, 2}, {4, 3}, {6, 2}} {
			a := matrix.RandomDense(r, nm[0]*w, nm[1]*w, 3)
			x := matrix.RandomVector(r, nm[1]*w, 3)
			res, err := core.NewMatVecSolver(w).Solve(a, x, nil, core.MatVecOptions{Overlap: true})
			check(err)
			fmt.Printf("  %2d %2d %2d   %8d  %11d  %v\n", w, nm[0], nm[1],
				res.Stats.PredictedT, res.Stats.T, claim(res.Stats.T == res.Stats.PredictedT))
		}
	}
}

func e3() {
	r := rng()
	w := 4
	fmt.Println("  n̄m̄    η(paper)  η(measured)   (→ 1/2)")
	for _, nm := range []int{1, 2, 4, 8, 16, 32} {
		a := matrix.RandomDense(r, nm*w, w, 3)
		x := matrix.RandomVector(r, w, 3)
		res, err := core.NewMatVecSolver(w).Solve(a, x, nil, core.MatVecOptions{})
		check(err)
		fmt.Printf("  %4d   %.5f   %.5f\n", nm, res.Stats.PredictedUtilization, res.Stats.Utilization)
	}
}

func e4() {
	r := rng()
	w := 4
	fmt.Println("  n̄m̄    η(paper)  η(measured)   (→ 1)")
	for _, nm := range []int{2, 4, 8, 16, 32} {
		a := matrix.RandomDense(r, nm*w, w, 3)
		x := matrix.RandomVector(r, w, 3)
		res, err := core.NewMatVecSolver(w).Solve(a, x, nil, core.MatVecOptions{Overlap: true})
		check(err)
		fmt.Printf("  %4d   %.5f   %.5f\n", nm, res.Stats.PredictedUtilization, res.Stats.Utilization)
	}
}

func e5() {
	r := rng()
	fmt.Println("   w  n̄  p̄  m̄   T(paper)  T(measured)  match")
	for _, w := range []int{2, 3, 4} {
		for _, s := range [][3]int{{1, 1, 1}, {2, 2, 3}, {2, 3, 2}, {3, 2, 3}} {
			a := matrix.RandomDense(r, s[0]*w, s[1]*w, 2)
			b := matrix.RandomDense(r, s[1]*w, s[2]*w, 2)
			res, err := core.NewMatMulSolver(w).Solve(a, b, core.MatMulOptions{})
			check(err)
			fmt.Printf("  %2d %2d %2d %2d   %8d  %11d  %v\n", w, s[0], s[1], s[2],
				res.Stats.PredictedT, res.Stats.T, claim(res.Stats.T == res.Stats.PredictedT))
		}
	}
}

func e6() {
	r := rng()
	w := 3
	fmt.Println("  p̄n̄m̄   η(paper)  η(measured)   (→ 1/3)")
	for _, pnm := range []int{1, 2, 4, 8, 18} {
		a := matrix.RandomDense(r, pnm*w, w, 2)
		b := matrix.RandomDense(r, w, w, 2)
		res, err := core.NewMatMulSolver(w).Solve(a, b, core.MatMulOptions{})
		check(err)
		fmt.Printf("  %5d   %.5f   %.5f\n", pnm, res.Stats.PredictedUtilization, res.Stats.Utilization)
	}
}

func e7() {
	r := rng()
	fmt.Println("  matvec: every feedback edge must have delay w")
	for _, w := range []int{2, 4, 6} {
		a := matrix.RandomDense(r, 2*w, 3*w, 2)
		x := matrix.RandomVector(r, 3*w, 2)
		res, err := core.NewMatVecSolver(w).Solve(a, x, nil, core.MatVecOptions{})
		check(err)
		uniform := true
		for _, d := range res.Stats.FeedbackDelays {
			if d != w {
				uniform = false
			}
		}
		fmt.Printf("    w=%d: %d edges, all delay %d: %v\n", w, len(res.Stats.FeedbackDelays), w, claim(uniform))
	}
	fmt.Println("  matmul: regular delays w (sub-diagonals) and 2w (main diagonal);")
	fmt.Println("  irregular delays 3w(p̄(n̄−1)+1)−2w and 3w·n̄p̄(m̄−1)+w")
	fmt.Println("  [paper quotes 6(w−1)(n̄−1)p̄+w and 6(n̄p̄)(m̄−1)(w−1)+w — same affine")
	fmt.Println("   shape and same +w constant; slope differs by the I/O latching convention]")
	for _, s := range [][4]int{{2, 2, 3, 3}, {3, 2, 2, 4}} {
		nb, pb, mb, w := s[0], s[1], s[2], s[3]
		a := matrix.RandomDense(r, nb*w, pb*w, 2)
		b := matrix.RandomDense(r, pb*w, mb*w, 2)
		res, err := core.NewMatMulSolver(w).Solve(a, b, core.MatMulOptions{})
		check(err)
		fmt.Printf("    w=%d n̄=%d p̄=%d m̄=%d: regular %v, irregular %v (paper U: %d, L: %d)\n",
			w, nb, pb, mb, schedule.BinDelays(res.Stats.RegularDelays), schedule.BinDelays(res.Stats.IrregularDelays),
			analysis.MatMulIrregularDelayU(w, nb, pb), analysis.MatMulIrregularDelayL(w, nb, pb, mb))
	}
}

func e8() {
	r := rng()
	fmt.Println("   w   main diag(paper 2w)  sub-diag(paper w)  measured max regular")
	for _, w := range []int{2, 3, 4, 5} {
		a := matrix.RandomDense(r, 2*w, 2*w, 2)
		b := matrix.RandomDense(r, 2*w, 2*w, 2)
		res, err := core.NewMatMulSolver(w).Solve(a, b, core.MatMulOptions{})
		check(err)
		md, sub, _ := analysis.MatMulRegisterDemand(w)
		max := 0
		for _, bin := range res.Stats.RegularDelays {
			if bin.Delay > max {
				max = bin.Delay
			}
		}
		fmt.Printf("  %2d   %19d  %17d  %20d\n", w, md, sub, max)
	}
}

func e9() {
	r := rng()
	w := 4
	n, m := 16, 16
	a := matrix.RandomDense(r, n, m, 3)
	x := matrix.RandomVector(r, m, 3)
	dbtRes, err := core.NewMatVecSolver(w).Solve(a, x, nil, core.MatVecOptions{})
	check(err)
	over, err := core.NewMatVecSolver(w).Solve(a, x, nil, core.MatVecOptions{Overlap: true})
	check(err)
	flush := baseline.BlockFlush(a, x, nil, w)
	direct := baseline.DirectBand(a, x, nil)
	flushT := baseline.BlockFlushSteps(w, n/w, m/w)
	directT, directPEs := baseline.DirectBandSteps(n, m), analysis.DirectBandPEs(n, m)
	fmt.Printf("  scheme           PEs     T     η       external ops\n")
	fmt.Printf("  DBT              %3d  %5d   %.4f   0\n", w, dbtRes.Stats.T, dbtRes.Stats.Utilization)
	fmt.Printf("  DBT overlapped   %3d  %5d   %.4f   0\n", w, over.Stats.T, over.Stats.Utilization)
	fmt.Printf("  block flush      %3d  %5d   %.4f   %d\n", flush.ArraySize, flush.T, flush.Utilization, flush.ExternalOps)
	fmt.Printf("  direct band      %3d  %5d   %.4f   0   (array size grows with problem)\n",
		direct.ArraySize, direct.T, direct.Utilization)
	fmt.Printf("  block flush T = n̄m̄(4w−3) = %d: %v\n", flushT, claim(flush.T == flushT))
	fmt.Printf("  direct band T = 2n+2(n+m−1)−3 = %d, PEs = n+m−1 = %d: %v\n",
		directT, directPEs, claim(direct.T == directT && direct.ArraySize == directPEs))
}

func e10() {
	r := rng()
	w := 4
	nb, mb := 8, 8
	fmt.Println("  density   Q    T(sparse)  T(dense DBT)  speedup")
	for _, density := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		a := matrix.NewDense(nb*w, mb*w)
		for br := 0; br < nb; br++ {
			for bs := 0; bs < mb; bs++ {
				if r.Float64() < density {
					for i := 0; i < w; i++ {
						for j := 0; j < w; j++ {
							a.Set(br*w+i, bs*w+j, float64(r.Intn(9)-4))
						}
					}
				}
			}
		}
		x := matrix.RandomVector(r, mb*w, 3)
		tr := sparse.NewMatVec(a, w)
		res, err := tr.Solve(x, nil)
		check(err)
		dense := analysis.MatVecSteps(w, nb, mb)
		sp := 0.0
		if res.T > 0 {
			sp = float64(dense) / float64(res.T)
		}
		fmt.Printf("   %.2f   %3d   %8d  %12d   %.2fx\n", density, res.Q, res.T, dense, sp)
	}
}

func e11() {
	r := rng()
	w := 3
	fmt.Println("  by-rows vs by-columns (same T, different feedback registers):")
	fmt.Println("   n̄  m̄    T     delay(by-rows)  delay(by-columns)  (2n̄−1)w")
	for _, nm := range [][2]int{{2, 3}, {4, 2}, {6, 4}} {
		nb, mb := nm[0], nm[1]
		a := matrix.RandomDense(r, nb*w, mb*w, 3)
		x := matrix.RandomVector(r, mb*w, 3)
		rows, err := core.NewMatVecSolver(w).Solve(a, x, nil, core.MatVecOptions{})
		check(err)
		cols, err := core.NewMatVecSolver(w).Solve(a, x, nil, core.MatVecOptions{ByColumns: true})
		check(err)
		dr, dc := 0, 0
		if len(rows.Stats.FeedbackDelays) > 0 {
			dr = rows.Stats.FeedbackDelays[0]
		}
		if len(cols.Stats.FeedbackDelays) > 0 {
			dc = cols.Stats.FeedbackDelays[0]
		}
		fmt.Printf("   %2d %2d  %5d   %13d  %17d  %7d\n",
			nb, mb, rows.Stats.T, dr, dc, analysis.ByColumnsFeedbackDelay(w, nb))
	}
	fmt.Println("  PE grouping (§2, 2 PEs → 1): grouped η vs plain η (conflict-free):")
	a := matrix.RandomDense(r, 16*4, 4, 3)
	x := matrix.RandomVector(r, 4, 3)
	res, err := core.NewMatVecSolver(4).Solve(a, x, nil, core.MatVecOptions{})
	check(err)
	fmt.Printf("   w=4 n̄m̄=16: η=%.4f grouped=%.4f conflicts=%d\n",
		res.Stats.Utilization, res.Stats.GroupedUtilization, res.Stats.GroupableConflicts)
	low, err := core.NewMatVecSolver(4).Solve(a, x, nil, core.MatVecOptions{LowerBand: true})
	check(err)
	fmt.Printf("  lower-band variant: same T (%d = %d) and result (Δ=%g)\n",
		low.Stats.T, res.Stats.T, low.Y.MaxAbsDiff(res.Y))
	fmt.Println("  triangular solver array (2n+w−2 steps):")
	for _, n := range []int{6, 12, 24} {
		l := matrix.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				l.Set(i, j, float64(r.Intn(5)-2))
			}
			l.Set(i, i, float64(1+r.Intn(3)))
		}
		want := matrix.RandomVector(r, n, 3)
		x := make(matrix.Vector, n)
		st, err := trisolve.NewWorkspace(4).SolveLowerInto(x, l, l.MulVec(want, nil), core.EngineAuto)
		check(err)
		fmt.Printf("   n=%2d: tri %d steps (%d passes) + matvec %d steps (%d passes), error %.1e\n",
			n, st.TriSteps, st.TriPasses, st.MatVecSteps, st.MatVecPasses, x.MaxAbsDiff(want))
	}
}

// e12 is not a paper experiment but a simulator-substrate one: it measures
// the compiled-schedule engine against the cycle-accurate oracle on
// identical problems. It only times them; the engine equivalence suites
// and cmd/soak check that the two engines agree bit for bit.
func e12() {
	r := rng()
	fmt.Println("  engine comparison (identical results, wall-clock per solve):")
	fmt.Println("   problem            oracle      compiled   speedup")
	av := matrix.RandomDense(r, 16*8, 8, 3)
	xv := matrix.RandomVector(r, 8, 3)
	am := matrix.RandomDense(r, 9, 9, 2)
	bm := matrix.RandomDense(r, 9, 9, 2)
	for _, c := range []struct {
		name string
		run  func(eng core.Engine) error
	}{
		{"matvec w=8 n̄m̄=16", func(eng core.Engine) error {
			_, err := core.NewMatVecSolver(8).Solve(av, xv, nil, core.MatVecOptions{Engine: eng})
			return err
		}},
		{"matmul w=3 p̄n̄m̄=27", func(eng core.Engine) error {
			_, err := core.NewMatMulSolver(3).Solve(am, bm, core.MatMulOptions{Engine: eng})
			return err
		}},
	} {
		timeOf := func(eng core.Engine) time.Duration {
			const reps = 200
			check(c.run(eng)) // warm up schedule cache and allocator
			start := time.Now()
			for i := 0; i < reps; i++ {
				check(c.run(eng))
			}
			return time.Since(start) / reps
		}
		to := timeOf(core.EngineOracle)
		tc := timeOf(core.EngineCompiled)
		fmt.Printf("   %-18s %9s  %9s   %5.1fx\n", c.name, to, tc, float64(to)/float64(tc))
	}

}

// e13 measures the solver workloads across engines: every case runs on the
// cycle-accurate oracle and the compiled-schedule fast path, results are
// cross-checked bit-for-bit, and wall-clock per solve is reported.
func e13() {
	r := rng()
	w := 4

	// Band triangular solve on the dedicated array.
	n := 96
	l := matrix.NewBand(n, n, -(w - 1), 0)
	for i := 0; i < n; i++ {
		for d := 1; d < w; d++ {
			if j := i - d; j >= 0 {
				l.Set(i, j, float64(r.Intn(5)-2))
			}
		}
		l.Set(i, i, float64(1+r.Intn(3)))
	}
	bb := matrix.RandomVector(r, n, 3)

	// Dense solver inputs (lower triangular and general).
	nd := 32
	ld := matrix.NewDense(nd, nd)
	for i := 0; i < nd; i++ {
		for j := 0; j < i; j++ {
			ld.Set(i, j, float64(r.Intn(5)-2))
		}
		ld.Set(i, i, float64(1+r.Intn(3)))
	}
	dd := ld.MulVec(matrix.RandomVector(r, nd, 3), nil)
	a := matrix.RandomDense(r, nd, nd, 2)
	for i := 0; i < nd; i++ {
		a.Set(i, i, 25)
	}
	da := a.MulVec(matrix.RandomVector(r, nd, 3), nil)
	tws := trisolve.NewWorkspace(w)
	bandT := map[core.Engine]int{}

	fmt.Println("  every case solved on both engines, results bit-identical:")
	fmt.Println("   workload                  oracle      compiled   speedup")
	for _, c := range []struct {
		name string
		run  func(eng core.Engine) (matrix.Vector, error)
	}{
		{fmt.Sprintf("trisolve band n=%d", n), func(eng core.Engine) (matrix.Vector, error) {
			res, err := trisolve.New(w).SolveBandEngine(l, bb, eng)
			if err != nil {
				return nil, err
			}
			bandT[eng] = res.T
			return res.X, nil
		}},
		{fmt.Sprintf("trisolve dense n=%d", nd), func(eng core.Engine) (matrix.Vector, error) {
			x := make(matrix.Vector, nd)
			_, err := tws.SolveLowerInto(x, ld, dd, eng)
			return x, err
		}},
		{fmt.Sprintf("block LU n=%d", nd), func(eng core.Engine) (matrix.Vector, error) {
			lf, uf, _, err := solve.BlockLU(a, w, solve.Options{Engine: eng})
			if err != nil {
				return nil, err
			}
			return append(matrix.Vector(nil), append(lf.RawRow(nd-1), uf.RawRow(0)...)...), nil
		}},
		{fmt.Sprintf("full solve n=%d", nd), func(eng core.Engine) (matrix.Vector, error) {
			x, _, err := solve.Solve(a, da, w, solve.Options{Engine: eng})
			return x, err
		}},
		{fmt.Sprintf("blockpart solve n=%d", nd-3), func(eng core.Engine) (matrix.Vector, error) {
			x, _, err := solve.BlockPartitionedSolve(a.Slice(0, nd-3, 0, nd-3), da[:nd-3], w, solve.Options{Engine: eng})
			return x, err
		}},
	} {
		var res [2]matrix.Vector
		var times [2]time.Duration
		for ei, eng := range []core.Engine{core.EngineOracle, core.EngineCompiled} {
			const reps = 20
			x, err := c.run(eng) // warm up plan cache and allocator
			check(err)
			start := time.Now()
			for i := 0; i < reps; i++ {
				x, err = c.run(eng)
				check(err)
			}
			times[ei] = time.Since(start) / reps
			res[ei] = x
		}
		match := "bit-identical"
		if !res[0].Equal(res[1], 0) {
			match = "MISMATCH"
		}
		fmt.Printf("   %-24s %9s  %9s   %5.1fx   %s\n",
			c.name, times[0], times[1], float64(times[0])/float64(times[1]), match)
		if match == "MISMATCH" {
			// Never expected: the equivalence suites and soak enforce this
			// continuously. Abort after printing the offending row.
			fmt.Fprintf(os.Stderr, "sweep: cross-engine mismatch on %s\n", c.name)
			os.Exit(1)
		}
	}
	triT := analysis.TriSolveSteps(n, w)
	fmt.Printf("  trisolve band n=%d: T = 2n+w−2 = %d on both engines: %v\n",
		n, triT, claim(bandT[core.EngineOracle] == triT && bandT[core.EngineCompiled] == triT))
}

// e15 measures the stream scheduler: a sustained mixed-shape stream of
// compiled matvec jobs (two shapes recycled, so the shape-affinity routing
// keeps hitting warm plan memos) driven through schedulers at shard counts
// {1, 2, NumCPU}. Every result is checked bit-for-bit against a serial
// solve; throughput is wall-clock jobs/s. Single-core hosts show scheduler
// overhead at parity — the scaling rows need real cores.
func e15() {
	r := rng()
	const jobs = 512
	shapes := []struct{ n, m int }{{16 * 8, 8}, {8 * 8, 8}}
	type problem struct {
		a    *matrix.Dense
		x    matrix.Vector
		want matrix.Vector
	}
	problems := make([]problem, len(shapes))
	for i, sh := range shapes {
		a := matrix.RandomDense(r, sh.n, sh.m, 3)
		x := matrix.RandomVector(r, sh.m, 3)
		problems[i] = problem{a: a, x: x, want: a.MulVec(x, nil)}
	}
	fmt.Printf("  mixed-shape compiled stream, %d jobs/run, GOMAXPROCS=%d:\n", jobs, runtime.GOMAXPROCS(0))
	fmt.Println("   shards      wall        jobs/s   vs 1 shard   identical")
	var base time.Duration
	for _, shards := range core.PassWorkerLadder(runtime.GOMAXPROCS(0)) {
		s := stream.New(stream.Config{Shards: shards, QueueBound: 64})
		dsts := make([]matrix.Vector, jobs)
		tickets := make([]stream.PassTicket, jobs)
		for k := range dsts {
			dsts[k] = make(matrix.Vector, problems[k%len(problems)].a.Rows())
		}
		runOnce := func() {
			for k := 0; k < jobs; k++ {
				p := problems[k%len(problems)]
				tk, err := s.SubmitMatVecIntoQoS(dsts[k], p.a, p.x, nil, 8, core.EngineCompiled, stream.QoS{})
				check(err)
				tickets[k] = tk
			}
			for k := 0; k < jobs; k++ {
				_, err := tickets[k].Wait()
				check(err)
			}
		}
		runOnce() // warm every shard's plan memo
		start := time.Now()
		runOnce()
		el := time.Since(start)
		identical := true
		for k := range dsts {
			if !dsts[k].Equal(problems[k%len(problems)].want, 0) {
				identical = false
			}
		}
		if !identical {
			fmt.Fprintln(os.Stderr, "sweep: stream result diverged from serial reference")
			os.Exit(1)
		}
		if shards == 1 {
			base = el
		}
		fmt.Printf("   %-8d %9s  %10.0f   %8.2fx   bit-identical\n",
			shards, el, float64(jobs)/el.Seconds(), float64(base)/float64(el))
		st := s.Stats()
		if st.Submitted != 2*jobs || st.Completed != 2*jobs {
			fmt.Fprintf(os.Stderr, "sweep: stream stats %+v, want %d submitted and completed\n", st, 2*jobs)
			os.Exit(1)
		}
		s.Close()
	}
}

// e16 measures the pattern-keyed sparse plans: a density ladder of random
// retained-block patterns solved on both engines, results and statistics
// required DeepEqual on every rung (the compiled plan is keyed by the
// pattern digest and verified against the full pattern on cache hits), with
// per-solve wall-clock, the measured schedule length against the paper's
// dense DBT cost, and the closed-form T check.
func e16() {
	r := rng()
	w, nb, mb := 4, 8, 8
	x := matrix.RandomVector(r, mb*w, 3)
	b := matrix.RandomVector(r, nb*w, 3)
	fmt.Println("  every pattern solved on both engines, results and stats DeepEqual:")
	fmt.Println("  density   Q      T  T(formula)    oracle   compiled   speedup   vs dense DBT")
	for _, density := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0} {
		a := matrix.NewDense(nb*w, mb*w)
		for br := 0; br < nb; br++ {
			for bs := 0; bs < mb; bs++ {
				if r.Float64() < density {
					for i := 0; i < w; i++ {
						for j := 0; j < w; j++ {
							a.Set(br*w+i, bs*w+j, float64(r.Intn(9)-4))
						}
					}
				}
			}
		}
		tr := sparse.NewMatVec(a, w)
		timeOf := func(eng core.Engine) (*sparse.Result, time.Duration) {
			const reps = 50
			res, err := tr.SolveEngine(x, b, eng) // warm plan cache and allocator
			check(err)
			start := time.Now()
			for i := 0; i < reps; i++ {
				res, err = tr.SolveEngine(x, b, eng)
				check(err)
			}
			return res, time.Since(start) / reps
		}
		ores, to := timeOf(core.EngineOracle)
		cres, tc := timeOf(core.EngineCompiled)
		if !reflect.DeepEqual(cres, ores) {
			fmt.Fprintf(os.Stderr, "sweep: sparse engines disagree at density %.2f\n", density)
			os.Exit(1)
		}
		if cres.T != tr.PredictedSteps() {
			fmt.Fprintf(os.Stderr, "sweep: sparse T=%d vs formula %d at density %.2f\n", cres.T, tr.PredictedSteps(), density)
			os.Exit(1)
		}
		dense := analysis.MatVecSteps(w, nb, mb)
		sp := 0.0
		if cres.T > 0 {
			sp = float64(dense) / float64(cres.T)
		}
		speedup := float64(to) / float64(tc)
		fmt.Printf("   %.2f   %3d  %5d  %10d  %8s  %9s   %5.1fx   %.2fx\n",
			density, cres.Q, cres.T, tr.PredictedSteps(), to, tc, speedup, sp)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// e20 measures the batched replay and the overlapped two-program schedule
// form at the E16-style block-tridiagonal stencil. The depth ladder streams
// k right-hand sides through one pattern-keyed plan — every batched Result
// required DeepEqual to its per-vector solve — and prices the batch against
// k independent compiled solves. The overlap summary then pairs consecutive
// band programs on opposite injection parities: same Y and per-PE MAC
// counts as the back-to-back schedule (compiled and structural forms
// DeepEqual), fewer cycles, utilization lifted toward the dense bound.
func e20() {
	r := rng()
	w, nb := 4, 16
	a := matrix.NewDense(nb*w, nb*w)
	for br := 0; br < nb; br++ {
		for _, bc := range []int{br - 1, br, br + 1} {
			if bc < 0 || bc >= nb {
				continue
			}
			for i := 0; i < w; i++ {
				for j := 0; j < w; j++ {
					a.Set(br*w+i, bc*w+j, float64(r.Intn(9)-4))
				}
			}
		}
	}
	tr := sparse.NewMatVec(a, w)
	ar := core.NewArena()
	fmt.Printf("  block-tridiagonal stencil w=%d n̄=%d, compiled engine; every batched\n", w, nb)
	fmt.Println("  Result DeepEqual its per-vector solve; looped = k SolveEngine calls,")
	fmt.Println("  batched = one arena PassManyInto (the 0-alloc streaming path):")
	fmt.Println("      k     looped    batched   speedup")
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		xs := make([]matrix.Vector, k)
		bs := make([]matrix.Vector, k)
		for v := range xs {
			xs[v] = matrix.RandomVector(r, nb*w, 3)
			bs[v] = matrix.RandomVector(r, nb*w, 3)
		}
		serial := make([]*sparse.Result, k)
		for v := range xs { // warm the plan cache, build the reference
			res, err := tr.SolveEngine(xs[v], bs[v], core.EngineCompiled)
			check(err)
			serial[v] = res
		}
		batched, err := tr.SolveMany(xs, bs, core.EngineCompiled)
		check(err)
		if !reflect.DeepEqual(batched, serial) {
			fmt.Fprintf(os.Stderr, "sweep: batched results diverge from per-vector solves at k=%d\n", k)
			os.Exit(1)
		}
		dsts := make([]matrix.Vector, k)
		for v := range dsts {
			dsts[v] = make(matrix.Vector, tr.N)
		}
		ar.Reset()
		if _, err := tr.PassManyInto(ar, dsts, xs, bs, core.EngineCompiled); err != nil {
			check(err)
		}
		for v := range dsts {
			if !dsts[v].Equal(serial[v].Y, 0) {
				fmt.Fprintf(os.Stderr, "sweep: batched pass vector %d diverges at k=%d\n", v, k)
				os.Exit(1)
			}
		}
		const reps = 400
		start := time.Now()
		for i := 0; i < reps; i++ {
			for v := range xs {
				_, err := tr.SolveEngine(xs[v], bs[v], core.EngineCompiled)
				check(err)
			}
		}
		loop := time.Since(start) / reps
		start = time.Now()
		for i := 0; i < reps; i++ {
			ar.Reset()
			_, err := tr.PassManyInto(ar, dsts, xs, bs, core.EngineCompiled)
			check(err)
		}
		batch := time.Since(start) / reps
		fmt.Printf("   %4d  %9s  %9s   %6.2fx\n", k, loop, batch, float64(loop)/float64(batch))
	}

	xv := matrix.RandomVector(r, nb*w, 3)
	bv := matrix.RandomVector(r, nb*w, 3)
	base, err := tr.SolveEngine(xv, bv, core.EngineCompiled)
	check(err)
	ovC, err := tr.SolveOverlappedEngine(xv, bv, core.EngineCompiled)
	check(err)
	ovO, err := tr.SolveOverlappedEngine(xv, bv, core.EngineOracle)
	check(err)
	if !reflect.DeepEqual(ovC, ovO) {
		fmt.Fprintln(os.Stderr, "sweep: overlapped engines disagree")
		os.Exit(1)
	}
	if !ovC.Y.Equal(base.Y, 0) || !reflect.DeepEqual(ovC.MACs, base.MACs) {
		fmt.Fprintln(os.Stderr, "sweep: overlapped schedule changed the results")
		os.Exit(1)
	}
	fmt.Printf("  overlap (structural and compiled forms DeepEqual, Y and per-PE MACs\n")
	fmt.Printf("  unchanged): T %d → %d steps, utilization %.3f → %.3f (%.2fx)\n",
		base.T, ovC.T, base.Utilization, ovC.Utilization, ovC.Utilization/base.Utilization)
}
