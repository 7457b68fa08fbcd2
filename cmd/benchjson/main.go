// Command benchjson records a machine-readable perf snapshot of the
// headline benchmarks: ns/op, allocs/op, B/op and the paper-comparable
// metrics (steps, MACs, problems/s) for the two execution engines across
// every compiled workload (matvec, matmul, trisolve, LU, full solve, and
// the pattern-keyed sparse matvec at a repeated-stencil pattern, E16), the
// solver workspaces (steady-state, 0 allocs/op on the compiled rows, plus
// the warm n=128 BlockLU and full-solve rows and the triangular phases of
// that solve on its packed factor), the stream scheduler at
// shard counts {1, 2, NumCPU} (E15: single-job round trip at 0 allocs/op
// after warmup, plus deep-pipeline jobs/s, plus the pattern-routed
// sparse-stream rows, plus the solve-as-a-service rows of E17 — a warm
// streamed full direct solve at 0 allocs/op and a 128-deep solve-qps
// pipeline reporting solves/s), the batched-replay rows of E20 — k
// right-hand sides through one pattern-keyed plan, priced against k
// independent solves (the speedup-vs-loop metric), plus the overlapped
// two-program schedule row and the one-ticket batch stream rows — the
// robustness rows of E18 — the partially pivoted solve and the
// pivoted+refined solve on a row-scrambled system, pricing what "no input
// returns garbage" costs over the unpivoted fast path — and the
// steady-state compiled execution. It emits BENCH_<date>.json by default,
// extending the perf trajectory that future changes are judged against;
// cmd/benchdiff compares two snapshots and gates regressions in CI.
//
// Usage:
//
//	benchjson                 # writes BENCH_<yyyy-mm-dd>.json
//	benchjson -o snapshot.json
//	benchjson -o -            # stdout only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/solve"
	"repro/internal/sparse"
	"repro/internal/stream"
	"repro/internal/trisolve"
)

// Entry is one benchmark's snapshot.
type Entry struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the whole file.
type Snapshot struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Benchmarks []Entry `json:"benchmarks"`
}

func bench(name string, metrics map[string]float64, fn func(b *testing.B)) Entry {
	res := testing.Benchmark(fn)
	e := Entry{
		Name:        name,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Metrics:     map[string]float64{},
	}
	for k, v := range res.Extra {
		e.Metrics[k] = v
	}
	for k, v := range metrics {
		e.Metrics[k] = v
	}
	if len(e.Metrics) == 0 {
		e.Metrics = nil
	}
	return e
}

func main() {
	out := flag.String("o", "", "output path; empty = BENCH_<date>.json, \"-\" = stdout only")
	flag.Parse()

	rng := rand.New(rand.NewSource(1))
	// Headline shapes: matvec w=8 n̄m̄=16, matmul w=3 p̄n̄m̄=27.
	av := matrix.RandomDense(rng, 16*8, 8, 3)
	xv := matrix.RandomVector(rng, 8, 3)
	am := matrix.RandomDense(rng, 9, 9, 2)
	bm := matrix.RandomDense(rng, 9, 9, 2)
	vs := core.NewMatVecSolver(8)
	ms := core.NewMatMulSolver(3)

	var entries []Entry
	for _, eng := range []struct {
		name string
		e    core.Engine
	}{{"oracle", core.EngineOracle}, {"compiled", core.EngineCompiled}} {
		eng := eng
		entries = append(entries,
			bench("matvec/w=8/nm=16/"+eng.name, nil, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := vs.Solve(av, xv, nil, core.MatVecOptions{Engine: eng.e})
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(res.Stats.T), "steps")
					}
				}
			}),
			bench("matmul/w=3/pnm=27/"+eng.name, nil, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := ms.Solve(am, bm, core.MatMulOptions{Engine: eng.e})
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(res.Stats.T), "steps")
					}
				}
			}),
		)
	}

	// Solver workloads (trisolve band/dense, block LU, full solve) on both
	// engines. Shapes match BenchmarkSolverEngines and sweep E13.
	tw, tn := 4, 96
	lb := matrix.NewBand(tn, tn, -(tw - 1), 0)
	for i := 0; i < tn; i++ {
		for d := 1; d < tw; d++ {
			if j := i - d; j >= 0 {
				lb.Set(i, j, float64(rng.Intn(5)-2))
			}
		}
		lb.Set(i, i, float64(1+rng.Intn(3)))
	}
	tb := matrix.RandomVector(rng, tn, 3)
	nd := 32
	ld := matrix.NewDense(nd, nd)
	for i := 0; i < nd; i++ {
		for j := 0; j < i; j++ {
			ld.Set(i, j, float64(rng.Intn(5)-2))
		}
		ld.Set(i, i, float64(1+rng.Intn(3)))
	}
	dd := ld.MulVec(matrix.RandomVector(rng, nd, 3), nil)
	ag := matrix.RandomDense(rng, nd, nd, 2)
	for i := 0; i < nd; i++ {
		ag.Set(i, i, 25)
	}
	dg := ag.MulVec(matrix.RandomVector(rng, nd, 3), nil)
	// The same system with its rows scrambled: well-conditioned, but the
	// pivoted rows must recover the row order — a nontrivial permutation on
	// every factorization.
	agp := matrix.NewDense(nd, nd)
	dgp := make(matrix.Vector, nd)
	for i, pi := range rng.Perm(nd) {
		for j := 0; j < nd; j++ {
			agp.Set(i, j, ag.At(pi, j))
		}
		dgp[i] = dg[pi]
	}
	for _, eng := range []struct {
		name string
		e    core.Engine
	}{{"oracle", core.EngineOracle}, {"compiled", core.EngineCompiled}} {
		eng := eng
		entries = append(entries,
			bench(fmt.Sprintf("trisolve-band/w=%d/n=%d/%s", tw, tn, eng.name), nil, func(b *testing.B) {
				b.ReportAllocs()
				tws := trisolve.NewWorkspace(tw)
				x := make(matrix.Vector, tn)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					steps, err := tws.SolveBandInto(x, lb, tb, eng.e)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(steps), "steps")
					}
				}
			}),
			bench(fmt.Sprintf("trisolve-dense/w=%d/n=%d/%s", tw, nd, eng.name), nil, func(b *testing.B) {
				b.ReportAllocs()
				tws := trisolve.NewWorkspace(tw)
				x := make(matrix.Vector, nd)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := tws.SolveLowerInto(x, ld, dd, eng.e)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(st.TriSteps+st.MatVecSteps), "steps")
					}
				}
			}),
			bench(fmt.Sprintf("blocklu/w=%d/n=%d/%s", tw, nd, eng.name), nil, func(b *testing.B) {
				b.ReportAllocs()
				ws := solve.NewWorkspace(tw)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _, st, err := ws.BlockLU(ag, solve.Options{Engine: eng.e})
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(st.ArraySteps), "array-steps")
					}
				}
			}),
			bench(fmt.Sprintf("solve/w=%d/n=%d/%s", tw, nd, eng.name), nil, func(b *testing.B) {
				b.ReportAllocs()
				ws := solve.NewWorkspace(tw)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st, err := ws.Solve(ag, dg, solve.Options{Engine: eng.e})
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(st.LU.ArraySteps+st.TriSteps+st.MatVecSteps), "array-steps")
					}
				}
			}),
			bench(fmt.Sprintf("solve-pivot/w=%d/n=%d/%s", tw, nd, eng.name), nil, func(b *testing.B) {
				b.ReportAllocs()
				ws := solve.NewWorkspace(tw)
				opts := solve.Options{Engine: eng.e, Pivot: solve.PivotPartial}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st, err := ws.Solve(agp, dgp, opts)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(st.LU.RowSwaps), "row-swaps")
					}
				}
			}),
			bench(fmt.Sprintf("solve-refine/w=%d/n=%d/%s", tw, nd, eng.name), nil, func(b *testing.B) {
				b.ReportAllocs()
				ws := solve.NewWorkspace(tw)
				opts := solve.Options{
					Engine: eng.e,
					Pivot:  solve.PivotPartial,
					Refine: solve.RefineOptions{MaxIters: 4},
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st, err := ws.Solve(agp, dgp, opts)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(st.Refine.Iters), "refine-iters")
					}
				}
			}),
		)
	}

	// BlockLU and full Solve on a warm n=128 workspace: the workspace
	// layer of the w=8 ladder. The rows keep their historical *-par names
	// so they stay gated against earlier snapshots.
	pw, pn := 8, 128
	ap := matrix.RandomDense(rng, pn, pn, 2)
	for i := 0; i < pn; i++ {
		ap.Set(i, i, 40)
	}
	dp := ap.MulVec(matrix.RandomVector(rng, pn, 3), nil)
	pws := solve.NewWorkspace(pw)
	popts := solve.Options{Engine: core.EngineCompiled}
	// The same system's factor packed into one matrix (strict lower = L's
	// multipliers, upper = U): the triangular phases of its solve alone.
	pl, pu, _, err := solve.BlockLU(ap, pw, popts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	plu := pu.Clone()
	for i := 0; i < pn; i++ {
		copy(plu.RawRow(i)[:i], pl.RawRow(i)[:i])
	}
	tws := trisolve.NewWorkspace(pw)
	px := make(matrix.Vector, pn)
	if _, err := tws.SolveLUInto(px, plu, dp, core.EngineCompiled); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	entries = append(entries,
		bench(fmt.Sprintf("blocklu-par/w=%d/n=%d/serial", pw, pn), nil, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := pws.BlockLU(ap, popts); err != nil {
					b.Fatal(err)
				}
			}
		}),
		bench(fmt.Sprintf("solve-par/w=%d/n=%d/serial", pw, pn), nil, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := pws.Solve(ap, dp, popts); err != nil {
					b.Fatal(err)
				}
			}
		}),
		bench(fmt.Sprintf("trisolve-lu/w=%d/n=%d", pw, pn), nil, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := tws.SolveLUInto(px, plu, dp, core.EngineCompiled)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(st.TriSteps+st.MatVecSteps), "steps")
				}
			}
		}),
	)

	// Sparse matvec (§4) on both engines at a repeated-stencil pattern
	// (block tridiagonal): the pattern-keyed compiled plan against the
	// structural simulator, results and stats bit-identical (E16).
	sw, snb := 4, 16
	sa := matrix.NewDense(snb*sw, snb*sw)
	for r := 0; r < snb; r++ {
		for _, s := range []int{r - 1, r, r + 1} {
			if s < 0 || s >= snb {
				continue
			}
			for i := 0; i < sw; i++ {
				for j := 0; j < sw; j++ {
					sa.Set(r*sw+i, s*sw+j, float64(rng.Intn(9)-4))
				}
			}
		}
	}
	str := sparse.NewMatVec(sa, sw)
	sx := matrix.RandomVector(rng, snb*sw, 3)
	sb := matrix.RandomVector(rng, snb*sw, 3)
	spPlan, err := schedule.SparseMatVecFor(str.W, str.NBar, str.MBar, str.Retained)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	for _, eng := range []struct {
		name string
		e    core.Engine
	}{{"oracle", core.EngineOracle}, {"compiled", core.EngineCompiled}} {
		eng := eng
		entries = append(entries, bench(fmt.Sprintf("sparse/matvec/w=%d/nb=%d/tridiag/%s", sw, snb, eng.name),
			map[string]float64{"Q": float64(str.TotalBlocks()), "density": str.Density(), "plan-bytes": float64(spPlan.Bytes())},
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := str.SolveEngine(sx, sb, eng.e)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(res.T), "steps")
					}
				}
			}))
	}

	// Batched replay at the same E16 stencil (E20): k right-hand sides
	// through one pattern-keyed plan. The loop row prices k independent
	// SolveEngine calls; the batch row streams the same k vectors through
	// PassManyInto on a reused arena (0 allocs/op warm) and carries the
	// speedup-vs-loop metric — the ≥1.5× batch acceptance criterion.
	for _, bk := range []int{4, 16} {
		bxs := make([]matrix.Vector, bk)
		bbs := make([]matrix.Vector, bk)
		bdsts := make([]matrix.Vector, bk)
		for v := range bxs {
			bxs[v] = matrix.RandomVector(rng, snb*sw, 3)
			bbs[v] = matrix.RandomVector(rng, snb*sw, 3)
			bdsts[v] = make(matrix.Vector, str.N)
		}
		loopRow := bench(fmt.Sprintf("sparse-batch-loop/w=%d/nb=%d/k=%d", sw, snb, bk),
			map[string]float64{"k": float64(bk)}, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for v := range bxs {
						if _, err := str.SolveEngine(bxs[v], bbs[v], core.EngineCompiled); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		bar := core.NewArena()
		batchRow := bench(fmt.Sprintf("sparse-batch/w=%d/nb=%d/k=%d", sw, snb, bk),
			map[string]float64{"k": float64(bk)}, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bar.Reset()
					if _, err := str.PassManyInto(bar, bdsts, bxs, bbs, core.EngineCompiled); err != nil {
						b.Fatal(err)
					}
				}
			})
		batchRow.Metrics["speedup-vs-loop"] = loopRow.NsPerOp / batchRow.NsPerOp
		entries = append(entries, loopRow, batchRow)
	}

	// Two-program overlapped schedule form at the E16 stencil: consecutive
	// band programs share the array on opposite injection parities, so the
	// compiled solve reports TOverlap steps and the lifted utilization —
	// same Y and per-PE stats, fewer cycles.
	entries = append(entries, bench(fmt.Sprintf("sparse-overlap/w=%d/nb=%d/tridiag/compiled", sw, snb),
		map[string]float64{
			"steps-overlap":   float64(spPlan.TOverlap),
			"steps-serial":    float64(spPlan.T),
			"utilization":     spPlan.OverlapUtilization(),
			"utilization-ser": spPlan.Utilization(),
		}, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := str.SolveOverlappedEngine(sx, sb, core.EngineCompiled)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.T), "steps")
				}
			}
		}))

	// Steady-state compiled execution (schedule cached, buffers reused):
	// the 0 allocs/op core of the engine.
	tv := dbt.NewMatVec(av, 8)
	schv, err := schedule.MatVecFor(tv, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// Both matvec rows time the grid-direct replay the facade executes (run
	// descriptors over the padded matrix and padded x); the -grid row is
	// kept until the next snapshot so the benchdiff gate keeps both names.
	bp := matrix.NewVector(schv.BLen)
	ybuf := make([]float64, schv.Rows)
	xpad := make([]float64, tv.MBar*8)
	copy(xpad, xv)
	execGrid := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			schv.ExecGrid(tv.Padded().Raw(), xpad, bp, ybuf)
		}
	}
	entries = append(entries, bench("compiled-exec/matvec/w=8/nm=16",
		map[string]float64{"MACs": float64(schv.MACs), "plan-bytes": float64(schv.Bytes())}, execGrid))
	entries = append(entries, bench("compiled-exec/matvec-grid/w=8/nm=16",
		map[string]float64{"MACs": float64(schv.MACs)}, execGrid))
	// The matmul row replays the grid-direct plan (ExecGrid) over the
	// padded A grid in place and a once-staged transposed B — what the
	// compiled matmul path executes per pass, minus the B staging.
	schm := schedule.MatMulFor(3, 3, 3, 3, 9)
	btm := make([]float64, schm.BTLen())
	schm.StageB(btm, bm, 0, 0, 9, 9)
	cm := make([]float64, schm.CLen())
	entries = append(entries, bench("compiled-exec/matmul/w=3/pnm=27",
		map[string]float64{"MACs": float64(schm.MACs), "plan-bytes": float64(schm.Bytes())}, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				schm.ExecGrid(am.Raw(), btm, nil, cm)
			}
		}))
	// The BlockLU tile shape: the first trailing tile of an n=128, w=8
	// solve, ExecGrid only — the 120×8 block of the working matrix updated
	// in place (E/C row stride 128) from the multiplier panel and a staged
	// 8×8 U block. Its own generator leaves the other rows' data unchanged.
	const ln, lw = 128, 8
	lrng := rand.New(rand.NewSource(24))
	scht := schedule.MatMulFor(lw, ln/lw-1, 1, 1, ln)
	btt := make([]float64, scht.BTLen())
	scht.StageB(btt, matrix.RandomDense(lrng, lw, lw, 3), 0, 0, lw, lw)
	at := matrix.RandomDense(lrng, ln-lw, lw, 3).Raw()
	ct := matrix.RandomDense(lrng, ln, ln, 3).Raw()[lw*ln+lw:]
	entries = append(entries, bench("compiled-exec/matmul/w=8/nbar=15",
		map[string]float64{"MACs": float64(scht.MACs), "plan-bytes": float64(scht.Bytes())}, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scht.ExecGrid(at, btt, ct, ct)
			}
		}))

	// Stream scheduler (E15): sustained compiled stream execution at shard
	// counts {1, 2, NumCPU}. The single-job rows measure the submit →
	// execute → redeem round trip on a warm affinity shard and pin the
	// acceptance criterion: 0 allocs/op per job after warmup. The qps rows
	// keep a deep mixed-shape pipeline in flight and report jobs/s.
	avB := matrix.RandomDense(rng, 8*8, 8, 3)
	xvB := matrix.RandomVector(rng, 8, 3)
	streamRows := func(name string, shards int, metrics map[string]float64) {
		s := stream.New(stream.Config{Shards: shards, QueueBound: 256})
		defer s.Close()
		dst := make(matrix.Vector, av.Rows())
		entries = append(entries, bench(fmt.Sprintf("stream/matvec/w=8/nm=16/%s", name), metrics, func(b *testing.B) {
			b.ReportAllocs()
			// Warm every shard on the shape (stealing can land early jobs
			// anywhere) before the measured steady state.
			for i := 0; i < 64; i++ {
				tk, err := s.SubmitMatVecIntoQoS(dst, av, xv, nil, 8, core.EngineCompiled, stream.QoS{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk, err := s.SubmitMatVecIntoQoS(dst, av, xv, nil, 8, core.EngineCompiled, stream.QoS{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		}))
		const depth = 128
		dsts := make([]matrix.Vector, depth)
		tickets := make([]stream.PassTicket, depth)
		for k := range dsts {
			if k%2 == 0 {
				dsts[k] = make(matrix.Vector, av.Rows())
			} else {
				dsts[k] = make(matrix.Vector, avB.Rows())
			}
		}
		entries = append(entries, bench(fmt.Sprintf("stream-qps/matvec/w=8/mixed/%s", name), metrics, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := 0; k < depth; k++ {
					var err error
					if k%2 == 0 {
						tickets[k], err = s.SubmitMatVecIntoQoS(dsts[k], av, xv, nil, 8, core.EngineCompiled, stream.QoS{})
					} else {
						tickets[k], err = s.SubmitMatVecIntoQoS(dsts[k], avB, xvB, nil, 8, core.EngineCompiled, stream.QoS{})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				for k := 0; k < depth; k++ {
					if _, err := tickets[k].Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(depth*b.N)/b.Elapsed().Seconds(), "jobs/s")
		}))
		// Pattern-routed sparse Into jobs on the warm affinity shard: the
		// sparse stream acceptance criterion, 0 allocs/op per job.
		sdst := make(matrix.Vector, str.N)
		entries = append(entries, bench(fmt.Sprintf("sparse-stream/matvec/w=%d/nb=%d/%s", sw, snb, name), metrics, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < 64; i++ {
				tk, err := s.SubmitSparseMatVecInto(sdst, str, sx, sb, core.EngineCompiled)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk, err := s.SubmitSparseMatVecInto(sdst, str, sx, sb, core.EngineCompiled)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		}))
		// One batch ticket carrying k vectors through the pattern-routed
		// shard: the batched counterpart of the row above — amortized
		// per-vector cost, still 0 allocs/op warm.
		const batchK = 4
		bsdsts := make([]matrix.Vector, batchK)
		bsxs := make([]matrix.Vector, batchK)
		bsbs := make([]matrix.Vector, batchK)
		for k := range bsdsts {
			bsdsts[k] = make(matrix.Vector, str.N)
			bsxs[k] = matrix.RandomVector(rng, str.M, 3)
			bsbs[k] = matrix.RandomVector(rng, str.N, 3)
		}
		entries = append(entries, bench(fmt.Sprintf("sparse-batch-stream/w=%d/nb=%d/k=%d/%s", sw, snb, batchK, name), metrics, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < 64; i++ {
				tk, err := s.SubmitSparseBatchInto(bsdsts, str, bsxs, bsbs, core.EngineCompiled)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk, err := s.SubmitSparseBatchInto(bsdsts, str, bsxs, bsbs, core.EngineCompiled)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batchK*b.N)/b.Elapsed().Seconds(), "vectors/s")
		}))
		// Solve-as-a-service (E17): the full direct solve (BlockLU + both
		// triangular phases) streamed as an Into ticket on the warm
		// affinity shard — the solve-stream acceptance criterion, 0
		// allocs/op per solve after warmup.
		gdst := make(matrix.Vector, nd)
		entries = append(entries, bench(fmt.Sprintf("solve-stream/w=%d/n=%d/%s", tw, nd, name), metrics, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < 64; i++ {
				tk, err := s.SubmitSolveIntoQoS(gdst, ag, dg, tw, core.EngineCompiled, stream.QoS{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk, err := s.SubmitSolveIntoQoS(gdst, ag, dg, tw, core.EngineCompiled, stream.QoS{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "solves/s")
		}))
		// Solve QPS: a 128-deep pipeline of in-flight solve tickets — the
		// solves/sec row the BENCH trajectory was missing.
		gdsts := make([]matrix.Vector, depth)
		gtickets := make([]stream.SolvePassTicket, depth)
		for k := range gdsts {
			gdsts[k] = make(matrix.Vector, nd)
		}
		entries = append(entries, bench(fmt.Sprintf("solve-qps/w=%d/n=%d/%s", tw, nd, name), metrics, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := 0; k < depth; k++ {
					var err error
					if gtickets[k], err = s.SubmitSolveIntoQoS(gdsts[k], ag, dg, tw, core.EngineCompiled, stream.QoS{}); err != nil {
						b.Fatal(err)
					}
				}
				for k := 0; k < depth; k++ {
					if _, err := gtickets[k].Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(depth*b.N)/b.Elapsed().Seconds(), "solves/s")
		}))
		// Scheduler counter snapshot after the rows above: the stream
		// robustness telemetry (admission/failure counters) recorded
		// alongside the perf numbers. Informational — benchdiff's ns/op
		// and allocs gates skip zero-ns rows.
		st := s.Stats()
		statMetrics := map[string]float64{
			"submitted": float64(st.Submitted),
			"completed": float64(st.Completed),
			"shed":      float64(st.Shed),
			"expired":   float64(st.Expired),
			"panics":    float64(st.Panics),
		}
		for k, v := range metrics {
			statMetrics[k] = v
		}
		entries = append(entries, Entry{
			Name:    fmt.Sprintf("stream-stats/%s", name),
			Metrics: statMetrics,
		})
	}
	for _, shards := range core.PassWorkerLadder(runtime.GOMAXPROCS(0)) {
		name := fmt.Sprintf("shards=%d", shards)
		var metrics map[string]float64
		if shards > 2 {
			name = "shards=max"
			metrics = map[string]float64{"shards": float64(shards)}
		}
		streamRows(name, shards, metrics)
	}

	snap := Snapshot{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: entries,
	}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", snap.Date)
	}
	if path == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(entries))
	for _, e := range entries {
		fmt.Printf("  %-36s %12.0f ns/op %6d allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
	}
}
