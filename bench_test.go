package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/figures"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/solve"
	"repro/internal/sparse"
	"repro/internal/trisolve"
)

// Every benchmark regenerates one experiment of DESIGN.md §3 and reports
// the paper-comparable metrics (systolic steps, PE utilization) alongside
// wall-clock simulator cost. Data uses small integers so results are exact.

// BenchmarkE1MatVec regenerates the matvec step-count series
// T = 2wn̄m̄+2w−3 (E1) and the η → ½ utilization series (E3).
func BenchmarkE1MatVec(b *testing.B) {
	b.ReportAllocs()
	for _, w := range []int{2, 4, 8} {
		for _, nm := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("w=%d/nm=%d", w, nm), func(b *testing.B) {
				b.ReportAllocs()
				rng := rand.New(rand.NewSource(1))
				a := matrix.RandomDense(rng, nm*w, w, 3)
				x := matrix.RandomVector(rng, w, 3)
				s := core.NewMatVecSolver(w)
				var last *core.MatVecResult
				for i := 0; i < b.N; i++ {
					res, err := s.Solve(a, x, nil, core.MatVecOptions{})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				if last.Stats.T != analysis.MatVecSteps(w, nm, 1) {
					b.Fatalf("T=%d deviates from paper %d", last.Stats.T, analysis.MatVecSteps(w, nm, 1))
				}
				b.ReportMetric(float64(last.Stats.T), "steps")
				b.ReportMetric(last.Stats.Utilization, "utilization")
			})
		}
	}
}

// BenchmarkE2MatVecOverlap regenerates the overlapped series
// T = wn̄m̄+2w−2 (E2) and η → 1 (E4).
func BenchmarkE2MatVecOverlap(b *testing.B) {
	b.ReportAllocs()
	for _, w := range []int{3, 5} {
		for _, nm := range []int{4, 16} {
			b.Run(fmt.Sprintf("w=%d/nm=%d", w, nm), func(b *testing.B) {
				b.ReportAllocs()
				rng := rand.New(rand.NewSource(2))
				a := matrix.RandomDense(rng, nm*w, w, 3)
				x := matrix.RandomVector(rng, w, 3)
				s := core.NewMatVecSolver(w)
				var last *core.MatVecResult
				for i := 0; i < b.N; i++ {
					res, err := s.Solve(a, x, nil, core.MatVecOptions{Overlap: true})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				if last.Stats.T != analysis.MatVecStepsOverlap(w, nm, 1) {
					b.Fatalf("T=%d deviates from paper %d", last.Stats.T, analysis.MatVecStepsOverlap(w, nm, 1))
				}
				b.ReportMetric(float64(last.Stats.T), "steps")
				b.ReportMetric(last.Stats.Utilization, "utilization")
			})
		}
	}
}

// BenchmarkE5MatMul regenerates the matmul step-count series
// T = 3wp̄n̄m̄+4w−5 (E5) and η → ⅓ (E6) on the hexagonal array.
func BenchmarkE5MatMul(b *testing.B) {
	b.ReportAllocs()
	for _, w := range []int{2, 3, 4} {
		for _, pnm := range [][3]int{{1, 1, 1}, {2, 2, 2}} {
			nb, pb, mb := pnm[0], pnm[1], pnm[2]
			b.Run(fmt.Sprintf("w=%d/pnm=%d", w, nb*pb*mb), func(b *testing.B) {
				b.ReportAllocs()
				rng := rand.New(rand.NewSource(3))
				am := matrix.RandomDense(rng, nb*w, pb*w, 2)
				bm := matrix.RandomDense(rng, pb*w, mb*w, 2)
				s := core.NewMatMulSolver(w)
				var last *core.MatMulResult
				for i := 0; i < b.N; i++ {
					res, err := s.Solve(am, bm, core.MatMulOptions{})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				if last.Stats.T != analysis.MatMulSteps(w, pb, nb, mb) {
					b.Fatalf("T=%d deviates from paper %d", last.Stats.T, analysis.MatMulSteps(w, pb, nb, mb))
				}
				b.ReportMetric(float64(last.Stats.T), "steps")
				b.ReportMetric(last.Stats.Utilization, "utilization")
			})
		}
	}
}

// BenchmarkE7FeedbackDelays measures the feedback edges of a matmul run
// (regular w and 2w; irregular region-crossing) — experiment E7/E8.
func BenchmarkE7FeedbackDelays(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(4))
	w := 3
	am := matrix.RandomDense(rng, 2*w, 2*w, 2)
	bm := matrix.RandomDense(rng, 2*w, 3*w, 2)
	s := core.NewMatMulSolver(w)
	var last *core.MatMulResult
	for i := 0; i < b.N; i++ {
		res, err := s.Solve(am, bm, core.MatMulOptions{})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	maxReg := 0
	for _, bin := range last.Stats.RegularDelays {
		if bin.Delay > maxReg {
			maxReg = bin.Delay
		}
	}
	b.ReportMetric(float64(maxReg), "max-regular-delay")
	maxIrr := 0
	for _, bin := range last.Stats.IrregularDelays {
		if bin.Delay > maxIrr {
			maxIrr = bin.Delay
		}
	}
	b.ReportMetric(float64(maxIrr), "max-irregular-delay")
}

// BenchmarkE9Baselines runs the three comparison schemes on the same
// problem — experiment E9.
func BenchmarkE9Baselines(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	w, n, m := 4, 16, 16
	a := matrix.RandomDense(rng, n, m, 3)
	x := matrix.RandomVector(rng, m, 3)
	b.Run("dbt", func(b *testing.B) {
		b.ReportAllocs()
		s := core.NewMatVecSolver(w)
		var last *core.MatVecResult
		for i := 0; i < b.N; i++ {
			res, err := s.Solve(a, x, nil, core.MatVecOptions{})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(float64(last.Stats.T), "steps")
		b.ReportMetric(last.Stats.Utilization, "utilization")
	})
	b.Run("blockflush", func(b *testing.B) {
		b.ReportAllocs()
		var last *baseline.Result
		for i := 0; i < b.N; i++ {
			last = baseline.BlockFlush(a, x, nil, w)
		}
		b.ReportMetric(float64(last.T), "steps")
		b.ReportMetric(last.Utilization, "utilization")
		b.ReportMetric(float64(last.ExternalOps), "external-ops")
	})
	b.Run("directband", func(b *testing.B) {
		b.ReportAllocs()
		var last *baseline.Result
		for i := 0; i < b.N; i++ {
			last = baseline.DirectBand(a, x, nil)
		}
		b.ReportMetric(float64(last.T), "steps")
		b.ReportMetric(last.Utilization, "utilization")
		b.ReportMetric(float64(last.ArraySize), "PEs")
	})
}

// BenchmarkE10Sparse regenerates the sparsity ablation at three densities.
func BenchmarkE10Sparse(b *testing.B) {
	b.ReportAllocs()
	for _, density := range []float64{0.25, 0.5, 1.0} {
		b.Run(fmt.Sprintf("density=%.2f", density), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(6))
			w, nb, mb := 4, 6, 6
			a := matrix.NewDense(nb*w, mb*w)
			for br := 0; br < nb; br++ {
				for bs := 0; bs < mb; bs++ {
					if rng.Float64() < density {
						for i := 0; i < w; i++ {
							for j := 0; j < w; j++ {
								a.Set(br*w+i, bs*w+j, float64(rng.Intn(9)-4))
							}
						}
					}
				}
			}
			x := matrix.RandomVector(rng, mb*w, 3)
			tr := sparse.NewMatVec(a, w)
			var last *sparse.Result
			for i := 0; i < b.N; i++ {
				res, err := tr.Solve(x, nil)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.T), "steps")
			b.ReportMetric(tr.Density(), "density")
		})
	}
}

// BenchmarkF3Trace regenerates the Fig. 3 data-flow example (39 steps).
func BenchmarkF3Trace(b *testing.B) {
	b.ReportAllocs()
	var last *figures.Fig3Streams
	for i := 0; i < b.N; i++ {
		st, err := figures.Fig3Data(6, 9, 3)
		if err != nil {
			b.Fatal(err)
		}
		last = st
	}
	if last.T != 39 {
		b.Fatalf("Fig.3 T=%d, want 39", last.T)
	}
	b.ReportMetric(float64(last.T), "steps")
}

// BenchmarkTransform isolates the cost of the DBT transformations
// themselves (no simulation) — the paper's "low generation difficulties"
// requirement (§1a).
func BenchmarkTransform(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(7))
	b.Run("matvec-band/n=64/w=8", func(b *testing.B) {
		b.ReportAllocs()
		a := matrix.RandomDense(rng, 64, 64, 3)
		for i := 0; i < b.N; i++ {
			t := dbt.NewMatVec(a, 8)
			if t.Band() == nil {
				b.Fatal("nil band")
			}
		}
	})
	b.Run("matmul-bands/n=16/w=4", func(b *testing.B) {
		b.ReportAllocs()
		am := matrix.RandomDense(rng, 16, 16, 3)
		bm := matrix.RandomDense(rng, 16, 16, 3)
		for i := 0; i < b.N; i++ {
			t := dbt.NewMatMul(am, bm, 4)
			if t.AHatBand() == nil || t.BHatBand() == nil {
				b.Fatal("nil band")
			}
		}
	})
}

// BenchmarkSolvers exercises the §4 extension solvers end to end.
func BenchmarkSolvers(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(8))
	n := 12
	a := matrix.RandomDense(rng, n, n, 2)
	for i := 0; i < n; i++ {
		a.Set(i, i, 30)
	}
	d := matrix.RandomVector(rng, n, 5)
	b.Run("jacobi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := solve.Jacobi(a, d, 4, 200, 1e-8, solve.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gauss-seidel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := solve.GaussSeidel(a, d, 4, 200, 1e-8, solve.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11Variants regenerates the §4 variant comparison: by-columns
// feedback delay (2n̄−1)w vs by-rows w, at identical T.
func BenchmarkE11Variants(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(10))
	w, nb, mb := 3, 4, 3
	a := matrix.RandomDense(rng, nb*w, mb*w, 3)
	x := matrix.RandomVector(rng, mb*w, 3)
	s := core.NewMatVecSolver(w)
	for _, mode := range []struct {
		name string
		opts core.MatVecOptions
	}{
		{"byrows", core.MatVecOptions{}},
		{"bycolumns", core.MatVecOptions{ByColumns: true}},
		{"lowerband", core.MatVecOptions{LowerBand: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var last *core.MatVecResult
			for i := 0; i < b.N; i++ {
				res, err := s.Solve(a, x, nil, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Stats.T), "steps")
			if len(last.Stats.FeedbackDelays) > 0 {
				b.ReportMetric(float64(last.Stats.FeedbackDelays[0]), "feedback-delay")
			}
		})
	}
}

// BenchmarkMatMulOverlap3 measures the 3-way hexagonal overlap (extension):
// three problems in barely more time than one.
func BenchmarkMatMulOverlap3(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(11))
	w := 3
	s := core.NewMatMulSolver(w)
	var as, bs []*matrix.Dense
	for i := 0; i < 3; i++ {
		as = append(as, matrix.RandomDense(rng, 2*w, 2*w, 2))
		bs = append(bs, matrix.RandomDense(rng, 2*w, 2*w, 2))
	}
	var stats *core.MatMulStats
	for i := 0; i < b.N; i++ {
		_, st, err := s.SolveMany(as, bs)
		if err != nil {
			b.Fatal(err)
		}
		stats = st
	}
	b.ReportMetric(float64(stats.T), "steps")
	b.ReportMetric(stats.Utilization, "utilization")
}

// BenchmarkTriSolve measures the dedicated triangular-solver array (band
// pass, 2n+w−2 steps) and the blocked dense solver built on it.
func BenchmarkTriSolve(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(12))
	w, n := 4, 32
	l := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, float64(rng.Intn(5)-2))
		}
		l.Set(i, i, float64(1+rng.Intn(3)))
	}
	d := l.MulVec(matrix.RandomVector(rng, n, 3), nil)
	tw := trisolve.NewWorkspace(w)
	x := make(matrix.Vector, n)
	var last trisolve.PassStats
	for i := 0; i < b.N; i++ {
		st, err := tw.SolveLowerInto(x, l, d, core.EngineAuto)
		if err != nil {
			b.Fatal(err)
		}
		last = st
	}
	b.ReportMetric(float64(last.TriSteps), "tri-steps")
	b.ReportMetric(float64(last.MatVecSteps), "matvec-steps")
}

// BenchmarkBlockLU measures the LU factorization with array trailing
// updates (§4 extension).
func BenchmarkBlockLU(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(13))
	w, n := 4, 24
	a := matrix.RandomDense(rng, n, n, 2)
	for i := 0; i < n; i++ {
		a.Set(i, i, 25)
	}
	var stats *solve.LUStats
	for i := 0; i < b.N; i++ {
		_, _, st, err := solve.BlockLU(a, w, solve.Options{})
		if err != nil {
			b.Fatal(err)
		}
		stats = st
	}
	b.ReportMetric(float64(stats.ArraySteps), "array-steps")
	b.ReportMetric(float64(stats.HostOps), "host-ops")
}

// BenchmarkHexScale measures simulator cost growth with problem size (the
// simulation substrate itself, not a paper claim).
func BenchmarkHexScale(b *testing.B) {
	b.ReportAllocs()
	for _, pnm := range []int{1, 8, 27} {
		b.Run(fmt.Sprintf("pnm=%d", pnm), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(9))
			w := 3
			side := 1
			for side*side*side < pnm {
				side++
			}
			am := matrix.RandomDense(rng, side*w, side*w, 2)
			bm := matrix.RandomDense(rng, side*w, side*w, 2)
			s := core.NewMatMulSolver(w)
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(am, bm, core.MatMulOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngines compares the two execution engines on the headline
// shapes: the cycle-accurate structural oracle vs the compiled-schedule
// fast path (O(MACs), shape-cached).
func BenchmarkEngines(b *testing.B) {
	b.ReportAllocs()
	rngv := rand.New(rand.NewSource(20))
	w, nm := 8, 16
	av := matrix.RandomDense(rngv, nm*w, w, 3)
	xv := matrix.RandomVector(rngv, w, 3)
	hw := 3
	am := matrix.RandomDense(rngv, 3*hw, 3*hw, 2)
	bm := matrix.RandomDense(rngv, 3*hw, 3*hw, 2)
	for _, eng := range []struct {
		name string
		e    core.Engine
	}{{"oracle", core.EngineOracle}, {"compiled", core.EngineCompiled}} {
		b.Run("matvec/w=8/nm=16/"+eng.name, func(b *testing.B) {
			b.ReportAllocs()
			s := core.NewMatVecSolver(w)
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(av, xv, nil, core.MatVecOptions{Engine: eng.e}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("matmul/w=3/pnm=27/"+eng.name, func(b *testing.B) {
			b.ReportAllocs()
			s := core.NewMatMulSolver(hw)
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(am, bm, core.MatMulOptions{Engine: eng.e}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverEngines compares the two execution engines on the solver
// workloads the compiled plans cover since the plan/replay generalization:
// band and dense triangular solve, block LU, and the full direct solve.
// Every row runs steady-state on a reused workspace; the compiled rows
// must report 0 allocs/op (the compiled-path allocation diet).
func BenchmarkSolverEngines(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(30))
	w, n := 4, 96
	l := matrix.NewBand(n, n, -(w - 1), 0)
	for i := 0; i < n; i++ {
		for d := 1; d < w; d++ {
			if j := i - d; j >= 0 {
				l.Set(i, j, float64(rng.Intn(5)-2))
			}
		}
		l.Set(i, i, float64(1+rng.Intn(3)))
	}
	bb := matrix.RandomVector(rng, n, 3)
	nd := 32
	ld := matrix.NewDense(nd, nd)
	for i := 0; i < nd; i++ {
		for j := 0; j < i; j++ {
			ld.Set(i, j, float64(rng.Intn(5)-2))
		}
		ld.Set(i, i, float64(1+rng.Intn(3)))
	}
	dd := ld.MulVec(matrix.RandomVector(rng, nd, 3), nil)
	a := matrix.RandomDense(rng, nd, nd, 2)
	for i := 0; i < nd; i++ {
		a.Set(i, i, 25)
	}
	da := a.MulVec(matrix.RandomVector(rng, nd, 3), nil)
	for _, eng := range []struct {
		name string
		e    core.Engine
	}{{"oracle", core.EngineOracle}, {"compiled", core.EngineCompiled}} {
		b.Run(fmt.Sprintf("trisolve-band/w=%d/n=%d/%s", w, n, eng.name), func(b *testing.B) {
			b.ReportAllocs()
			tw := trisolve.NewWorkspace(w)
			x := make(matrix.Vector, n)
			if _, err := tw.SolveBandInto(x, l, bb, eng.e); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tw.SolveBandInto(x, l, bb, eng.e); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("trisolve-dense/w=%d/n=%d/%s", w, nd, eng.name), func(b *testing.B) {
			b.ReportAllocs()
			tw := trisolve.NewWorkspace(w)
			x := make(matrix.Vector, nd)
			if _, err := tw.SolveLowerInto(x, ld, dd, eng.e); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tw.SolveLowerInto(x, ld, dd, eng.e); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("blocklu/w=%d/n=%d/%s", w, nd, eng.name), func(b *testing.B) {
			b.ReportAllocs()
			ws := solve.NewWorkspace(w)
			opts := solve.Options{Engine: eng.e}
			if _, _, _, err := ws.BlockLU(a, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := ws.BlockLU(a, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("solve/w=%d/n=%d/%s", w, nd, eng.name), func(b *testing.B) {
			b.ReportAllocs()
			ws := solve.NewWorkspace(w)
			opts := solve.Options{Engine: eng.e}
			if _, _, err := ws.Solve(a, da, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ws.Solve(a, da, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIntraSolveParallel measures BlockLU and the full Solve on a
// warm n=128, w=8 workspace, every pass run in order on the caller's
// goroutine. The sub-benchmark names (blocklu/serial, solve/serial) are
// kept from when the benchmark also fanned passes across worker pools, so
// earlier profiles and results still name the same rows.
func BenchmarkIntraSolveParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	w, n := 8, 128
	a := matrix.RandomDense(rng, n, n, 2)
	for i := 0; i < n; i++ {
		a.Set(i, i, 40)
	}
	d := a.MulVec(matrix.RandomVector(rng, n, 3), nil)
	opts := solve.Options{Engine: core.EngineCompiled}
	ws := solve.NewWorkspace(w)
	b.Run("blocklu/serial", func(b *testing.B) {
		b.ReportAllocs()
		if _, _, _, err := ws.BlockLU(a, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := ws.BlockLU(a, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solve/serial", func(b *testing.B) {
		b.ReportAllocs()
		if _, _, err := ws.Solve(a, d, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ws.Solve(a, d, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTriSolveLU measures the triangular phases of a warm n=128,
// w=8 solve alone: both triangles solved from one packed LU factor
// (strict lower = L's multipliers, upper = U), the layer between the
// replay kernels and the full Workspace.Solve.
func BenchmarkTriSolveLU(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	w, n := 8, 128
	a := matrix.RandomDense(rng, n, n, 2)
	for i := 0; i < n; i++ {
		a.Set(i, i, 40)
	}
	d := a.MulVec(matrix.RandomVector(rng, n, 3), nil)
	l, u, _, err := solve.BlockLU(a, w, solve.Options{Engine: core.EngineCompiled})
	if err != nil {
		b.Fatal(err)
	}
	lu := u.Clone()
	for i := 0; i < n; i++ {
		copy(lu.RawRow(i)[:i], l.RawRow(i)[:i])
	}
	b.Run(fmt.Sprintf("trisolve-lu/w=%d/n=%d", w, n), func(b *testing.B) {
		b.ReportAllocs()
		tw := trisolve.NewWorkspace(w)
		x := make(matrix.Vector, n)
		if _, err := tw.SolveLUInto(x, lu, d, core.EngineCompiled); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tw.SolveLUInto(x, lu, d, core.EngineCompiled); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompiledExec measures the steady-state compiled-schedule
// execution alone — schedule cached, operands padded, buffers reused —
// which must run at 0 allocs/op.
func BenchmarkCompiledExec(b *testing.B) {
	b.Run("matvec/w=8/nm=16", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(21))
		w, nm := 8, 16
		a := matrix.RandomDense(rng, nm*w, w, 3)
		x := matrix.RandomVector(rng, w, 3)
		t := dbt.NewMatVec(a, w)
		sch, err := schedule.MatVecFor(t, false)
		if err != nil {
			b.Fatal(err)
		}
		xp := x.Pad(t.MBar * w)
		bp := matrix.NewVector(sch.BLen)
		y := make([]float64, sch.Rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sch.ExecGrid(t.Padded().Raw(), xp, bp, y)
		}
		b.ReportMetric(float64(sch.MACs), "MACs")
	})
	b.Run("matmul/w=3/pnm=27", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(22))
		w := 3
		am := matrix.RandomDense(rng, 3*w, 3*w, 2)
		bm := matrix.RandomDense(rng, 3*w, 3*w, 2)
		// Grid-direct replay: A read in place, B staged once (outside the
		// timed loop, like the operands of the matvec row above).
		sch := schedule.MatMulFor(w, 3, 3, 3, 3*w)
		bt := make([]float64, sch.BTLen())
		sch.StageB(bt, bm, 0, 0, 3*w, 3*w)
		c := make([]float64, sch.CLen())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sch.ExecGrid(am.Raw(), bt, nil, c)
		}
		b.ReportMetric(float64(sch.MACs), "MACs")
	})
	// The BlockLU tile shape: the first trailing tile of an n=128, w=8
	// solve — A the 120×8 multiplier panel, B an 8×8 U block staged
	// transposed, and C = E the tile's 120×8 block updated in place inside
	// the 128-column working matrix (E/C row stride 128).
	b.Run("matmul/w=8/nbar=15", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(24))
		const n, w = 128, 8
		sch := schedule.MatMulFor(w, n/w-1, 1, 1, n)
		bt := make([]float64, sch.BTLen())
		sch.StageB(bt, matrix.RandomDense(rng, w, w, 3), 0, 0, w, w)
		a := matrix.RandomDense(rng, n-w, w, 3).Raw()
		c := matrix.RandomDense(rng, n, n, 3).Raw()[w*n+w:]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sch.ExecGrid(a, bt, c, c)
		}
		b.ReportMetric(float64(sch.MACs), "MACs")
	})
}
