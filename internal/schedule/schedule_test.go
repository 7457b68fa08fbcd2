package schedule

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dbt"
	"repro/internal/matrix"
)

// mustMatVecFor compiles a schedule for a transform that is known valid.
func mustMatVecFor(t *testing.T, tr dbt.Transform, overlap bool) *MatVec {
	t.Helper()
	s, err := MatVecFor(tr, overlap)
	if err != nil {
		t.Fatalf("MatVecFor: %v", err)
	}
	return s
}

// TestCacheReusesShapes: same shape → same cached schedule object; distinct
// shape, variant or overlap → distinct schedules.
func TestCacheReusesShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a1 := matrix.RandomDense(rng, 6, 9, 3)
	a2 := matrix.RandomDense(rng, 6, 9, 5) // same shape, different data
	a3 := matrix.RandomDense(rng, 9, 9, 3) // different shape
	s1 := mustMatVecFor(t, dbt.NewMatVec(a1, 3), false)
	s2 := mustMatVecFor(t, dbt.NewMatVec(a2, 3), false)
	s3 := mustMatVecFor(t, dbt.NewMatVec(a3, 3), false)
	if s1 != s2 {
		t.Fatal("same shape should share one compiled schedule")
	}
	if s1 == s3 {
		t.Fatal("different shapes must not share a schedule")
	}
	if mustMatVecFor(t, dbt.NewMatVec(a1, 3), true) == s1 {
		t.Fatal("overlap schedules must be distinct")
	}
	if mustMatVecFor(t, dbt.NewMatVecByColumns(a1, 3), false) == s1 {
		t.Fatal("by-columns schedules must be distinct")
	}

	m1 := MatMulFor(3, 2, 3, 2, 6)
	if MatMulFor(3, 2, 3, 2, 6) != m1 {
		t.Fatal("same matmul shape should share one compiled schedule")
	}
	if MatMulFor(3, 2, 2, 3, 9) == m1 {
		t.Fatal("different matmul shapes must not share a schedule")
	}
	if MatMulFor(3, 2, 3, 2, 9) == m1 {
		t.Fatal("different E/C strides must not share a schedule")
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; run under
// -race this checks the compile-once path and the reset are safe.
func TestCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var as []*matrix.Dense
	for i := 0; i < 8; i++ {
		as = append(as, matrix.RandomDense(rng, 2+rng.Intn(8), 2+rng.Intn(8), 3))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := as[(g+i)%len(as)]
				w := 1 + (g+i)%4
				sch, err := MatVecFor(dbt.NewMatVec(a, w), false)
				if err != nil {
					t.Errorf("MatVecFor: %v", err)
					return
				}
				if sch.W != w {
					t.Errorf("schedule w=%d, want %d", sch.W, w)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMatVecExecAgainstBlockRecurrence checks the compiled execution against
// the package-independent mathematical reference.
func TestMatVecExecAgainstBlockRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 10; trial++ {
			n := 1 + rng.Intn(4*w)
			m := 1 + rng.Intn(4*w)
			a := matrix.RandomDense(rng, n, m, 5)
			x := matrix.RandomVector(rng, m, 5)
			b := matrix.RandomVector(rng, n, 5)
			tr := dbt.NewMatVec(a, w)
			sch := mustMatVecFor(t, tr, false)
			y := make([]float64, sch.Rows)
			sch.ExecGrid(tr.Padded().Raw(), x.Pad(tr.MBar*w), b.Pad(sch.BLen), y)
			want := tr.BlockRecurrence(x, b)
			for k, blk := range want {
				for i, v := range blk {
					if y[k*w+i] != v {
						t.Fatalf("w=%d n=%d m=%d: ȳ_%d[%d] = %g, want %g", w, n, m, k, i, y[k*w+i], v)
					}
				}
			}
		}
	}
}

// TestMatMulExecAgainstReferenceRun checks the compiled matmul grid
// replay against dbt's block-level reference (including E and feedback
// chaining), ragged shapes included.
func TestMatMulExecAgainstReferenceRun(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, w := range []int{1, 2, 3} {
		for trial := 0; trial < 8; trial++ {
			n := 1 + rng.Intn(3*w)
			p := 1 + rng.Intn(3*w)
			m := 1 + rng.Intn(3*w)
			a := matrix.RandomDense(rng, n, p, 4)
			b := matrix.RandomDense(rng, p, m, 4)
			var e *matrix.Dense
			var ep []float64
			tr := dbt.NewMatMul(a, b, w)
			sch := MatMulFor(w, tr.NBar, tr.PBar, tr.MBar, tr.MBar*w)
			if trial%2 == 0 {
				e = matrix.RandomDense(rng, n, m, 4)
				ep = e.Pad(tr.NBar*w, tr.MBar*w).Raw()
			}
			bt := make([]float64, sch.BTLen())
			sch.StageB(bt, b, 0, 0, p, m)
			c := make([]float64, sch.CLen())
			sch.ExecGrid(tr.AT.Grid.Padded().Raw(), bt, ep, c)
			_, want := tr.ReferenceRun(e)
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					if got := c[i*tr.MBar*w+j]; got != want.At(i, j) {
						t.Fatalf("w=%d %d×%d·%d×%d (E=%v): C[%d][%d] = %g, reference %g",
							w, n, p, p, m, e != nil, i, j, got, want.At(i, j))
					}
				}
			}
		}
	}
}

// TestMatMulFlattenedPlan pins the flattened chains over every shape with
// w ∈ 1..9 and n̄, p̄, m̄ ∈ 1..5: each padded-C offset is stored by exactly
// one op, the ops' run lengths add up to the n̄p̄m̄w³ MACs of the product
// (every chain is one whole dot product, no term lost or repeated), and T
// is the array's 3(Dim−1)+w+1. At the BlockLU tile shape (w=8, n̄=15,
// p̄=m̄=1) the plan is 960 ops in 8 groups, one per rotation split, in at
// most 8224 bytes — half the feedback-replay plan's 16448.
func TestMatMulFlattenedPlan(t *testing.T) {
	for w := 1; w <= 9; w++ {
		for nbar := 1; nbar <= 5; nbar++ {
			for pbar := 1; pbar <= 5; pbar++ {
				for mbar := 1; mbar <= 5; mbar++ {
					s := compileMatMul(dbt.NewMatMulShape(w, nbar, pbar, mbar), mbar*w)
					stored := make([]int, s.CLen())
					macs := 0
					s.eachOp(func(g *matmulGroup, op matmulOp) {
						stored[op.out]++
						macs += int(g.n[0] + g.n[1])
					})
					for off, k := range stored {
						if k != 1 {
							t.Fatalf("w=%d n̄=%d p̄=%d m̄=%d: C offset %d stored by %d ops", w, nbar, pbar, mbar, off, k)
						}
					}
					if want := nbar * pbar * mbar * w * w * w; macs != want {
						t.Fatalf("w=%d n̄=%d p̄=%d m̄=%d: chains hold %d MACs, want n̄p̄m̄w³ = %d", w, nbar, pbar, mbar, macs, want)
					}
					if want := 3*(s.Dim-1) + w + 1; s.T != want {
						t.Fatalf("w=%d n̄=%d p̄=%d m̄=%d: T = %d, want %d", w, nbar, pbar, mbar, s.T, want)
					}
				}
			}
		}
	}
	s := compileMatMul(dbt.NewMatMulShape(8, 15, 1, 1), 8)
	ops := 0
	s.eachOp(func(*matmulGroup, matmulOp) { ops++ })
	if ops != 960 || len(s.groups) != 8 || s.Bytes() > 8224 {
		t.Errorf("BlockLU tile plan: %d ops in %d groups, %d bytes; want 960 in 8, ≤ 8224", ops, len(s.groups), s.Bytes())
	}
}

// brokenTransform wraps a valid transform with a failing Validate — the
// shape an external Transform implementation with a pairing bug would take.
type brokenTransform struct{ dbt.Transform }

func (brokenTransform) Validate() error { return errBroken }

var errBroken = fmt.Errorf("broken pairing")

// TestInvalidTransformErrors: a transform failing §2 validation must come
// back as an error from the compiled path (matching the structural path),
// not a panic.
func TestInvalidTransformErrors(t *testing.T) {
	a := matrix.RandomDense(rand.New(rand.NewSource(6)), 6, 6, 3)
	if _, err := MatVecFor(brokenTransform{dbt.NewMatVec(a, 3)}, false); err != errBroken {
		t.Fatalf("want errBroken, got %v", err)
	}
}

// hugeTransform claims a padded grid of 2¹⁴·8 × 2¹²·8 = 2³² elements,
// past what a plan's int32 run offsets address, while every other method
// answers for the small transform it embeds.
type hugeTransform struct{ *dbt.MatVec }

func (hugeTransform) Shape() (w, nbar, mbar int) { return 8, 1 << 14, 1 << 12 }

// TestMatVecForRejectsOversizedGrid: a grid the plan cannot address comes
// back as an error from MatVecFor, checked before the compiler allocates
// any per-block descriptor (2²⁶ blocks here would be over a gigabyte).
func TestMatVecForRejectsOversizedGrid(t *testing.T) {
	tr := hugeTransform{dbt.NewMatVec(matrix.RandomDense(rand.New(rand.NewSource(7)), 8, 8, 3), 8)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := MatVecFor(tr, false)
	runtime.ReadMemStats(&after)
	if err == nil || s != nil {
		t.Fatalf("MatVecFor on a 2³²-element grid: plan %v, err %v; want an error", s, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("MatVecFor allocated %d bytes before rejecting the shape", grew)
	}
}

// TestOverlapSplitBoundary: the split must sit at a row band boundary so no
// feedback chain crosses programs.
func TestOverlapSplitBoundary(t *testing.T) {
	for nbar := 2; nbar <= 7; nbar++ {
		for mbar := 1; mbar <= 7; mbar++ {
			h := OverlapSplit(nbar, mbar)
			if h%mbar != 0 {
				t.Fatalf("split %d not at a chain boundary for n̄=%d m̄=%d", h, nbar, mbar)
			}
			if h <= 0 || h >= nbar*mbar {
				t.Fatalf("split %d outside (0,%d)", h, nbar*mbar)
			}
		}
	}
}

// TestTriSolvePlan: the compiled trisolve plan's analytic accounting (T,
// MACs, per-PE activity) and cache identity.
func TestTriSolvePlan(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{0, 1, 2, w, 2*w + 1, 17} {
			s := TriSolveFor(n, w)
			if s.W != w || s.N != n {
				t.Fatalf("shape (%d,%d) compiled as (%d,%d)", n, w, s.N, s.W)
			}
			if n == 0 {
				if s.T != 0 || s.MACs != 0 || s.Divisions != 0 {
					t.Fatalf("n=0: non-empty plan %+v", s)
				}
				continue
			}
			if want := 2*n + w - 2; s.T != want {
				t.Fatalf("n=%d w=%d: T=%d, want %d", n, w, s.T, want)
			}
			if s.Divisions != n {
				t.Fatalf("n=%d w=%d: divisions %d", n, w, s.Divisions)
			}
			act := s.Activity()
			if act.MACs[0] != n || act.Cycles != s.T {
				t.Fatalf("n=%d w=%d: activity %+v", n, w, act)
			}
			total := 0
			for d := 1; d < w; d++ {
				want := n - d
				if want < 0 {
					want = 0
				}
				if act.MACs[d] != want {
					t.Fatalf("n=%d w=%d PE %d: %d MACs, want %d", n, w, d, act.MACs[d], want)
				}
				total += act.MACs[d]
			}
			if s.MACs != total {
				t.Fatalf("n=%d w=%d: MACs %d vs per-PE sum %d", n, w, s.MACs, total)
			}
			if u := float64(s.MACs+s.Divisions) / float64(s.W*s.T); u <= 0 || u > 1 {
				t.Fatalf("n=%d w=%d: utilization %g out of range", n, w, u)
			}
			if TriSolveFor(n, w) != s {
				t.Fatalf("n=%d w=%d: same shape should share one compiled plan", n, w)
			}
		}
	}
}

// TestTriSolveExecAgainstSubstitution checks the compiled execution against
// plain forward substitution (exact: small-integer data).
func TestTriSolveExecAgainstSubstitution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 8; trial++ {
			n := 1 + rng.Intn(4*w)
			l := matrix.NewBand(n, n, -(w - 1), 0)
			for i := 0; i < n; i++ {
				for d := 1; d < w; d++ {
					if j := i - d; j >= 0 {
						l.Set(i, j, float64(rng.Intn(5)-2))
					}
				}
				l.Set(i, i, float64(1+rng.Intn(3)))
			}
			b := matrix.RandomVector(rng, n, 5)
			s := TriSolveFor(n, w)
			lband := make([]float64, n*w)
			dbt.PackTriBand(l, w, lband)
			x := make([]float64, n)
			s.Exec(lband, b, x)
			for i := 0; i < n; i++ {
				v := 0.0
				for d := w - 1; d >= 1; d-- {
					if j := i - d; j >= 0 {
						v += l.At(i, j) * x[j]
					}
				}
				if want := (b[i] - v) / l.At(i, i); x[i] != want {
					t.Fatalf("w=%d n=%d: x[%d] = %g, want %g", w, n, i, x[i], want)
				}
			}
		}
	}
}
