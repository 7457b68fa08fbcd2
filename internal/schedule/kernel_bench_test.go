package schedule

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dbt"
)

// BenchmarkReplayKernels is the kernel ladder (EXPERIMENTS E19): every replay
// path at the specialized widths, generic vs unrolled, at a fixed 1024-MAC
// working set so rows are comparable across widths. The "generic" rows are
// what CI's kernel-generic job (REPRO_GENERIC_KERNELS) runs everywhere; the
// "unrolled" rows are the default production kernels. The matvec-grid rows
// replay the dense plan straight off the padded grid, as the facade does.
func BenchmarkReplayKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	for _, w := range []int{4, 8} {
		kerns := []struct {
			name string
			k    kern
		}{{"generic", kernGeneric}, {"unrolled", kernelFor(w)}}

		// Dense matvec: n̄ = 1024/w² blocks of w rows, m̄ = 1.
		nm := 1024 / (w * w)
		a := randDense(rng, nm*w, w)
		x := randFloats(rng, w)
		tr := dbt.NewMatVec(a, w)
		s, err := compileMatVec(tr, false)
		if err != nil {
			b.Fatal(err)
		}
		bp := make([]float64, s.BLen)
		y := make([]float64, s.Rows)
		xp := make([]float64, w)
		copy(xp, x)
		aflat := tr.Padded().Raw()
		for _, k := range kerns {
			b.Run(fmt.Sprintf("matvec-grid/w=%d/%s", w, k.name), func(b *testing.B) {
				b.ReportAllocs()
				saved := s.kern
				s.kern = k.k
				defer func() { s.kern = saved }()
				for i := 0; i < b.N; i++ {
					s.ExecGrid(aflat, xp, bp, y)
				}
				b.ReportMetric(float64(s.MACs), "MACs")
			})
		}

		// Sparse matvec: full pattern with n̄·m̄ = 1024/w² retained blocks.
		mbar := 4
		nbar := 1024 / (w * w) / mbar
		retained := make([][]int, nbar)
		for r := range retained {
			retained[r] = []int{0, 1, 2, 3}
		}
		sp, err := compileSparseMatVec(w, nbar, mbar, retained)
		if err != nil {
			b.Fatal(err)
		}
		sa := randDense(rng, nbar*w, mbar*w)
		sx := randFloats(rng, mbar*w)
		sb := randFloats(rng, nbar*w)
		sy := make([]float64, nbar*w)
		sybar := make([]float64, sp.MaxBandRows)
		for _, k := range kerns {
			b.Run(fmt.Sprintf("sparse-exec/w=%d/%s", w, k.name), func(b *testing.B) {
				b.ReportAllocs()
				saved := sp.kern
				sp.kern = k.k
				defer func() { sp.kern = saved }()
				for i := 0; i < b.N; i++ {
					sp.Exec(sa.Raw(), sx, sb, sy, sybar)
				}
				b.ReportMetric(float64(sp.MACs), "MACs")
			})
		}

		// Band triangular solve: n = 1024/w rows of a w-diagonal band.
		n := 1024 / w
		ts := compileTriSolve(n, w)
		lband := randFloats(rng, n*w)
		for i := 0; i < n; i++ {
			lband[i*w] = 1 + rng.Float64()
			for d := i + 1; d < w; d++ {
				lband[i*w+d] = 0
			}
		}
		tb := randFloats(rng, n)
		tx := make([]float64, n)
		for _, k := range kerns {
			b.Run(fmt.Sprintf("trisolve-exec/w=%d/%s", w, k.name), func(b *testing.B) {
				b.ReportAllocs()
				saved := ts.kern
				ts.kern = k.k
				defer func() { ts.kern = saved }()
				for i := 0; i < b.N; i++ {
					ts.Exec(lband, tb, tx)
				}
				b.ReportMetric(float64(ts.MACs), "MACs")
			})
		}
	}
}

// BenchmarkMatMulCopyDelays measures the hex stats path's delay-histogram
// copy. The compiled bins are immutable sorted slices copied on read — two
// slice allocations per call, where the former map rebuild paid two map
// headers plus a bucket chain per distinct delay.
func BenchmarkMatMulCopyDelays(b *testing.B) {
	b.ReportAllocs()
	sch := MatMulFor(3, 3, 3, 3, 9)
	for i := 0; i < b.N; i++ {
		reg, irr := sch.CopyDelays()
		if len(reg) == 0 && len(irr) == 0 {
			b.Fatal("no delay bins")
		}
	}
}
