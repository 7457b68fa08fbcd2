package schedule

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dbt"
	"repro/internal/matrix"
)

// These tests pin the replay-kernel contract (DESIGN §12): the unrolled
// width specializations must be bit-identical to the generic run kernels on
// full-precision random data (same accumulation order, so every float64
// rounding step matches), and the compiled run descriptors must expand to
// exactly the per-MAC gather sequence they compress away. Data here is
// full-precision (NormFloat64) on purpose — any reassociation or reordering
// inside a kernel shows up as a bitwise mismatch.

func randFloats(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// randDense fills an n×m dense matrix with full-precision values.
func randDense(rng *rand.Rand, n, m int) *matrix.Dense {
	a := matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a
}

func TestKernelForSelection(t *testing.T) {
	if genericKernels() {
		t.Skip("REPRO_GENERIC_KERNELS set: width specializations disabled")
	}
	if kernelFor(4) != kernW4 {
		t.Error("kernelFor(4) is not the w=4 specialization")
	}
	if kernelFor(8) != kernW8 {
		t.Error("kernelFor(8) is not the w=8 specialization")
	}
	for _, w := range []int{1, 2, 3, 5, 6, 7, 9, 16} {
		if kernelFor(w) != kernGeneric {
			t.Errorf("kernelFor(%d) is not generic", w)
		}
	}
	saved := genericKernelsOnly
	genericKernelsOnly = true
	defer func() { genericKernelsOnly = saved }()
	for _, w := range []int{4, 8} {
		if kernelFor(w) != kernGeneric {
			t.Errorf("kernelFor(%d) must be generic under REPRO_GENERIC_KERNELS", w)
		}
	}
}

// TestGridKernelsPinned: gridBlock4/gridBlock8 bit-identical to
// gridBlockGeneric for several strides.
func TestGridKernelsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, w := range []int{4, 8} {
		for _, stride := range []int{w, w + 3, 3 * w} {
			for trial := 0; trial < 30; trial++ {
				u := randFloats(rng, (w-1)*stride+w)
				lo := randFloats(rng, (w-1)*stride+w)
				xu := randFloats(rng, w)
				xl := randFloats(rng, w)
				ini := randFloats(rng, w)
				want := make([]float64, w)
				got := make([]float64, w)
				gridBlockGeneric(want, ini, u, lo, xu, xl, stride, w)
				switch w {
				case 4:
					gridBlock4(got, ini, u, lo, xu, xl, stride)
				case 8:
					gridBlock8(got, ini, u, lo, xu, xl, stride)
				}
				for a := 0; a < w; a++ {
					if got[a] != want[a] {
						t.Fatalf("w=%d s=%d trial %d row %d: unrolled %v ≠ generic %v", w, stride, trial, a, got[a], want[a])
					}
				}
			}
		}
	}
}

// TestGridKernelsX2Pinned: the two-vector batched kernels are bit-identical,
// per vector, to two separate single-vector calls — the property that lets
// ExecMany pair vectors without disturbing any rounding trail.
func TestGridKernelsX2Pinned(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, w := range []int{4, 8} {
		for _, stride := range []int{w, w + 3, 3 * w} {
			for trial := 0; trial < 30; trial++ {
				u := randFloats(rng, (w-1)*stride+w)
				lo := randFloats(rng, (w-1)*stride+w)
				xu0, xl0 := randFloats(rng, w), randFloats(rng, w)
				xu1, xl1 := randFloats(rng, w), randFloats(rng, w)
				ini0, ini1 := randFloats(rng, w), randFloats(rng, w)
				want0 := make([]float64, w)
				want1 := make([]float64, w)
				got0 := make([]float64, w)
				got1 := make([]float64, w)
				switch w {
				case 4:
					gridBlock4(want0, ini0, u, lo, xu0, xl0, stride)
					gridBlock4(want1, ini1, u, lo, xu1, xl1, stride)
					gridBlock4x2(got0, got1, ini0, ini1, u, lo, xu0, xl0, xu1, xl1, stride)
				case 8:
					gridBlock8(want0, ini0, u, lo, xu0, xl0, stride)
					gridBlock8(want1, ini1, u, lo, xu1, xl1, stride)
					gridBlock8x2(got0, got1, ini0, ini1, u, lo, xu0, xl0, xu1, xl1, stride)
				}
				for a := 0; a < w; a++ {
					if got0[a] != want0[a] || got1[a] != want1[a] {
						t.Fatalf("w=%d s=%d trial %d row %d: x2 kernel diverges from two single calls", w, stride, trial, a)
					}
				}
			}
		}
	}
}

// TestRevKernelsPinned: dotRunRev3/dotRunRev7 bit-identical to dotRunRev.
func TestRevKernelsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 50; trial++ {
		v := rng.NormFloat64()
		a3, x3 := randFloats(rng, 3), randFloats(rng, 3)
		if got, want := dotRunRev3(v, a3, x3), dotRunRev(v, a3, x3); got != want {
			t.Fatalf("dotRunRev3 %v ≠ dotRunRev %v", got, want)
		}
		a7, x7 := randFloats(rng, 7), randFloats(rng, 7)
		if got, want := dotRunRev7(v, a7, x7), dotRunRev(v, a7, x7); got != want {
			t.Fatalf("dotRunRev7 %v ≠ dotRunRev %v", got, want)
		}
	}
}

// TestMatVecPlanKernelsPinned compiles real matvec plans at the specialized
// widths, both DBT variants, and pins ExecGrid with the unrolled kernel to
// ExecGrid forced generic over the same plan, bitwise.
func TestMatVecPlanKernelsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, w := range []int{4, 8} {
		for _, shape := range [][2]int{{w, w}, {2*w + 1, 3*w - 1}, {3 * w, 2 * w}} {
			n, m := shape[0], shape[1]
			a := randDense(rng, n, m)
			x := matrix.Vector(randFloats(rng, m))
			b := matrix.Vector(randFloats(rng, n))
			for _, tr := range []dbt.Transform{dbt.NewMatVec(a, w), dbt.NewMatVecByColumns(a, w)} {
				s, err := compileMatVec(tr, false)
				if err != nil {
					t.Fatal(err)
				}
				_, _, mbar := tr.Shape()
				xp := x.Pad(mbar * w)
				bp := b.Pad(s.BLen)
				run := func() []float64 {
					y := make([]float64, s.Rows)
					s.ExecGrid(tr.Padded().Raw(), xp, bp, y)
					return y
				}
				want := run()
				saved := s.kern
				s.kern = kernGeneric
				generic := run()
				s.kern = saved
				for i := range want {
					if want[i] != generic[i] {
						t.Fatalf("w=%d %T %v: unrolled ExecGrid ≠ generic ExecGrid at row %d: %v vs %v", w, tr, shape, i, want[i], generic[i])
					}
				}
				if s.Bytes() <= 0 {
					t.Errorf("w=%d %T: plan Bytes() = %d, want > 0", w, tr, s.Bytes())
				}
			}
		}
	}
}

// TestMatMulPlanKernelsPinned: every replay path of the matmul plan — the
// rotation bodies, the dotRun4 quads and the one-chain loop — is
// bit-identical to the one-chain loop of the ldc = m̄w plan, in place
// (c = e) and not, and with E and C rows ldc > m̄w apart, where the gap
// columns between the block's rows (NaN sentinels) must come back
// untouched. Stripes hold whole quads, and a tall single-column shape puts
// most of its ops in them.
func TestMatMulPlanKernelsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	sentinel := math.Float64frombits(0x7ff8_0000_dead_beef)
	for _, w := range []int{2, 4, 5, 8} {
		for _, bars := range [][3]int{{1, 1, 1}, {6, 1, 1}, {3, 2, 2}, {2, 3, 3}} {
			shape := dbt.NewMatMulShape(w, bars[0], bars[1], bars[2])
			rows, mw := bars[0]*w, bars[2]*w
			base := compileMatMul(shape, mw)
			a, bt, eBlock := randFloats(rng, base.ALen()), randFloats(rng, base.BTLen()), randFloats(rng, base.CLen())
			want := make([]float64, base.CLen())
			one := *base
			one.quad = false
			one.ExecGrid(a, bt, eBlock, want)
			for _, ldc := range []int{mw, mw + 3} {
				s := compileMatMul(shape, ldc)
				e := make([]float64, s.CLen())
				for i := range e {
					e[i] = sentinel
				}
				for i := 0; i < rows; i++ {
					copy(e[i*ldc:i*ldc+mw], eBlock[i*mw:])
				}
				for _, mode := range []string{"one-chain", "dotRun4", "plan"} {
					p := *s
					switch mode {
					case "one-chain":
						p.quad = false
					case "dotRun4":
						p.groups = slices.Clone(s.groups)
						for i := range p.groups {
							p.groups[i].rot = nil
						}
					}
					for _, inPlace := range []bool{false, true} {
						c := make([]float64, s.CLen())
						for i := range c {
							c[i] = sentinel
						}
						ein := e
						if inPlace {
							copy(c, e)
							ein = c
						}
						p.ExecGrid(a, bt, ein, c)
						for i, v := range c {
							r, j := i/ldc, i%ldc
							ref := sentinel
							if j < mw {
								ref = want[r*mw+j]
							}
							if math.Float64bits(v) != math.Float64bits(ref) {
								t.Fatalf("w=%d bars=%v ldc=%d %s inPlace=%v: C[%d][%d] = %v, want %v", w, bars, ldc, mode, inPlace, r, j, v, ref)
							}
						}
					}
				}
			}
			striped := 0
			for _, st := range base.stripes {
				if st.count%4 != 0 {
					t.Fatalf("w=%d bars=%v: stripe of %d ops, want whole quads", w, bars, st.count)
				}
				striped += int(st.count)
			}
			if bars == [3]int{6, 1, 1} && striped < 2*len(base.loose) {
				t.Errorf("w=%d bars=%v: %d striped ops, %d loose — want most ops striped", w, bars, striped, len(base.loose))
			}
		}
	}
}

// TestRotationKernelsPinned: every generated (w, rotation) body, in its
// B-stationary stripe form and its loose-quad form, is bit-identical to
// replayOne on each of its ops, with E and without.
func TestRotationKernelsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, w := range []int{4, 8} {
		for r := 0; r < w; r++ {
			k := rotKernelFor(w, r)
			n0, n1 := w-r, r
			a, bt, e := randFloats(rng, 40*w), randFloats(rng, 8*w), randFloats(rng, 64)
			// op returns the rotation-r op storing out whose rows start at
			// padded-A offset ab and transposed-B offset bb.
			op := func(out, ab, bb int) matmulOp {
				o := matmulOp{out: int32(out), init: int32(out), a0: int32(ab + r), b0: int32(bb + r)}
				if r > 0 {
					o.a1, o.b1 = int32(ab), int32(bb)
				}
				return o
			}
			st := matmulStripe{op: op(3, 5, 2*w+1), step: op(7, 4*w+1, 0).minus(op(0, 0, 0)), count: 8}
			var stripeOps, looseOps []matmulOp
			for j, o := int32(0), st.op; j < st.count; j, o = j+1, o.plus(st.step) {
				stripeOps = append(stripeOps, o)
			}
			for j := 0; j < 8; j++ {
				looseOps = append(looseOps, op(1+7*j, rng.Intn(len(a)-w+1), rng.Intn(len(bt)-w+1)))
			}
			for _, ein := range [][]float64{e, nil} {
				for _, form := range []string{"stripe", "loose"} {
					got, want := make([]float64, 64), make([]float64, 64)
					ops := looseOps
					if form == "stripe" {
						ops = stripeOps
						k.stripe(a, bt, ein, got, &st)
					} else {
						k.loose(a, bt, ein, got, looseOps)
					}
					for _, o := range ops {
						replayOne(int(o.out), int(o.init), int(o.a0), int(o.b0), int(o.a1), int(o.b1), n0, n1, a, bt, ein, want)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("w=%d r=%d %s E=%v: C[%d] = %v, replayOne %v", w, r, form, ein != nil, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestMatMulRotationCensus: at the BlockLU tile shapes (p̄ = m̄ = 1; w = 8
// with n̄ = 1..15, w = 4 with n̄ = 1..7), at the plan's own ldc and at a
// wider one, every op sits in a rotation group and every stripe is
// B-stationary, so a compiler change that sends these ops back to dotRun4
// fails here.
func TestMatMulRotationCensus(t *testing.T) {
	for _, c := range []struct{ w, maxNbar int }{{8, 15}, {4, 7}} {
		for nbar := 1; nbar <= c.maxNbar; nbar++ {
			for _, ldc := range []int{c.w, 16 * c.w} {
				s := compileMatMul(dbt.NewMatMulShape(c.w, nbar, 1, 1), ldc)
				s.eachOp(func(g *matmulGroup, op matmulOp) {
					if g.rot == nil {
						t.Fatalf("w=%d n̄=%d ldc=%d: op %+v of group n=%v is not in a rotation group", c.w, nbar, ldc, op, g.n)
					}
				})
				for _, st := range s.stripes {
					if st.step.b0 != 0 || st.step.b1 != 0 {
						t.Fatalf("w=%d n̄=%d ldc=%d: rotation stripe with B step %+v", c.w, nbar, ldc, st.step)
					}
				}
			}
		}
	}
}

// TestTriSolvePlanKernelsPinned: the clamped-span trisolve replay is
// bit-identical between the unrolled and generic rev kernels.
func TestTriSolvePlanKernelsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for _, w := range []int{4, 8} {
		for _, n := range []int{1, w - 1, w, 3*w + 2} {
			s := compileTriSolve(n, w)
			lband := randFloats(rng, n*w)
			for i := 0; i < n; i++ {
				lband[i*w] = 1 + rng.Float64() // nonzero diagonal
				for d := i + 1; d < w; d++ {
					lband[i*w+d] = 0 // below the matrix, zero by pack contract
				}
			}
			b := randFloats(rng, n)
			want := make([]float64, n)
			got := make([]float64, n)
			s.Exec(lband, b, want)
			saved := s.kern
			s.kern = kernGeneric
			s.Exec(lband, b, got)
			s.kern = saved
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w=%d n=%d row %d: generic %v ≠ unrolled %v", w, n, i, got[i], want[i])
				}
			}
		}
	}
}

// randPattern draws a random retained-block pattern: each row band keeps a
// random (possibly empty) strictly-increasing subset of the column blocks.
func randPattern(rng *rand.Rand, nbar, mbar int) [][]int {
	ret := make([][]int, nbar)
	for r := range ret {
		for c := 0; c < mbar; c++ {
			if rng.Intn(2) == 0 {
				ret[r] = append(ret[r], c)
			}
		}
	}
	return ret
}

// oldSparseGather is the retired per-MAC index builder, kept as the test
// reference for the run compaction: for every local row i of row band r it
// emits the flat coefficient index and padded-x index of each of the row's w
// multiply–accumulates, in the array's cycle order (increasing diagonal).
// This is the exact code the pre-compaction compiler materialized as
// asrc/xsrc tables, 8 bytes per MAC.
func oldSparseGather(w, mbar, r int, cols []int) (asrc, xsrc []int32) {
	stride := mbar * w
	qr := len(cols)
	for i := 0; i < qr*w; i++ {
		k, a := i/w, i%w
		arow := (r*w + a) * stride
		for d := 0; d < w; d++ {
			if bb := a + d; bb < w {
				asrc = append(asrc, int32(arow+cols[k]*w+bb))
			} else {
				asrc = append(asrc, int32(arow+cols[(k+1)%qr]*w+(bb-w)))
			}
			j := i + d
			kb := j / w
			if kb >= qr { // x̄ tail: the wrap block's leading elements
				kb = 0
			}
			xsrc = append(xsrc, int32(cols[kb]*w+j%w))
		}
	}
	return
}

// TestSparseRunCompactionRoundTrip: expanding the compiled run descriptors
// term by term reproduces exactly the old per-MAC gather sequence, over
// randomized shapes and patterns. This is the property that licenses the
// ~w² memory compression — the runs are a lossless re-encoding.
func TestSparseRunCompactionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	patterns := 0
	for trial := 0; trial < 200; trial++ {
		w := []int{1, 2, 3, 4, 5, 8}[rng.Intn(6)]
		nbar := 1 + rng.Intn(5)
		mbar := 1 + rng.Intn(5)
		retained := randPattern(rng, nbar, mbar)
		s, err := compileSparseMatVec(w, nbar, mbar, retained)
		if err != nil {
			t.Fatal(err)
		}
		var runs []Run
		for r, cols := range retained {
			if len(cols) == 0 {
				continue
			}
			patterns++
			wantA, wantX := oldSparseGather(w, mbar, r, cols)
			var gotA, gotX []int32
			for l := 0; l < len(cols)*w; l++ {
				runs = s.RowRuns(r, l, runs[:0])
				total := 0
				for _, run := range runs {
					if run.Len <= 0 {
						t.Fatalf("w=%d band %d row %d: empty run %+v", w, r, l, run)
					}
					for k := int32(0); k < run.Len; k++ {
						gotA = append(gotA, run.ABase+k)
						gotX = append(gotX, run.XBase+k)
					}
					total += int(run.Len)
				}
				if total != w {
					t.Fatalf("w=%d band %d row %d: runs cover %d of %d MACs", w, r, l, total, w)
				}
			}
			if len(gotA) != len(wantA) {
				t.Fatalf("w=%d band %d: %d expanded MACs, want %d", w, r, len(gotA), len(wantA))
			}
			for i := range wantA {
				if gotA[i] != wantA[i] || gotX[i] != wantX[i] {
					t.Fatalf("w=%d n̄=%d m̄=%d band %d MAC %d: run expansion (a=%d,x=%d) ≠ reference (a=%d,x=%d) for cols %v",
						w, nbar, mbar, r, i, gotA[i], gotX[i], wantA[i], wantX[i], cols)
				}
			}
		}
	}
	if patterns < 100 {
		t.Fatalf("only %d non-empty bands exercised — generator too sparse", patterns)
	}
}

// replaySparseRuns replays a sparse plan by scalar run expansion — the
// slowest, most literal reading of the descriptors: per row, initialize from
// b̄ or the feedback row w earlier, then accumulate each run term by term.
// Kernel Exec must match it bitwise (per-row term order is identical; the
// kernels only interleave independent rows).
func replaySparseRuns(s *SparseMatVec, aflat, xp, bp []float64) []float64 {
	w := s.W
	y := make([]float64, s.NBar*w)
	var runs []Run
	for r := 0; r < s.NBar; r++ {
		qr := int(s.q[r])
		if qr == 0 {
			copy(y[r*w:(r+1)*w], bp[r*w:(r+1)*w])
			continue
		}
		rows := qr * w
		ybar := make([]float64, rows)
		for l := 0; l < rows; l++ {
			var v float64
			if l < w {
				v = bp[r*w+l]
			} else {
				v = ybar[l-w]
			}
			runs = s.RowRuns(r, l, runs[:0])
			for _, run := range runs {
				for k := int32(0); k < run.Len; k++ {
					v += aflat[run.ABase+k] * xp[run.XBase+k]
				}
			}
			ybar[l] = v
		}
		copy(y[r*w:(r+1)*w], ybar[rows-w:])
	}
	return y
}

// TestSparsePlanKernelsPinned: sparse Exec with the unrolled kernels is
// bit-identical to the forced-generic kernels and to the literal scalar run
// replay, over random patterns at the specialized widths.
func TestSparsePlanKernelsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, w := range []int{4, 8} {
		for trial := 0; trial < 20; trial++ {
			nbar := 1 + rng.Intn(4)
			mbar := 1 + rng.Intn(4)
			retained := randPattern(rng, nbar, mbar)
			s, err := compileSparseMatVec(w, nbar, mbar, retained)
			if err != nil {
				t.Fatal(err)
			}
			a := randDense(rng, nbar*w, mbar*w)
			xp := randFloats(rng, mbar*w)
			bp := randFloats(rng, nbar*w)
			exec := func() []float64 {
				y := make([]float64, nbar*w)
				ybar := make([]float64, s.MaxBandRows)
				if s.MaxBandRows == 0 {
					ybar = make([]float64, 1)
				}
				s.Exec(a.Raw(), xp, bp, y, ybar)
				return y
			}
			want := exec()
			saved := s.kern
			s.kern = kernGeneric
			generic := exec()
			s.kern = saved
			scalar := replaySparseRuns(s, a.Raw(), xp, bp)
			for i := range want {
				if generic[i] != want[i] {
					t.Fatalf("w=%d trial %d row %d: generic ≠ unrolled", w, trial, i)
				}
				if scalar[i] != want[i] {
					t.Fatalf("w=%d trial %d row %d: scalar run replay %v ≠ kernel Exec %v", w, trial, i, scalar[i], want[i])
				}
			}
		}
	}
}

// TestSparseSingleBlockRuns pins the q_r = 1 compaction guarantees: rows
// with a = 0 compact to exactly one run (the Ū→L̄ wrap targets the block
// itself, and an a = 0 row has no L̄ terms), rows with a > 0 keep two runs —
// the wrap is a *rotation* within the block, so the gather is not contiguous
// even though both runs read the same column block — and no run is ever
// empty. Execution over single-block bands stays bit-identical to the
// scalar run replay.
func TestSparseSingleBlockRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	for _, w := range []int{1, 2, 4, 8} {
		for _, cse := range []struct {
			mbar     int
			retained [][]int
		}{
			{1, [][]int{{0}}},
			{4, [][]int{{2}}},
			{3, [][]int{{1}, nil, {2}}},
			{2, [][]int{{0, 1}, {1}}}, // mixed q_r: 2 then 1
		} {
			s, err := compileSparseMatVec(w, len(cse.retained), cse.mbar, cse.retained)
			if err != nil {
				t.Fatal(err)
			}
			var runs []Run
			for r, cols := range cse.retained {
				for l := 0; l < len(cols)*w; l++ {
					runs = s.RowRuns(r, l, runs[:0])
					a := l % w
					if a == 0 && len(runs) != 1 {
						t.Fatalf("w=%d band %d row %d (a=0): %d runs, want single-run compaction", w, r, l, len(runs))
					}
					if a > 0 && len(runs) != 2 {
						t.Fatalf("w=%d band %d row %d (a=%d): %d runs, want 2", w, r, l, a, len(runs))
					}
					for _, run := range runs {
						if run.Len <= 0 {
							t.Fatalf("w=%d band %d row %d: empty run %+v", w, r, l, run)
						}
					}
				}
			}
			nbar := len(cse.retained)
			a := randDense(rng, nbar*w, cse.mbar*w)
			xp := randFloats(rng, cse.mbar*w)
			bp := randFloats(rng, nbar*w)
			y := make([]float64, nbar*w)
			ybar := make([]float64, s.MaxBandRows)
			s.Exec(a.Raw(), xp, bp, y, ybar)
			scalar := replaySparseRuns(s, a.Raw(), xp, bp)
			for i := range y {
				if y[i] != scalar[i] {
					t.Fatalf("w=%d m̄=%d pattern %v row %d: Exec %v ≠ scalar replay %v", w, cse.mbar, cse.retained, i, y[i], scalar[i])
				}
			}
		}
	}
}

// Run is one contiguous-run descriptor of a compiled gather: Len
// coefficients starting at ABase in the flat operand matrix, paired with Len
// stream elements starting at XBase. Plans store runs implicitly (per-block
// column bases); RowRuns materializes them for these tests.
type Run struct {
	ABase, XBase int32
	Len          int32
}

// RowRuns appends the contiguous-run descriptors of local band row l of row
// band r to dst and returns it: a Ū run of w−a terms and, for rows with
// a = l mod w > 0, an L̄ run of a terms — never an empty run (a = 0 rows
// compact to a single run, including the q_r = 1 case where the Ū→L̄ wrap
// targets the block itself). ABase indexes the padded matrix's backing
// storage, XBase the padded x; expanding the runs term by term reproduces
// exactly the per-MAC gather sequence the plan compiles away.
func (s *SparseMatVec) RowRuns(r, l int, dst []Run) []Run {
	w := s.W
	stride := s.MBar * w
	blk := s.blocks[int(s.boff[r])+l/w]
	a := l % w
	arow := int32((r*w + a) * stride)
	dst = append(dst, Run{
		ABase: arow + blk.uCol + int32(a),
		XBase: blk.uCol + int32(a),
		Len:   int32(w - a),
	})
	if a > 0 {
		dst = append(dst, Run{
			ABase: arow + blk.lCol,
			XBase: blk.lCol,
			Len:   int32(a),
		})
	}
	return dst
}
