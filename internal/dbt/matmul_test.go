package dbt

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

func TestMatMulDimensions(t *testing.T) {
	// The paper's Fig. 4 example: n̄=2, p̄=2, m̄=3, w=3.
	a := matrix.NewDense(6, 6)
	b := matrix.NewDense(6, 9)
	tr := NewMatMul(a, b, 3)
	if tr.NBar != 2 || tr.PBar != 2 || tr.MBar != 3 {
		t.Fatalf("got n̄=%d p̄=%d m̄=%d", tr.NBar, tr.PBar, tr.MBar)
	}
	if got, want := tr.Dim(), 2*2*3*3+3-1; got != want {
		t.Errorf("Dim = %d, want %d (p̄n̄m̄w + w−1)", got, want)
	}
	if got, want := tr.RegularBlocks(), 12; got != want {
		t.Errorf("RegularBlocks = %d, want %d", got, want)
	}
}

func TestAHatBandIsFullAndUpper(t *testing.T) {
	// With dense A whose dims are exact multiples of w, the Ā band must be
	// completely filled (the size-independence claim) and strictly upper.
	for _, w := range []int{2, 3} {
		a := matrix.NewDense(2*w, 2*w)
		b := matrix.NewDense(2*w, 3*w)
		for i := 0; i < a.Rows(); i++ {
			for j := 0; j < a.Cols(); j++ {
				a.Set(i, j, 1)
			}
		}
		tr := NewMatMul(a, b, w)
		band := tr.AHatBand()
		if band.Lo() != 0 || band.Hi() != w-1 {
			t.Fatalf("w=%d: Ā diagonals [%d,%d]", w, band.Lo(), band.Hi())
		}
		if got, want := band.NonzeroCount(), band.StoredCount(); got != want {
			t.Errorf("w=%d: Ā band %d/%d filled", w, got, want)
		}
	}
}

func TestBHatBandIsFullAndLower(t *testing.T) {
	for _, w := range []int{2, 3} {
		a := matrix.NewDense(2*w, 2*w)
		b := matrix.NewDense(2*w, 3*w)
		for i := 0; i < b.Rows(); i++ {
			for j := 0; j < b.Cols(); j++ {
				b.Set(i, j, 1)
			}
		}
		tr := NewMatMul(a, b, w)
		band := tr.BHatBand()
		if band.Lo() != -(w-1) || band.Hi() != 0 {
			t.Fatalf("w=%d: B̄ diagonals [%d,%d]", w, band.Lo(), band.Hi())
		}
		if got, want := band.NonzeroCount(), band.StoredCount(); got != want {
			t.Errorf("w=%d: B̄ band %d/%d filled", w, got, want)
		}
	}
}

// TestMatMulReferenceCorrect is the core matmul property: the re-derived
// spiral-feedback composition and C extraction recover exactly C = A·B + E
// across an exhaustive sweep of block shapes and array sizes.
func TestMatMulReferenceCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 2, 3} {
		for nb := 1; nb <= 3; nb++ {
			for pb := 1; pb <= 3; pb++ {
				for mb := 1; mb <= 3; mb++ {
					n, p, m := nb*w, pb*w, mb*w
					a := matrix.RandomDense(rng, n, p, 3)
					b := matrix.RandomDense(rng, p, m, 3)
					e := matrix.RandomDense(rng, n, m, 3)
					tr := NewMatMul(a, b, w)
					_, c := tr.ReferenceRun(e)
					want := a.Mul(b).AddM(e)
					if !c.Equal(want, 0) {
						t.Errorf("w=%d n̄=%d p̄=%d m̄=%d: C diverges by %g", w, nb, pb, mb, c.MaxAbsDiff(want))
					}
				}
			}
		}
	}
}

// TestMatMulReferenceRagged covers dimensions that are not multiples of w
// (zero padding) and nil E.
func TestMatMulReferenceRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := []struct{ n, p, m, w int }{
		{1, 1, 1, 3}, {4, 5, 6, 3}, {7, 3, 5, 4}, {5, 5, 5, 2},
		{2, 9, 4, 3}, {10, 1, 10, 4}, {3, 8, 2, 5},
	}
	for _, cse := range cases {
		a := matrix.RandomDense(rng, cse.n, cse.p, 3)
		b := matrix.RandomDense(rng, cse.p, cse.m, 3)
		tr := NewMatMul(a, b, cse.w)
		_, c := tr.ReferenceRun(nil)
		want := a.Mul(b)
		if !c.Equal(want, 0) {
			t.Errorf("%+v: C diverges by %g", cse, c.MaxAbsDiff(want))
		}
	}
}

func TestMatMulLargerShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("large shapes in -short mode")
	}
	rng := rand.New(rand.NewSource(9))
	cases := []struct{ n, p, m, w int }{
		{12, 16, 20, 4}, {15, 10, 25, 5}, {8, 24, 8, 4},
	}
	for _, cse := range cases {
		a := matrix.RandomDense(rng, cse.n, cse.p, 3)
		b := matrix.RandomDense(rng, cse.p, cse.m, 3)
		e := matrix.RandomDense(rng, cse.n, cse.m, 3)
		tr := NewMatMul(a, b, cse.w)
		_, c := tr.ReferenceRun(e)
		want := a.Mul(b).AddM(e)
		if !c.Equal(want, 0) {
			t.Errorf("%+v: C diverges by %g", cse, c.MaxAbsDiff(want))
		}
	}
}

// TestInitChainsAreCausal checks that every feedback initialization refers
// to a row block that finishes strictly before the consuming one starts
// needing it (earlier row, or an earlier piece of the same row).
func TestInitChainsAreCausal(t *testing.T) {
	order := map[Piece]int{PieceULeft: 0, PieceLMid: 1, PieceD: 1, PieceUMid: 1, PieceLRight: 2}
	for _, w := range []int{2, 3} {
		tr := NewMatMul(matrix.NewDense(2*w, 2*w), matrix.NewDense(2*w, 3*w), w)
		for k := 0; k <= tr.RegularBlocks(); k++ {
			for _, p := range Pieces {
				init := tr.InitFor(k, p)
				if init.Kind != InitFeedback {
					continue
				}
				if init.Row > k || (init.Row == k && order[init.Piece] >= order[p]) {
					t.Errorf("w=%d: init of (%d,%v) from (%d,%v) is acausal", w, k, p, init.Row, init.Piece)
				}
			}
		}
	}
}

// TestEInjectionExactlyOnce verifies each E piece enters the array exactly
// once (the paper's "single copy" condition carried over to matmul).
func TestEInjectionExactlyOnce(t *testing.T) {
	for _, w := range []int{2, 3} {
		for _, shape := range [][3]int{{1, 1, 1}, {2, 2, 3}, {3, 1, 2}, {1, 3, 2}, {2, 2, 1}} {
			nb, pb, mb := shape[0], shape[1], shape[2]
			tr := NewMatMul(matrix.NewDense(nb*w, pb*w), matrix.NewDense(pb*w, mb*w), w)
			count := map[[3]int]int{} // (r, iB, piece) → injections
			for k := 0; k <= tr.RegularBlocks(); k++ {
				for _, p := range Pieces {
					init := tr.InitFor(k, p)
					if init.Kind == InitE {
						count[[3]int{init.R, init.S, int(EPieceForInit(p))}]++
					}
				}
			}
			for r := 0; r < nb; r++ {
				for iB := 0; iB < mb; iB++ {
					for _, p := range []Piece{PieceD, PieceUMid, PieceLMid} {
						if got := count[[3]int{r, iB, int(p)}]; got != 1 {
							t.Errorf("w=%d %v: E(%d,%d,%v) injected %d times", w, shape, r, iB, p, got)
						}
					}
				}
			}
		}
	}
}

// TestIrregularFeedbackSites verifies the irregular (region-crossing)
// feedbacks appear exactly where §3 says: when blocks U_{0,j} are fed back
// (region starts) and when the L_{n̄−1,j} chains cross regions.
func TestIrregularFeedbackSites(t *testing.T) {
	w := 3
	tr := NewMatMul(matrix.NewDense(2*w, 2*w), matrix.NewDense(2*w, 3*w), w) // n̄=2 p̄=2 m̄=3
	region := tr.PBar * tr.NBar
	for k := 1; k <= tr.RegularBlocks(); k++ {
		init := tr.InitFor(k, PieceULeft)
		wantIrr := k%region == 0
		if (init.Kind == InitFeedback && init.Irregular) != wantIrr {
			t.Errorf("ULeft row %d: irregular=%v, want %v", k, init.Irregular, wantIrr)
		}
	}
	for k := 0; k < tr.RegularBlocks(); k++ {
		init := tr.InitFor(k, PieceLMid)
		r, iB, s := tr.group(k)
		wantIrr := s == 0 && r == tr.NBar-1 && iB > 0
		if (init.Kind == InitFeedback && init.Irregular) != wantIrr {
			t.Errorf("LMid row %d: irregular=%v, want %v", k, init.Kind == InitFeedback && init.Irregular, wantIrr)
		}
	}
	// The longest feedback: right triangle of the last regular row.
	init := tr.InitFor(tr.RegularBlocks()-1, PieceLRight)
	if init.Kind != InitFeedback || !init.Irregular || init.Row != tr.NBar*tr.PBar-1 || init.Piece != PieceLMid {
		t.Errorf("last-row LRight init = %+v", init)
	}
}

func TestCSourceFig4Example(t *testing.T) {
	// n̄=2, p̄=2, m̄=3, w=3: spot-check extraction sites.
	w := 3
	tr := NewMatMul(matrix.NewDense(2*w, 2*w), matrix.NewDense(2*w, 3*w), w)
	// D of C_{r,iB} at last row of its group: g = iB·n̄ + r, row (g+1)p̄−1.
	if row, p := tr.CSource(1, 2, PieceD); row != (2*2+1+1)*2-1 || p != PieceD {
		t.Errorf("D C_{1,2} at (%d,%v)", row, p)
	}
	// U of C_{0,j} at the first row of region j+1 (irregular chain end).
	if row, p := tr.CSource(0, 0, PieceUMid); row != 4 || p != PieceULeft {
		t.Errorf("U C_{0,0} at (%d,%v), want (4,U0)", row, p)
	}
	// U of C_{0,m̄−1} lands on the tail row block.
	if row, p := tr.CSource(0, 2, PieceUMid); row != tr.RegularBlocks() || p != PieceULeft {
		t.Errorf("U C_{0,2} at (%d,%v), want (%d,U0)", row, p, tr.RegularBlocks())
	}
	// L of C_{n̄−1,0} at the right triangle of the last regular row.
	if row, p := tr.CSource(1, 0, PieceLMid); row != tr.RegularBlocks()-1 || p != PieceLRight {
		t.Errorf("L C_{1,0} at (%d,%v)", row, p)
	}
	// L of C_{n̄−1,j>0} at the mid of the last row of region j.
	if row, p := tr.CSource(1, 1, PieceLMid); row != 2*4-1 || p != PieceLMid {
		t.Errorf("L C_{1,1} at (%d,%v), want (7,L0)", row, p)
	}
}

func TestMatMulQuickProperty(t *testing.T) {
	// Randomized property sweep beyond the exhaustive grid: 60 random
	// shapes, exact equality required.
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 60; i++ {
		w := 1 + rng.Intn(4)
		n := 1 + rng.Intn(3*w)
		p := 1 + rng.Intn(3*w)
		m := 1 + rng.Intn(3*w)
		a := matrix.RandomDense(rng, n, p, 3)
		b := matrix.RandomDense(rng, p, m, 3)
		e := matrix.RandomDense(rng, n, m, 3)
		tr := NewMatMul(a, b, w)
		_, c := tr.ReferenceRun(e)
		want := a.Mul(b).AddM(e)
		if !c.Equal(want, 0) {
			t.Fatalf("case %d (n=%d p=%d m=%d w=%d): diverges by %g", i, n, p, m, w, c.MaxAbsDiff(want))
		}
	}
}

// TestBandRunsMatchReaders: the run descriptors of AHatRow and BHatCol must
// address, element for element, exactly what the AHatAt/BHatAt readers
// return — ragged shapes (padding zeros) included — and a shape-only
// transform must describe the same runs and piece topology as a data-built
// one.
func TestBandRunsMatchReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, w := range []int{1, 2, 3, 4, 5} {
		for trial := 0; trial < 6; trial++ {
			n, p, m := 1+rng.Intn(3*w), 1+rng.Intn(3*w), 1+rng.Intn(3*w)
			tr := NewMatMul(matrix.RandomDense(rng, n, p, 50), matrix.RandomDense(rng, p, m, 50), w)
			shape := NewMatMulShape(w, tr.NBar, tr.PBar, tr.MBar)
			pa, pb := tr.AT.Grid.Padded(), tr.BGrid.Padded()
			dim := tr.Dim()
			if shape.Dim() != dim {
				t.Fatalf("w=%d: shape Dim %d, data Dim %d", w, shape.Dim(), dim)
			}
			for i := 0; i < dim; i++ {
				ar, br := tr.AHatRow(i), tr.BHatCol(i)
				if ar != shape.AHatRow(i) || br != shape.BHatCol(i) {
					t.Fatalf("w=%d row %d: shape-only runs differ", w, i)
				}
				if want := min(w, dim-i); ar.Len != want || br.Len != want {
					t.Fatalf("w=%d row %d: run lengths %d/%d, want %d", w, i, ar.Len, br.Len, want)
				}
				for d := 0; d < ar.Len; d++ {
					var got float64
					if d < ar.Split {
						got = pa.At(ar.R0, ar.C0+d)
					} else {
						got = pa.At(ar.R1, ar.C1+d-ar.Split)
					}
					if want := tr.AHatAt(i, i+d); got != want {
						t.Fatalf("w=%d %d×%d·%d×%d Â[%d][%d]: run %g, reader %g", w, n, p, p, m, i, i+d, got, want)
					}
					if d < br.Split {
						got = pb.At(br.R0+d, br.C0)
					} else {
						got = pb.At(br.R1+d-br.Split, br.C1)
					}
					if want := tr.BHatAt(i+d, i); got != want {
						t.Fatalf("w=%d %d×%d·%d×%d B̂[%d][%d]: run %g, reader %g", w, n, p, p, m, i+d, i, got, want)
					}
				}
			}
			for k := 0; k <= tr.RegularBlocks(); k++ {
				for _, pc := range Pieces {
					if tr.InitFor(k, pc) != shape.InitFor(k, pc) {
						t.Fatalf("w=%d block %d piece %v: shape-only init differs", w, k, pc)
					}
				}
			}
		}
	}
}
