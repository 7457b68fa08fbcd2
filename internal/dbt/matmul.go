package dbt

import (
	"fmt"

	"repro/internal/blockpart"
	"repro/internal/matrix"
)

// MatMul is the §3 transformation of the dense problem C = A·B + E
// (A: n×p, B: p×m, E,C: n×m) for the w×w hexagonal array with spiral
// feedback.
//
// Ā is the DBT-by-rows band of A juxtaposed m̄ times along the diagonal plus
// a tail triangle U′ (the leading (w−1)×(w−1) triangle of the band, i.e. of
// U_{0,0}); B̄ juxtaposes, for each of the m̄ column blocks B_i of B, n̄
// copies of DBT-transposed-by-rows(B_i), plus a tail triangle L′ (leading
// triangle of the lower band of B_0, i.e. of L⁺_{0,0}). Both are square of
// dimension p̄·n̄·m̄·w + w − 1.
//
// The product band Ō has width 2w−1. Each row block k splits into five
// pieces (Fig. 6): U_{k,0} (left strictly-upper triangle), then the diagonal
// square's L_{k,0} | D_k | U_{k,1}, then L_{k,1} (right strictly-lower
// triangle). The spiral feedback initializes pieces of later row blocks with
// output pieces of earlier ones, so the partial sums Σ_t U^t, Σ_t L^t,
// Σ_t D^t of the paper accumulate inside the array; E pieces enter where a
// fresh accumulation chain starts. The appendix of the paper gives these
// index maps; the scanned text is OCR-damaged, so the maps below are
// re-derived from the block algebra (each derivation step is checked by the
// package tests against C = A·B + E for exhaustive small shapes). The
// derived maps agree with every legible appendix rule and reproduce the
// paper's regular delay w and both irregular delay families (E7).
type MatMul struct {
	// W is the array/bandwidth size.
	W int
	// NBar, PBar, MBar are ⌈n/w⌉, ⌈p/w⌉, ⌈m/w⌉.
	NBar, PBar, MBar int
	// N, P, M are the original problem dimensions.
	N, P, M int
	// AT is the DBT-by-rows transformation of A (n̄ × p̄ grid).
	AT *MatVec
	// BGrid is the block partition of B (p̄ × m̄ grid).
	BGrid *blockpart.Grid
}

// NewMatMul builds the matrix–matrix transformation for A (n×p), B (p×m)
// and array size w.
func NewMatMul(a, b *matrix.Dense, w int) *MatMul {
	if a.Cols() != b.Rows() {
		panic(fmt.Sprintf("dbt: MatMul dim mismatch %d×%d · %d×%d", a.Rows(), a.Cols(), b.Rows(), b.Cols()))
	}
	at := NewMatVec(a, w)
	bg := blockpart.Partition(b, w)
	return &MatMul{
		W:    w,
		NBar: at.NBar, PBar: at.MBar, MBar: bg.BlockCols,
		N: a.Rows(), P: a.Cols(), M: b.Cols(),
		AT:    at,
		BGrid: bg,
	}
}

// NewMatMulShape returns a data-free transform of the block shape
// (w, n̄, p̄, m̄): it carries no grids, so only the shape methods (Dim,
// PieceAt, InitFor, CSource, PieceColOffset, AHatRow, BHatCol) may be
// called on it. Plan compilers consult it instead of a transform built
// from operand data.
func NewMatMulShape(w, nbar, pbar, mbar int) *MatMul {
	if w < 1 || nbar < 1 || pbar < 1 || mbar < 1 {
		panic(fmt.Sprintf("dbt: invalid MatMul shape w=%d n̄=%d p̄=%d m̄=%d", w, nbar, pbar, mbar))
	}
	return &MatMul{
		W: w, NBar: nbar, PBar: pbar, MBar: mbar,
		N: nbar * w, P: pbar * w, M: mbar * w,
		AT: &MatVec{W: w, NBar: nbar, MBar: pbar, N: nbar * w, M: pbar * w},
	}
}

// RegularBlocks returns p̄·n̄·m̄, the number of full band row blocks; the
// tail block of w−1 rows follows them.
func (t *MatMul) RegularBlocks() int { return t.PBar * t.NBar * t.MBar }

// Dim returns the dimension of the square matrices Ā and B̄:
// p̄·n̄·m̄·w + w − 1.
func (t *MatMul) Dim() int { return t.RegularBlocks()*t.W + t.W - 1 }

// group decomposes a regular row/column block index k < p̄n̄m̄ into the
// original C block coordinates (r = A row block, iB = B column block) and
// the within-group step s ∈ [0, p̄).
func (t *MatMul) group(k int) (r, iB, s int) {
	g := k / t.PBar
	return g % t.NBar, g / t.NBar, k % t.PBar
}

// AHatAt reads Ā[i][j] (upper band, diagonals 0..w−1; out-of-band reads
// return 0).
func (t *MatMul) AHatAt(i, j int) float64 {
	w := t.W
	d := j - i
	if d < 0 || d >= w || i < 0 || j < 0 || i >= t.Dim() || j >= t.Dim() {
		return 0
	}
	iBlk := i / w
	a := i % w
	if iBlk >= t.RegularBlocks() { // tail U′: leading triangle of U_{0,0}
		b := j - iBlk*w
		r, s := t.AT.UpperIndex(0)
		return t.AT.Grid.UpperAt(r, s, a, b)
	}
	pattern := iBlk % (t.NBar * t.PBar)
	b := j - iBlk*w
	if b < w {
		r, s := t.AT.UpperIndex(pattern)
		return t.AT.Grid.UpperAt(r, s, a, b)
	}
	r, s := t.AT.LowerIndex(pattern)
	return t.AT.Grid.LowerAt(r, s, a, b-w)
}

// BHatAt reads B̄[i][j] (lower band, diagonals −(w−1)..0).
func (t *MatMul) BHatAt(i, j int) float64 {
	w := t.W
	d := j - i
	if d > 0 || d <= -w || i < 0 || j < 0 || i >= t.Dim() || j >= t.Dim() {
		return 0
	}
	c := j / w
	b := j % w
	a := i - c*w
	if c >= t.RegularBlocks() { // tail L′: leading triangle of L⁺_{0,0}
		if a >= b {
			return t.BGrid.At(0, 0, a, b)
		}
		return 0
	}
	q := c % t.PBar
	iB := c / (t.NBar * t.PBar)
	if a < w { // diagonal square: lower-including-diagonal of B_{q,iB}
		if a >= b {
			return t.BGrid.At(q, iB, a, b)
		}
		return 0
	}
	// square below: strictly upper triangle of B_{(q+1) mod p̄, iB}
	if a-w < b {
		return t.BGrid.At((q+1)%t.PBar, iB, a-w, b)
	}
	return 0
}

// BandRuns locates one band row of Â, or one band column of B̂, in a padded
// operand grid as at most two contiguous runs: band elements d < Split
// form the run starting at grid position (R0, C0), elements
// Split ≤ d < Len the run starting at (R1, C1). Â runs lie along a grid
// row (the column index grows with d), B̂ runs down a grid column (the row
// index grows with d). Len stops at the band matrix's last column (row),
// and every element of the runs is a real grid element — a padding zero at
// worst, never a structural zero.
type BandRuns struct {
	R0, C0, R1, C1 int
	Split, Len     int
}

// AHatRow locates band row i of Â — the elements Â[i][i+d] — in the
// padded A grid (AT.Grid.Padded()). A regular row a of block k is row a of
// Ū (its upper triangle from the diagonal on) followed by row a of L̄ (its
// strictly lower part), exactly as AHatAt reads them; a tail row is row a
// of U_{0,0}, cut at the band matrix's edge. Shape-only.
func (t *MatMul) AHatRow(i int) BandRuns {
	w := t.W
	k, a := i/w, i%w
	if k >= t.RegularBlocks() {
		n := w - 1 - a
		return BandRuns{R0: a, C0: a, Split: n, Len: n}
	}
	pattern := k % (t.NBar * t.PBar)
	ru, su := t.AT.UpperIndex(pattern)
	rl, sl := t.AT.LowerIndex(pattern)
	return BandRuns{R0: ru*w + a, C0: su*w + a, R1: rl*w + a, C1: sl * w, Split: w - a, Len: w}
}

// BHatCol locates band column j of B̂ — the elements B̂[j+d][j] — in the
// padded B grid (BGrid.Padded()). A regular column b of block c is column
// b of B_{q,iB} from the diagonal down, followed by the strictly upper
// part of column b of B_{(q+1) mod p̄,iB}, exactly as BHatAt reads them; a
// tail column is column b of L⁺_{0,0}, cut at the band matrix's edge.
// Shape-only.
func (t *MatMul) BHatCol(j int) BandRuns {
	w := t.W
	c, b := j/w, j%w
	if c >= t.RegularBlocks() {
		n := w - 1 - b
		return BandRuns{R0: b, C0: b, Split: n, Len: n}
	}
	q := c % t.PBar
	iB := c / (t.NBar * t.PBar)
	return BandRuns{R0: q*w + b, C0: iB*w + b, R1: (q + 1) % t.PBar * w, C1: iB*w + b, Split: w - b, Len: w}
}

// AHatBand materializes Ā for the hexagonal array.
func (t *MatMul) AHatBand() *matrix.Band {
	n := t.Dim()
	b := matrix.NewBand(n, n, 0, t.W-1)
	for i := 0; i < n; i++ {
		for d := 0; d < t.W; d++ {
			if j := i + d; j < n {
				if v := t.AHatAt(i, j); v != 0 {
					b.Set(i, j, v)
				}
			}
		}
	}
	return b
}

// BHatBand materializes B̄ for the hexagonal array.
func (t *MatMul) BHatBand() *matrix.Band {
	n := t.Dim()
	b := matrix.NewBand(n, n, -(t.W - 1), 0)
	for i := 0; i < n; i++ {
		for d := 0; d < t.W; d++ {
			if j := i - d; j >= 0 {
				if v := t.BHatAt(i, j); v != 0 {
					b.Set(i, j, v)
				}
			}
		}
	}
	return b
}
