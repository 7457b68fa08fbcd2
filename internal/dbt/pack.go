package dbt

import (
	"fmt"

	"repro/internal/blockpart"
	"repro/internal/matrix"
)

// This file exports the transformed bands as flat packed arrays for the
// compiled-schedule engine (internal/schedule). The cycle-accurate
// simulators read coefficients one at a time through BandAt closures; the
// compiled engine instead wants every coefficient laid out contiguously so
// its inner loop is a pure stride-1 multiply–accumulate. (The matmul bands
// are not packed at all: AHatRow/BHatCol locate them in the padded grids,
// which the compiled replay reads in place.)
//
// Layouts:
//
//   - Upper bands (Ā of matvec): dst[i*w+d] = band[i][i+d], d ∈ [0, w).
//     Entries past the band's column count are zero.
//   - Triangular lower bands (L of the solver array), packed by row over
//     descending column index: dst[i*w+d] = band[i][i−d].

// checkPack validates a destination buffer of n rows of w entries.
func checkPack(dst []float64, rows, w int) {
	if len(dst) != rows*w {
		panic(fmt.Sprintf("dbt: pack buffer len %d, want %d×%d=%d", len(dst), rows, w, rows*w))
	}
}

// PackBand writes Ā into dst (len n̄m̄w·w) in upper-band packed layout.
func (t *MatVec) PackBand(dst []float64) {
	packBandBlocks(dst, t.Grid, t.W, t.Blocks(), t.UpperIndex, t.LowerIndex)
}

// PackBand writes Ā into dst (len n̄m̄w·w) in upper-band packed layout.
func (t *MatVecByColumns) PackBand(dst []float64) {
	packBandBlocks(dst, t.Grid, t.W, t.Blocks(), t.UpperIndex, t.LowerIndex)
}

// packBandBlocks packs a DBT matvec band directly from the padded grid,
// block row by block row: band row kw+a holds Ū_k[a][a..w−1] on diagonals
// 0..w−1−a followed by L̄_k[a][0..a−1] on diagonals w−a..w−1 (both triangles
// read straight out of the padded matrix, no per-element dispatch). This is
// exactly what BandAt(i, i+d) returns, element for element.
func packBandBlocks(dst []float64, g *blockpart.Grid, w, blocks int, upper, lower func(k int) (r, s int)) {
	checkPack(dst, blocks*w, w)
	padded := g.Padded()
	for k := 0; k < blocks; k++ {
		ru, su := upper(k)
		rl, sl := lower(k)
		for a := 0; a < w; a++ {
			row := dst[(k*w+a)*w : (k*w+a+1)*w]
			up := padded.RawRow(ru*w + a)[su*w : (su+1)*w]
			copy(row, up[a:])
			if a > 0 {
				lo := padded.RawRow(rl*w + a)[sl*w : (sl+1)*w]
				copy(row[w-a:], lo[:a])
			}
		}
	}
}

// PackTriBand writes the lower triangular band l (diagonals −(w−1)..0, the
// solver-array operand shape) into dst (len n·w) in triangular packed
// layout: dst[i*w+d] = l[i][i−d], zero where i−d < 0 or the diagonal is
// outside l's stored band. Row i's slot 0 is the main-diagonal divisor; the
// compiled trisolve plan (schedule.TriSolve) consumes slots w−1..1 in
// descending order, matching the solver array's leftward y movement.
func PackTriBand(l *matrix.Band, w int, dst []float64) {
	n := l.Rows()
	checkPack(dst, n, w)
	if l.Lo() == 1-w && l.Hi() == 0 {
		// l stores exactly the diagonals the pack wants, row-compact in
		// ascending diagonal order — the packed row is the storage row
		// reversed, and out-of-matrix slots are zero by Band's invariant
		// (RawRow), so no per-element band dispatch is needed.
		for i := 0; i < n; i++ {
			src := l.RawRow(i)
			row := dst[i*w : (i+1)*w]
			for d := range row {
				row[d] = src[w-1-d]
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		row := dst[i*w : (i+1)*w]
		for d := range row {
			if j := i - d; j >= 0 {
				row[d] = l.At(i, j)
			} else {
				row[d] = 0
			}
		}
	}
}
