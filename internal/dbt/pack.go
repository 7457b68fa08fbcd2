package dbt

import (
	"fmt"

	"repro/internal/matrix"
)

// This file exports the solver array's triangular band as a flat packed
// array for the compiled trisolve plan (internal/schedule): the
// cycle-accurate simulator reads coefficients one at a time through the
// Band, while the compiled replay wants each row's span contiguous so its
// inner loop is a pure stride-1 multiply–accumulate. The matvec and matmul
// bands are never packed: they only re-index the padded block grid, so
// their compiled plans locate each band block's runs in the grid
// (Transform.UpperIndex/LowerIndex, MatMul.AHatRow/BHatCol) and read it in
// place.
//
// Layout: triangular lower bands (L of the solver array) are packed by row
// over descending column index: dst[i*w+d] = band[i][i−d].

// PackTriBand writes the lower triangular band l (diagonals −(w−1)..0, the
// solver-array operand shape) into dst (len n·w) in triangular packed
// layout: dst[i*w+d] = l[i][i−d], zero where i−d < 0 or the diagonal is
// outside l's stored band. Row i's slot 0 is the main-diagonal divisor; the
// compiled trisolve plan (schedule.TriSolve) consumes slots w−1..1 in
// descending order, matching the solver array's leftward y movement.
func PackTriBand(l *matrix.Band, w int, dst []float64) {
	n := l.Rows()
	if len(dst) != n*w {
		panic(fmt.Sprintf("dbt: pack buffer len %d, want %d×%d=%d", len(dst), n, w, n*w))
	}
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
