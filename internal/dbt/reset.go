package dbt

import (
	"fmt"

	"repro/internal/blockpart"
	"repro/internal/matrix"
)

// This file holds the allocation-free counterparts of the transform
// constructors and stream helpers, for the compiled engine's scratch
// arenas (internal/core): Reset
// rebuilds a matvec transform in place reusing its grid storage, and
// RecoverYFlat extracts y from the flat ȳ buffer the compiled replay
// produces. Each is bit-identical to its allocating twin.

// Reset rebuilds t in place as the DBT-by-rows transformation of a with
// array size w, reusing the grid's padded storage when capacity allows. A
// zero-valued MatVec is a valid target.
func (t *MatVec) Reset(a *matrix.Dense, w int) {
	if t.Grid == nil {
		t.Grid = blockpart.Partition(a, w)
	} else {
		t.Grid.Repartition(a, w)
	}
	t.W = w
	t.NBar, t.MBar = t.Grid.BlockRows, t.Grid.BlockCols
	t.N, t.M = a.Rows(), a.Cols()
}

// RecoverYFlat extracts the final y (length N) from the flat ȳ buffer of a
// compiled replay (ybar[k·w+a] = ȳ_k[a], len ≥ BandRows()) into dst
// (len = N) and returns dst. It is RecoverY without the per-block slice
// headers.
func (t *MatVec) RecoverYFlat(dst matrix.Vector, ybar []float64) matrix.Vector {
	if len(dst) != t.N {
		panic(fmt.Sprintf("dbt: RecoverYFlat dst len %d, want %d", len(dst), t.N))
	}
	if len(ybar) < t.BandRows() {
		panic(fmt.Sprintf("dbt: RecoverYFlat ybar len %d, want ≥ %d", len(ybar), t.BandRows()))
	}
	w := t.W
	pos := 0
	for k := 0; k < t.Blocks(); k++ {
		if d := t.YDest(k); d.Final {
			n := t.N - pos
			if n > w {
				n = w
			}
			copy(dst[pos:pos+n], ybar[k*w:k*w+n])
			pos += n
		}
	}
	return dst
}
