package dbt

import (
	"fmt"

	"repro/internal/blockpart"
	"repro/internal/matrix"
)

// Transform is the interface shared by the matrix–vector transformation
// variants (DBT-by-rows and DBT-by-columns): everything the linear array
// scheduler needs to run a transformed problem.
type Transform interface {
	// Shape returns the array size and the block grid (w, n̄, m̄).
	Shape() (w, nbar, mbar int)
	// Blocks returns the number of band row blocks (n̄·m̄).
	Blocks() int
	// BandRows and BandCols give the band matrix dimensions.
	BandRows() int
	BandCols() int
	// BandAt reads Ā[i][j].
	BandAt(i, j int) float64
	// TransformX maps the original x to the stream x̄.
	TransformX(x matrix.Vector) matrix.Vector
	// BSource and YDest describe the b̄/ȳ chaining.
	BSource(k int) BSource
	YDest(k int) YDest
	// RecoverY extracts y from the per-block outputs.
	RecoverY(ybars []matrix.Vector) matrix.Vector
	// Validate checks the structural conditions of §2.
	Validate() error
	// UpperIndex and LowerIndex locate band block k's Ū and L̄ triangles
	// as blocks (r, s) of the padded grid.
	UpperIndex(k int) (r, s int)
	LowerIndex(k int) (r, s int)
	// Padded returns the zero-padded n̄w × m̄w matrix whose blocks the band
	// re-indexes; the compiled engine replays Ā straight out of it.
	Padded() *matrix.Dense
}

// Shape implements Transform for the by-rows variant.
func (t *MatVec) Shape() (w, nbar, mbar int) { return t.W, t.NBar, t.MBar }

// Padded implements Transform for the by-rows variant.
func (t *MatVec) Padded() *matrix.Dense { return t.Grid.Padded() }

var _ Transform = (*MatVec)(nil)

// MatVecByColumns is the column-major DBT variant the paper's conclusions
// allude to ("From the proposed transformations, some other related types
// of transformations are easily deduced", §4). Band row block k holds
// Ū_k = U_{r,s} and L̄_k paired within the same original block column:
//
//	r = k mod n̄, s = ⌊k/n̄⌋
//	L̄_k = L_{r,s}                  for r < n̄−1
//	L̄_k = L_{n̄−1,(s+1) mod m̄}     for r = n̄−1
//
// Consequences (measured in the package tests and experiment E11): the x̄
// stream repeats each x block n̄ times *consecutively* — simpler stream
// generation and locality than by-rows — but the accumulation chain of a
// row band now hops n̄ blocks, so the feedback delay is (2n̄−1)·w, growing
// with the problem instead of the by-rows constant w. T and utilization
// are unchanged. This is the §4 trade-off: a simpler data transformation
// paid for in feedback storage.
type MatVecByColumns struct {
	// W, NBar, MBar, N, M as in MatVec.
	W          int
	NBar, MBar int
	N, M       int
	// Grid is the triangular block partition of A.
	Grid *blockpart.Grid
}

var _ Transform = (*MatVecByColumns)(nil)

// NewMatVecByColumns builds the column-major transformation.
func NewMatVecByColumns(a *matrix.Dense, w int) *MatVecByColumns {
	g := blockpart.Partition(a, w)
	return &MatVecByColumns{
		W: w, NBar: g.BlockRows, MBar: g.BlockCols,
		N: a.Rows(), M: a.Cols(), Grid: g,
	}
}

// Shape implements Transform.
func (t *MatVecByColumns) Shape() (w, nbar, mbar int) { return t.W, t.NBar, t.MBar }

// Padded implements Transform.
func (t *MatVecByColumns) Padded() *matrix.Dense { return t.Grid.Padded() }

// Blocks returns n̄·m̄.
func (t *MatVecByColumns) Blocks() int { return t.NBar * t.MBar }

// BandRows returns n̄·m̄·w.
func (t *MatVecByColumns) BandRows() int { return t.Blocks() * t.W }

// BandCols returns n̄·m̄·w + w − 1.
func (t *MatVecByColumns) BandCols() int { return t.BandRows() + t.W - 1 }

// UpperIndex returns (r, s) with Ū_k = U_{r,s}: r = k mod n̄, s = ⌊k/n̄⌋.
func (t *MatVecByColumns) UpperIndex(k int) (r, s int) {
	t.checkBlock(k)
	return k % t.NBar, k / t.NBar
}

// LowerIndex returns (r, s) with L̄_k = L_{r,s}: the same block column for
// interior rows, the next column (wrapping) for the last block row.
func (t *MatVecByColumns) LowerIndex(k int) (r, s int) {
	t.checkBlock(k)
	r, s = k%t.NBar, k/t.NBar
	if r == t.NBar-1 {
		s = (s + 1) % t.MBar
	}
	return r, s
}

// BandAt reads Ā[i][j] with the same band layout as the by-rows variant.
func (t *MatVecByColumns) BandAt(i, j int) float64 {
	d := j - i
	if d < 0 || d >= t.W {
		return 0
	}
	k := i / t.W
	a := i % t.W
	b := j - k*t.W
	if b < t.W {
		r, s := t.UpperIndex(k)
		return t.Grid.UpperAt(r, s, a, b)
	}
	r, s := t.LowerIndex(k)
	return t.Grid.LowerAt(r, s, a, b-t.W)
}

// TransformX maps x to x̄: x̄_k = x_{⌊k/n̄⌋} — each block streamed n̄ times
// consecutively — plus the usual w−1 tail of x_0.
func (t *MatVecByColumns) TransformX(x matrix.Vector) matrix.Vector {
	if len(x) != t.M {
		panic(fmt.Sprintf("dbt: TransformX length %d, want %d", len(x), t.M))
	}
	xp := x.Pad(t.MBar * t.W)
	out := make(matrix.Vector, 0, t.BandCols())
	for k := 0; k < t.Blocks(); k++ {
		out = append(out, xp.Block(k/t.NBar, t.W)...)
	}
	_, s := t.LowerIndex(t.Blocks() - 1)
	tail := xp.Block(s, t.W)
	return append(out, tail[:t.W-1]...)
}

// BSource: block k starts its chain from b_r in the first block column
// (k < n̄) and otherwise continues the chain of block k − n̄.
func (t *MatVecByColumns) BSource(k int) BSource {
	t.checkBlock(k)
	if k < t.NBar {
		return BSource{Kind: FromB, Index: k}
	}
	return BSource{Kind: FromFeedback, Index: k - t.NBar}
}

// YDest: blocks of the last block column (k ≥ n̄(m̄−1)) emit the final
// y_{k mod n̄}; all others feed block k + n̄.
func (t *MatVecByColumns) YDest(k int) YDest {
	t.checkBlock(k)
	if k >= t.NBar*(t.MBar-1) {
		return YDest{Final: true, Index: k % t.NBar}
	}
	return YDest{Final: false, Index: k + t.NBar}
}

// RecoverY extracts y (length n) from the per-block outputs.
func (t *MatVecByColumns) RecoverY(ybars []matrix.Vector) matrix.Vector {
	if len(ybars) != t.Blocks() {
		panic(fmt.Sprintf("dbt: RecoverY got %d blocks, want %d", len(ybars), t.Blocks()))
	}
	out := make(matrix.Vector, t.NBar*t.W)
	for k := 0; k < t.Blocks(); k++ {
		if d := t.YDest(k); d.Final {
			copy(out[d.Index*t.W:(d.Index+1)*t.W], ybars[k])
		}
	}
	return out[:t.N]
}

// Validate checks §2's conditions for the column-major pairing: U/L of
// every band block share the original block row, x̄ is continuous, and
// each triangle appears exactly once.
func (t *MatVecByColumns) Validate() error {
	seenU := make(map[[2]int]bool)
	seenL := make(map[[2]int]bool)
	for k := 0; k < t.Blocks(); k++ {
		ru, su := t.UpperIndex(k)
		rl, sl := t.LowerIndex(k)
		if ru != rl {
			return fmt.Errorf("dbt: block %d pairs U row %d with L row %d", k, ru, rl)
		}
		u, l := [2]int{ru, su}, [2]int{rl, sl}
		if seenU[u] || seenL[l] {
			return fmt.Errorf("dbt: block %d duplicates U%v or L%v", k, u, l)
		}
		seenU[u] = true
		seenL[l] = true
		if k+1 < t.Blocks() {
			_, next := t.UpperIndex(k + 1)
			if sl != next {
				return fmt.Errorf("dbt: x̄ discontinuity between blocks %d and %d (%d vs %d)", k, k+1, sl, next)
			}
		}
	}
	if len(seenU) != t.Blocks() || len(seenL) != t.Blocks() {
		return fmt.Errorf("dbt: coverage %d U / %d L, want %d", len(seenU), len(seenL), t.Blocks())
	}
	return nil
}

func (t *MatVecByColumns) checkBlock(k int) {
	if k < 0 || k >= t.Blocks() {
		panic(fmt.Sprintf("dbt: block index %d out of range %d", k, t.Blocks()))
	}
}
