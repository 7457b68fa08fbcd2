// Package blockpart implements the triangular block partitioning that
// underlies every DBT transformation (paper §2, Fig. 1a): a dense matrix A
// is zero-padded to an n̄w × m̄w grid of w×w blocks A_ij, and each block is
// split into an upper-triangular part U_ij (including the main diagonal) and
// a strictly-lower-triangular part L_ij, so A_ij = U_ij + L_ij.
package blockpart

import (
	"fmt"

	"repro/internal/matrix"
)

// Grid is a dense matrix partitioned into w×w triangular block pairs.
type Grid struct {
	// W is the block (and systolic array) size.
	W int
	// BlockRows (n̄) and BlockCols (m̄) are the block-grid dimensions.
	BlockRows, BlockCols int
	// OrigRows, OrigCols are the dimensions before zero padding.
	OrigRows, OrigCols int

	padded *matrix.Dense
}

// Ceil returns ⌈n/w⌉, the paper's overbar operator.
func Ceil(n, w int) int {
	if n <= 0 || w <= 0 {
		panic(fmt.Sprintf("blockpart: Ceil(%d, %d) with non-positive argument", n, w))
	}
	return (n + w - 1) / w
}

// Partition pads a to a multiple of w in both dimensions and returns its
// block grid view.
func Partition(a *matrix.Dense, w int) *Grid {
	if w < 1 {
		panic(fmt.Sprintf("blockpart: invalid block size %d", w))
	}
	if a.Rows() == 0 || a.Cols() == 0 {
		panic("blockpart: empty matrix")
	}
	nb := Ceil(a.Rows(), w)
	mb := Ceil(a.Cols(), w)
	return &Grid{
		W:         w,
		BlockRows: nb,
		BlockCols: mb,
		OrigRows:  a.Rows(),
		OrigCols:  a.Cols(),
		padded:    a.Pad(nb*w, mb*w),
	}
}

// Repartition rebuilds g in place as the block grid of a with block size w,
// reusing the padded matrix's storage when its capacity allows. It is the
// allocation-free counterpart of Partition for scratch arenas that build
// one grid per array pass.
func (g *Grid) Repartition(a *matrix.Dense, w int) {
	if w < 1 {
		panic(fmt.Sprintf("blockpart: invalid block size %d", w))
	}
	if a.Rows() == 0 || a.Cols() == 0 {
		panic("blockpart: empty matrix")
	}
	nb := Ceil(a.Rows(), w)
	mb := Ceil(a.Cols(), w)
	g.W = w
	g.BlockRows, g.BlockCols = nb, mb
	g.OrigRows, g.OrigCols = a.Rows(), a.Cols()
	g.padded = matrix.PadInto(g.padded, a, nb*w, mb*w)
}

// Padded returns the zero-padded matrix (n̄w × m̄w).
func (g *Grid) Padded() *matrix.Dense { return g.padded }

// Block returns a copy of block A_rs (w×w).
func (g *Grid) Block(r, s int) *matrix.Dense {
	g.check(r, s)
	return g.padded.Slice(r*g.W, (r+1)*g.W, s*g.W, (s+1)*g.W)
}

// At reads element (a, b) of block A_rs without copying.
func (g *Grid) At(r, s, a, b int) float64 {
	g.check(r, s)
	return g.padded.At(r*g.W+a, s*g.W+b)
}

// UpperAt reads element (a, b) of U_rs: the upper triangle of A_rs including
// the main diagonal (paper: "The main diagonal of Aij may belong to any of
// them. Let us suppose ... that it belongs to Uij"). Out-of-triangle reads
// return 0.
func (g *Grid) UpperAt(r, s, a, b int) float64 {
	if b < a {
		return 0
	}
	return g.At(r, s, a, b)
}

// LowerAt reads element (a, b) of L_rs: the strictly lower triangle of A_rs.
// Out-of-triangle reads return 0.
func (g *Grid) LowerAt(r, s, a, b int) float64 {
	if b >= a {
		return 0
	}
	return g.At(r, s, a, b)
}

// BlockIsZero reports whether block A_rs is entirely zero. Used by the
// sparse-aware DBT extension (paper §4).
func (g *Grid) BlockIsZero(r, s int) bool {
	for a := 0; a < g.W; a++ {
		for b := 0; b < g.W; b++ {
			if g.At(r, s, a, b) != 0 {
				return false
			}
		}
	}
	return true
}

func (g *Grid) check(r, s int) {
	if r < 0 || r >= g.BlockRows || s < 0 || s >= g.BlockCols {
		panic(fmt.Sprintf("blockpart: block (%d,%d) out of grid %d×%d", r, s, g.BlockRows, g.BlockCols))
	}
}
