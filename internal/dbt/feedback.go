package dbt

import (
	"fmt"

	"repro/internal/matrix"
)

// Piece identifies one of the five triangular/diagonal pieces of a row block
// of the 2w−1-wide product band (Fig. 6). Within a row block, pieces appear
// in increasing column (and therefore systolic time) order.
type Piece int

const (
	// PieceULeft is U_{k,0}: the strictly upper triangle lying in the
	// column square to the left of the diagonal square.
	PieceULeft Piece = iota
	// PieceLMid is L_{k,0}: the strictly lower triangle of the diagonal square.
	PieceLMid
	// PieceD is D_k: the main diagonal of the diagonal square.
	PieceD
	// PieceUMid is U_{k,1}: the strictly upper triangle of the diagonal square.
	PieceUMid
	// PieceLRight is L_{k,1}: the strictly lower triangle lying in the
	// column square to the right of the diagonal square.
	PieceLRight
)

// Pieces lists all five pieces in column (time) order.
var Pieces = []Piece{PieceULeft, PieceLMid, PieceD, PieceUMid, PieceLRight}

func (p Piece) String() string {
	switch p {
	case PieceULeft:
		return "U0"
	case PieceLMid:
		return "L0"
	case PieceD:
		return "D"
	case PieceUMid:
		return "U1"
	case PieceLRight:
		return "L1"
	}
	return fmt.Sprintf("Piece(%d)", int(p))
}

// InitKind classifies where a piece's initial (c-stream entry) values come from.
type InitKind int

const (
	// InitZero: the piece takes no initialization (structurally absent or
	// its output is unused, e.g. the tail row's diagonal square).
	InitZero InitKind = iota
	// InitE: the piece is initialized with a triangular piece of an E block
	// (the start of a fresh accumulation chain).
	InitE
	// InitFeedback: the piece is initialized with the array's own output
	// for an earlier row block (the spiral feedback).
	InitFeedback
)

// Init describes the initialization of piece (k, piece) of the input band I.
type Init struct {
	Kind InitKind
	// R, S locate the E block (A row block r, B column block i) when Kind == InitE.
	R, S int
	// Row and Piece locate the feedback source O piece when Kind == InitFeedback.
	Row   int
	Piece Piece
	// Irregular marks the region-crossing feedbacks whose delay exceeds w
	// (paper §3: the U_{0,j} and L_{n̄−1,j} irregularities).
	Irregular bool
}

// InitFor returns the initialization of piece p of row block k
// (0 ≤ k ≤ p̄n̄m̄; k = p̄n̄m̄ is the w−1-row tail). This is the I-matrix
// composition of the paper's appendix, re-derived (see the MatMul doc).
func (t *MatMul) InitFor(k int, p Piece) Init {
	nReg := t.RegularBlocks()
	region := t.PBar * t.NBar // row blocks per B column block
	if k < 0 || k > nReg {
		panic(fmt.Sprintf("dbt: InitFor row block %d out of range [0,%d]", k, nReg))
	}
	if k == nReg {
		// Tail row block: only the left triangle takes part (it carries the
		// final U chain value of C block (0, m̄−1)); everything else unused.
		if p == PieceULeft {
			return Init{Kind: InitFeedback, Row: k - t.PBar*(t.NBar-1) - 1, Piece: PieceUMid, Irregular: t.NBar > 1}
		}
		return Init{Kind: InitZero}
	}
	r, iB, s := t.group(k)
	switch p {
	case PieceD:
		if s == 0 {
			return Init{Kind: InitE, R: r, S: iB}
		}
		return Init{Kind: InitFeedback, Row: k - 1, Piece: PieceD}
	case PieceUMid:
		if k%region == 0 {
			return Init{Kind: InitE, R: 0, S: iB}
		}
		return Init{Kind: InitFeedback, Row: k, Piece: PieceULeft}
	case PieceULeft:
		if k == 0 {
			return Init{Kind: InitZero} // no left square before column 0
		}
		if k%region == 0 {
			// First row of a region: continuation of the U chain of C block
			// (0, iB−1), fed from the mid-U of the last row of that group.
			return Init{Kind: InitFeedback, Row: k - t.PBar*(t.NBar-1) - 1, Piece: PieceUMid, Irregular: t.NBar > 1}
		}
		if s == 0 {
			return Init{Kind: InitE, R: r, S: iB}
		}
		return Init{Kind: InitFeedback, Row: k - 1, Piece: PieceUMid}
	case PieceLMid:
		if s == 0 {
			if r == t.NBar-1 && iB > 0 {
				// L chain of C block (n̄−1, iB): continuation from the right
				// triangle of the last row of region iB−1.
				return Init{Kind: InitFeedback, Row: k - t.PBar*(t.NBar-1) - 1, Piece: PieceLRight, Irregular: true}
			}
			return Init{Kind: InitE, R: r, S: iB}
		}
		return Init{Kind: InitFeedback, Row: k - 1, Piece: PieceLRight}
	case PieceLRight:
		if k == nReg-1 {
			// Last regular row: its right triangle multiplies the tail L′,
			// adding the s=0 term of C block (n̄−1, 0); it is initialized
			// with the accumulated chain of group (n̄−1, 0) — the longest
			// feedback in the system (delay ∝ (m̄−1)).
			return Init{Kind: InitFeedback, Row: t.NBar*t.PBar - 1, Piece: PieceLMid, Irregular: t.MBar > 1}
		}
		if (k+1)%region == 0 {
			// Last row of a region (other than the final one): fresh E for
			// the (n̄−1, iB+1) chain that this right triangle starts.
			return Init{Kind: InitE, R: t.NBar - 1, S: iB + 1}
		}
		return Init{Kind: InitFeedback, Row: k, Piece: PieceLMid}
	}
	panic(fmt.Sprintf("dbt: InitFor unknown piece %v", p))
}

// CSource locates the O piece holding the final value of piece p of C block
// (r, iB). PieceD additionally covers the diagonal; only PieceD, PieceUMid
// (strict upper of C) and PieceLMid (strict lower of C) are valid queries,
// and the returned Piece says where in the band the value sits.
func (t *MatMul) CSource(r, iB int, p Piece) (row int, piece Piece) {
	if r < 0 || r >= t.NBar || iB < 0 || iB >= t.MBar {
		panic(fmt.Sprintf("dbt: CSource block (%d,%d) out of %d×%d", r, iB, t.NBar, t.MBar))
	}
	last := (iB*t.NBar+r+1)*t.PBar - 1 // last row block of group (r, iB)
	region := t.PBar * t.NBar
	switch p {
	case PieceD:
		return last, PieceD
	case PieceUMid: // strict upper part of C_{r,iB}
		if r == 0 {
			return (iB + 1) * region, PieceULeft // first row of next region (or tail)
		}
		return last, PieceUMid
	case PieceLMid: // strict lower part of C_{r,iB}
		if r == t.NBar-1 {
			if iB == 0 {
				return t.RegularBlocks() - 1, PieceLRight
			}
			return (iB+1)*region - 1, PieceLMid
		}
		return last, PieceLRight
	}
	panic(fmt.Sprintf("dbt: CSource unsupported piece %v", p))
}

// PieceColOffset returns the column offset of piece p relative to the row
// block's diagonal square: −w for the left triangle, 0 for the mid pieces,
// +w for the right triangle.
func (t *MatMul) PieceColOffset(p Piece) int {
	switch p {
	case PieceULeft:
		return -t.W
	case PieceLMid, PieceD, PieceUMid:
		return 0
	case PieceLRight:
		return t.W
	}
	panic(fmt.Sprintf("dbt: bad piece %v", p))
}

// Contains reports whether local position (a, b) of a w×w square lies in
// piece p's triangle: strictly upper for the U pieces, strictly lower for
// the L pieces, the main diagonal for D.
func (p Piece) Contains(a, b int) bool {
	switch p {
	case PieceULeft, PieceUMid:
		return b > a
	case PieceLMid, PieceLRight:
		return b < a
	case PieceD:
		return b == a
	}
	panic(fmt.Sprintf("dbt: bad piece %v", p))
}

// PieceAt classifies a global band position (ρ, γ) of the product band into
// its row block k, piece, and local coordinates (a, b). It panics when the
// position is outside the 2w−1 band.
func (t *MatMul) PieceAt(rho, gamma int) (k int, p Piece, a, b int) {
	w := t.W
	f := gamma - rho
	if f <= -w || f >= w {
		panic(fmt.Sprintf("dbt: position (%d,%d) outside band", rho, gamma))
	}
	k = rho / w
	a = rho % w
	local := gamma - k*w
	switch {
	case local < 0:
		return k, PieceULeft, a, local + w
	case local < w:
		b = local
		switch {
		case b < a:
			return k, PieceLMid, a, b
		case b == a:
			return k, PieceD, a, b
		default:
			return k, PieceUMid, a, b
		}
	default:
		return k, PieceLRight, a, local - w
	}
}

// PiecePositions enumerates the in-matrix global (row, col) positions of
// piece p of row block k, together with their local (a, b) coordinates.
func (t *MatMul) PiecePositions(k int, p Piece) [][4]int {
	off := t.PieceColOffset(p)
	var out [][4]int
	for a := 0; a < t.W; a++ {
		row := k*t.W + a
		if row >= t.Dim() {
			break
		}
		for b := 0; b < t.W; b++ {
			col := k*t.W + off + b
			if col < 0 || col >= t.Dim() || !p.Contains(a, b) {
				continue
			}
			out = append(out, [4]int{row, col, a, b})
		}
	}
	return out
}

// EPieceAt reads element (a, b) of the given triangular piece of E block
// (r, iB). e may be nil (zero E). Only the mid pieces partition an E block:
// left/right queries are rejected.
func (t *MatMul) EPieceAt(e *matrix.Dense, r, iB int, p Piece, a, b int) float64 {
	switch p {
	case PieceLMid:
		if b >= a {
			return 0
		}
	case PieceD:
		if b != a {
			return 0
		}
	case PieceUMid:
		if b <= a {
			return 0
		}
	default:
		panic(fmt.Sprintf("dbt: EPieceAt piece %v", p))
	}
	if e == nil {
		return 0
	}
	i, j := r*t.W+a, iB*t.W+b
	if i >= e.Rows() || j >= e.Cols() {
		return 0 // padding
	}
	return e.At(i, j)
}

// EPieceForInit maps an InitE destination piece to the E piece injected
// there: left-triangle inits carry the strict-upper E piece, right-triangle
// inits the strict-lower E piece, and mid inits their own shape.
func EPieceForInit(dst Piece) Piece {
	switch dst {
	case PieceULeft:
		return PieceUMid
	case PieceLRight:
		return PieceLMid
	default:
		return dst
	}
}

// ORecord stores every output piece of a run, indexed by row block.
type ORecord struct {
	W int
	// P[k][piece] is a w×w dense holding the piece values at local (a,b).
	P []map[Piece]*matrix.Dense
}

// At reads piece value (a, b) of row block k.
func (o *ORecord) At(k int, p Piece, a, b int) float64 {
	m := o.P[k][p]
	if m == nil {
		return 0
	}
	return m.At(a, b)
}

// ReferenceRun computes all output pieces Ō and the recovered C = A·B + E at
// block level, with exact feedback chaining but no systolic timing. It is
// the mathematical reference the hexagonal array simulator is tested
// against. e may be nil.
func (t *MatMul) ReferenceRun(e *matrix.Dense) (*ORecord, *matrix.Dense) {
	nReg := t.RegularBlocks()
	rec := &ORecord{W: t.W, P: make([]map[Piece]*matrix.Dense, nReg+1)}
	for k := 0; k <= nReg; k++ {
		rec.P[k] = make(map[Piece]*matrix.Dense)
		for _, p := range Pieces {
			positions := t.PiecePositions(k, p)
			if len(positions) == 0 {
				continue
			}
			out := matrix.NewDense(t.W, t.W)
			init := t.InitFor(k, p)
			for _, pos := range positions {
				row, col, a, b := pos[0], pos[1], pos[2], pos[3]
				v := t.bandProductAt(row, col)
				switch init.Kind {
				case InitE:
					v += t.EPieceAt(e, init.R, init.S, EPieceForInit(p), a, b)
				case InitFeedback:
					v += rec.At(init.Row, init.Piece, a, b)
				}
				out.Set(a, b, v)
			}
			rec.P[k][p] = out
		}
	}
	return rec, t.ExtractC(rec)
}

// bandProductAt computes the pure product (Ā·B̄)[row][col].
func (t *MatMul) bandProductAt(row, col int) float64 {
	lo := row
	if col > lo {
		lo = col
	}
	hi := row
	if col < hi {
		hi = col
	}
	hi += t.W - 1
	if hi >= t.Dim() {
		hi = t.Dim() - 1
	}
	s := 0.0
	for kk := lo; kk <= hi; kk++ {
		s += t.AHatAt(row, kk) * t.BHatAt(kk, col)
	}
	return s
}

// ExtractC assembles the n×m result C from the recorded output pieces.
func (t *MatMul) ExtractC(rec *ORecord) *matrix.Dense {
	c := matrix.NewDense(t.NBar*t.W, t.MBar*t.W)
	for r := 0; r < t.NBar; r++ {
		for iB := 0; iB < t.MBar; iB++ {
			for _, p := range []Piece{PieceD, PieceUMid, PieceLMid} {
				row, src := t.CSource(r, iB, p)
				for a := 0; a < t.W; a++ {
					for b := 0; b < t.W; b++ {
						if p.Contains(a, b) {
							c.Set(r*t.W+a, iB*t.W+b, rec.At(row, src, a, b))
						}
					}
				}
			}
		}
	}
	return c.Slice(0, t.N, 0, t.M)
}
