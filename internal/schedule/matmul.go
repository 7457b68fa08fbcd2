package schedule

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/dbt"
	"repro/internal/matrix"
)

// DelayBin is one bucket of a feedback-delay histogram: Count edges with
// exactly Delay cycles between emit and inject. Histograms are canonical
// sorted-by-Delay slices (nil when empty) so the oracle and compiled
// engines compare with a plain DeepEqual and stats copies are a single
// allocation instead of a map rebuild.
type DelayBin struct {
	Delay, Count int
}

// BinsFromHistogram converts a delay→count map (the oracle's
// systolic.DelayHistogram shape) into the canonical sorted bin slice.
func BinsFromHistogram(h map[int]int) []DelayBin {
	if len(h) == 0 {
		return nil
	}
	bins := make([]DelayBin, 0, len(h))
	for d, c := range h {
		bins = append(bins, DelayBin{Delay: d, Count: c})
	}
	// slices.SortFunc, not sort.Slice: the oracle converts histograms per
	// solve, and sort.Slice's reflect-based swapper allocates.
	slices.SortFunc(bins, func(a, b DelayBin) int { return a.Delay - b.Delay })
	return bins
}

// BinCount returns the edge count recorded for delay in a bin slice — 0
// when the delay was never observed.
func BinCount(bins []DelayBin, delay int) int {
	for _, b := range bins {
		if b.Delay == delay {
			return b.Count
		}
	}
	return 0
}

// BinDelays returns the distinct delays of a histogram, already sorted.
func BinDelays(bins []DelayBin) []int {
	out := make([]int, len(bins))
	for i, b := range bins {
		out[i] = b.Delay
	}
	return out
}

// copyBins returns an independent copy of a bin slice (nil stays nil).
func copyBins(bins []DelayBin) []DelayBin {
	if bins == nil {
		return nil
	}
	return append([]DelayBin(nil), bins...)
}

// matmulOp is one C element's flattened accumulation chain: its E element
// plus at most two runs of stride-1 multiply–accumulates read in place from
// the padded operand grids, then one store to the padded C. Its run lengths
// are those of its group.
type matmulOp struct {
	out    int32 // padded-C offset
	init   int32 // padded-E offset of the chain's root
	a0, b0 int32 // first run: padded-A and transposed-padded-B offsets
	a1, b1 int32 // second run (its group's n[1] > 0 only)
}

// plus returns the offset-wise sum o + d.
func (o matmulOp) plus(d matmulOp) matmulOp {
	return matmulOp{o.out + d.out, o.init + d.init, o.a0 + d.a0, o.b0 + d.b0, o.a1 + d.a1, o.b1 + d.b1}
}

// minus returns the offset-wise difference o − d.
func (o matmulOp) minus(d matmulOp) matmulOp {
	return matmulOp{o.out - d.out, o.init - d.init, o.a0 - d.a0, o.b0 - d.b0, o.a1 - d.a1, o.b1 - d.b1}
}

// matmulStripe is count ops in arithmetic progression — op, op+step,
// op+2·step, … — the same position pattern repeated down the row blocks.
// Replay derives each op's offsets in registers instead of loading a
// descriptor per op.
type matmulStripe struct {
	op, step matmulOp
	count    int32
}

// matmulGroup is a set of ops that share both run lengths (n[1] may be 0),
// so ExecGrid replays a group with loop-invariant trip counts, several
// chains at a time. Its ops are the stripes [lo, hi), each a whole number
// of quads, and the loose ops [looseLo, looseHi) that no stripe of four or
// more covers. rot is non-nil on a rotation group: every op is one w-term
// cyclic dot product (see rotKernel), every stripe has B step 0, and the
// group replays on rot's bodies.
type matmulGroup struct {
	lo, hi           int32
	looseLo, looseHi int32
	n                [2]int32
	rot              *rotKernel
}

// opRuns is an accumulation's operand runs under construction: at most two
// (Â run, B̂ run) pairs, the last extended while the next terms continue it.
type opRuns struct {
	a, b [2]int32
	n    [2]int32
	len  int32
}

// add appends the n terms starting at padded-A offset a and transposed-B
// offset b, merging them into the last run when they continue it. It
// reports false when they would need a third run.
func (r *opRuns) add(a, b, n int32) bool {
	if k := r.len - 1; k >= 0 && a == r.a[k]+r.n[k] && b == r.b[k]+r.n[k] {
		r.n[k] += n
		return true
	}
	if r.len == 2 {
		return false
	}
	r.a[r.len], r.b[r.len], r.n[r.len] = a, b, n
	r.len++
	return true
}

// MatMul is a compiled schedule for the w×w hexagonal array with spiral
// feedback: the complete accumulation plan of one DBT matrix–matrix problem
// of a given shape, one flattened chain per C element, addressed straight
// into the padded operand grids (ExecGrid) — no band is ever packed, no
// partial sum is ever fed back through memory and no result is ever
// extracted.
type MatMul struct {
	// W, NBar, PBar, MBar identify the shape; Dim = p̄n̄m̄w + w − 1 the band
	// matrix dimension.
	W, NBar, PBar, MBar int
	Dim                 int
	// Ldc is the row stride of E and C (≥ m̄w): a plan with Ldc > m̄w
	// reads and writes an n̄w × m̄w block of a wider matrix in place.
	Ldc int

	// T is the step count the array would measure; MACs the total PE
	// operation count (the oracle's Activity total).
	T, MACs int

	// regDelays and irrDelays are the feedback-delay histograms, split as
	// the paper does (§3), precomputed sorted at compile time — CopyDelays
	// hands out copies so the cached plan stays immutable.
	regDelays, irrDelays []DelayBin

	stripes []matmulStripe
	loose   []matmulOp
	groups  []matmulGroup
	// quad interleaves four chains per step of the replay loop; off under
	// REPRO_GENERIC_KERNELS, which keeps the one-chain loop exercised.
	quad bool
}

// compileMatMul builds the schedule for the shape of t, with E and C rows
// ldc apart. Only shape methods of t are consulted (PieceAt, InitFor,
// CSource, PieceColOffset, AHatRow, BHatCol) — never data, so a
// dbt.NewMatMulShape transform suffices.
//
// The band walk: every product-band position (ρ, γ) is compiled as the
// array runs it — its κ range, its init (E, zero or the spiral feedback of
// a source position), its emit and inject cycles — which yields T, MACs and
// the delay histograms and checks causality. Operand addressing: Â row ρ is
// at most two runs of the padded A grid (n̄w × p̄w, AHatRow) and B̂ column γ
// at most two runs down a column of the padded B grid (BHatCol), which
// ExecGrid reads from a transposed copy (m̄w × p̄w, StageB) so κ stays
// stride-1. A position's κ range breaks where either run breaks — for Â
// row block k at κ = (k+1)w, for B̂ column block c at κ = (c+1)w, and the
// two coincide whenever both fall inside the range — so each position is
// at most two (Â run, B̂ run) pairs (checked).
//
// Flattening: the feedback edges form simple paths (no source is read
// twice, checked), each ending at the CSource position of one C element.
// Walking a final position's chain back to its root — always an E init
// (checked): the array injects every E element once, into the chain that
// ends in the same C element — and concatenating the runs of every position on it in chain order —
// merging the ones that continue each other — gives that C element's whole
// accumulation as at most two runs (checked). Replaying it with the running
// sum in a register is exact — the array's fed-back partial sum is a
// float64, and a float64 store and reload round nothing — and the terms
// keep their cycle order. Positions on no chain (the unused tail pieces)
// are dropped.
//
// Replay order: the chains are independent, so any order yields the same
// bits. Ops are sorted by run lengths into groups of
// identical shape, within a group by the final position in the row block,
// then row block, so the descriptors compress into stripes. Stripes keep
// their whole quads; the ops left over stay as loose per-op descriptors,
// which the replay also takes four at a time, across stripes.
//
// Rotation groups: at p̄ = 1 a chain is one w-term dot product of a padded-A
// row and a transposed-B row, entered at κ offset r = n₁ and wrapped — so
// n₀ + n₁ = w, a₀ = a₁ + n₁ and b₀ = b₁ + n₁. A group whose every op
// satisfies that identity, at a width with generated bodies, is marked
// with its rotation's bodies (rotKernelFor); its stripes with a nonzero B
// step become loose ops, so every stripe it keeps is B-stationary.
func compileMatMul(t *dbt.MatMul, ldc int) *MatMul {
	w := t.W
	dim := t.Dim()
	band := 2*w - 1
	if ldc < t.MBar*w {
		panic(fmt.Sprintf("schedule: matmul ldc %d below m̄w = %d", ldc, t.MBar*w))
	}
	s := &MatMul{
		W: w, NBar: t.NBar, PBar: t.PBar, MBar: t.MBar,
		Dim:  dim,
		Ldc:  ldc,
		T:    3*(dim-1) + w + 1,
		quad: !genericKernels(),
	}
	slots := dim * band // one per product-band position
	if int64(max(slots, s.ALen(), s.BTLen(), s.CLen())) > math.MaxInt32 {
		panic(fmt.Sprintf("schedule: matmul shape w=%d n̄=%d p̄=%d m̄=%d ldc=%d exceeds the plan's index range", w, t.NBar, t.PBar, t.MBar, ldc))
	}
	sA, sC := t.PBar*w, ldc // row strides: padded A and transposed B; E and C

	// final[slot] is the padded-C offset of the C element whose last
	// accumulation happens at band slot `slot`, or −1.
	final := make([]int32, slots)
	for i := range final {
		final[i] = -1
	}
	for r := 0; r < t.NBar; r++ {
		for iB := 0; iB < t.MBar; iB++ {
			for _, p := range []dbt.Piece{dbt.PieceD, dbt.PieceUMid, dbt.PieceLMid} {
				row, src := t.CSource(r, iB, p)
				off := t.PieceColOffset(src)
				for la := 0; la < w; la++ {
					for lb := 0; lb < w; lb++ {
						if !p.Contains(la, lb) {
							continue
						}
						rho, gamma := row*w+la, row*w+off+lb
						slot := rho*band + gamma - rho + w - 1
						if rho >= dim || gamma < 0 || gamma >= dim || final[slot] >= 0 {
							panic(fmt.Sprintf("schedule: C(%d,%d) source (%d,%d) outside the band or shared", r*w+la, iB*w+lb, rho, gamma))
						}
						final[slot] = int32((r*w+la)*sC + iB*w + lb)
					}
				}
			}
		}
	}

	regular := make(map[int]int)
	irregular := make(map[int]int)
	aRuns := make([]dbt.BandRuns, dim)
	bRuns := make([]dbt.BandRuns, dim)
	for i := range aRuns {
		aRuns[i], bRuns[i] = t.AHatRow(i), t.BHatCol(i)
	}
	aOff := func(rho, d int) int32 {
		r := &aRuns[rho]
		if d < r.Split {
			return int32(r.R0*sA + r.C0 + d)
		}
		return int32(r.R1*sA + r.C1 + d - r.Split)
	}
	bOff := func(gamma, d int) int32 {
		r := &bRuns[gamma]
		if d < r.Split {
			return int32(r.C0*sA + r.R0 + d)
		}
		return int32(r.C1*sA + r.R1 + d - r.Split)
	}

	// A c-item for result position (ρ, γ) enters the array at cycle
	// ρ+γ+max(ρ,γ) and accumulates Â[ρ][κ]·B̂[κ][γ] for κ increasing from
	// max(ρ,γ) to min(min(ρ,γ)+w−1, Dim−1) — one term per cycle — before
	// leaving at cycle ρ+γ+min(ρ,γ)+w−1 and becoming available one cycle
	// later. Dependencies (spiral feedback) always point at positions whose
	// availability precedes the consumer's entry (checked below). They also
	// point at an earlier row, or at an earlier column of the same row, so
	// the row-major walk meets every source before its consumer (checked
	// too), and every chain is complete when the walk reaches its final
	// position.
	type position struct {
		src        int32 // feedback source slot, −1 at a chain root
		init       int32 // padded-E offset of an E-init root, or −1
		runs       opRuns
		seen, read bool
	}
	type chainOp struct {
		order uint64 // final position in the row block, then row block
		n     [2]int32
		op    matmulOp
	}
	pos := make([]position, slots)
	ops := make([]chainOp, 0, s.CLen())
	var chain []int32
	flat := func(rho, gamma int) int32 { return int32(rho*band + gamma - rho + w - 1) }
	emitOf := func(rho, gamma int) int {
		return rho + gamma + min(rho, gamma) + w
	}
	for rho := 0; rho < dim; rho++ {
		for f := -(w - 1); f <= w-1; f++ {
			gamma := rho + f
			if gamma < 0 || gamma >= dim {
				continue
			}
			k0 := max(rho, gamma)
			k1 := min(min(rho, gamma)+w-1, dim-1)
			slot := flat(rho, gamma)
			p := &pos[slot]
			p.src, p.init, p.seen = -1, -1, true
			for kap := k0; kap <= k1; kap++ {
				if !p.runs.add(aOff(rho, kap-rho), bOff(gamma, kap-gamma), 1) {
					panic(fmt.Sprintf("schedule: matmul position (%d,%d) spans more than two operand runs", rho, gamma))
				}
			}
			inject := rho + gamma + k0
			blk, piece, la, lb := t.PieceAt(rho, gamma)
			switch init := t.InitFor(blk, piece); init.Kind {
			case dbt.InitE:
				if !dbt.EPieceForInit(piece).Contains(la, lb) {
					panic(fmt.Sprintf("schedule: E init at (%d,%d) outside its piece", rho, gamma))
				}
				p.init = int32((init.R*w+la)*sC + init.S*w + lb)
			case dbt.InitFeedback:
				srcRho := init.Row*w + la
				srcGamma := init.Row*w + t.PieceColOffset(init.Piece) + lb
				if srcRho < 0 || srcRho >= dim || srcGamma < 0 || srcGamma >= dim {
					panic(fmt.Sprintf("schedule: feedback source (%d,%d) outside band matrix %d", srcRho, srcGamma, dim))
				}
				emit := emitOf(srcRho, srcGamma)
				if emit > inject {
					panic(fmt.Sprintf("schedule: acausal matmul feedback (%d,%d)→(%d,%d): emit %d after inject %d",
						srcRho, srcGamma, rho, gamma, emit, inject))
				}
				src := flat(srcRho, srcGamma)
				if final[src] >= 0 || !pos[src].seen || pos[src].read {
					panic(fmt.Sprintf("schedule: feedback source (%d,%d) is a final C element, follows its consumer (%d,%d) or is read twice",
						srcRho, srcGamma, rho, gamma))
				}
				pos[src].read = true
				p.src = src
				if init.Irregular {
					irregular[inject-emit]++
				} else {
					regular[inject-emit]++
				}
			}
			s.MACs += k1 - k0 + 1
			c := final[slot]
			if c < 0 {
				continue
			}
			// Flatten the chain ending here: its positions root first.
			chain = chain[:0]
			for sl := slot; sl >= 0; sl = pos[sl].src {
				chain = append(chain, sl)
			}
			root := &pos[chain[len(chain)-1]]
			if root.init < 0 {
				panic(fmt.Sprintf("schedule: matmul w=%d n̄=%d p̄=%d m̄=%d: the chain of C offset %d has no E init",
					w, t.NBar, t.PBar, t.MBar, c))
			}
			var runs opRuns
			for i := len(chain) - 1; i >= 0; i-- {
				r := &pos[chain[i]].runs
				for j := int32(0); j < r.len; j++ {
					if !runs.add(r.a[j], r.b[j], r.n[j]) {
						panic(fmt.Sprintf("schedule: matmul w=%d n̄=%d p̄=%d m̄=%d: the chain of C offset %d spans more than two operand runs",
							w, t.NBar, t.PBar, t.MBar, c))
					}
				}
			}
			ops = append(ops, chainOp{
				order: uint64(rho%w)<<48 | uint64(f+w)<<31 | uint64(rho),
				n:     runs.n,
				op:    matmulOp{out: c, init: root.init, a0: runs.a[0], b0: runs.b[0], a1: runs.a[1], b1: runs.b[1]},
			})
		}
	}
	// Sort the chains into groups and each group into stripe order, then
	// compress each group's runs of evenly spaced ops into stripes.
	slices.SortFunc(ops, func(x, y chainOp) int {
		return cmp.Or(cmp.Compare(x.n[0], y.n[0]), cmp.Compare(x.n[1], y.n[1]), cmp.Compare(x.order, y.order))
	})
	var last matmulOp // the previous op, the tail of the open stripe
	for i := range ops {
		p := &ops[i]
		if i == 0 || p.n != ops[i-1].n {
			s.groups = append(s.groups, matmulGroup{lo: int32(len(s.stripes)), n: p.n})
		} else if st := &s.stripes[len(s.stripes)-1]; st.count == 1 || p.op == last.plus(st.step) {
			if st.count == 1 {
				st.step = p.op.minus(last)
			}
			st.count++
			last = p.op
			continue
		}
		s.stripes = append(s.stripes, matmulStripe{op: p.op, count: 1})
		s.groups[len(s.groups)-1].hi = int32(len(s.stripes))
		last = p.op
	}
	// Mark the rotation groups. Keep whole quads in the stripes (B-stationary
	// ones only in a rotation group); the ops left over, and the short
	// stripes, become loose ops replayed four at a time across stripes.
	stripes := s.stripes
	s.stripes = nil
	for gi := range s.groups {
		g := &s.groups[gi]
		lo, hi := g.lo, g.hi
		g.rot = rotationOf(w, g.n, stripes[lo:hi])
		g.lo, g.looseLo = int32(len(s.stripes)), int32(len(s.loose))
		for _, st := range stripes[lo:hi] {
			quads := st.count / 4 * 4
			if g.rot != nil && st.step.b0 != 0 {
				quads = 0
			}
			if quads > 0 {
				s.stripes = append(s.stripes, matmulStripe{op: st.op, step: st.step, count: quads})
			}
			op := st.op
			for j := int32(0); j < st.count; j++ {
				if j >= quads {
					s.loose = append(s.loose, op)
				}
				op = op.plus(st.step)
			}
		}
		g.hi, g.looseHi = int32(len(s.stripes)), int32(len(s.loose))
	}
	s.stripes = slices.Clip(s.stripes)
	s.loose = slices.Clip(s.loose)
	s.groups = slices.Clip(s.groups)
	// In replay order, each E element is read exactly once, no later than
	// the op storing the C element at the same offset — what lets
	// ExecGrid's c alias e.
	eRead := make([]bool, s.CLen())
	s.eachOp(func(g *matmulGroup, op matmulOp) {
		if eRead[op.init] {
			panic(fmt.Sprintf("schedule: E offset %d injected twice", op.init))
		}
		eRead[op.init] = true
		if !eRead[op.out] {
			panic(fmt.Sprintf("schedule: C offset %d stored before its E element is read", op.out))
		}
	})
	s.regDelays = BinsFromHistogram(regular)
	s.irrDelays = BinsFromHistogram(irregular)
	return s
}

// rotationOf returns the rotation bodies of a group with run lengths n
// whose ops are the stripes sts, or nil unless every op is one w-term
// cyclic dot product (see compileMatMul) at a width with generated bodies.
func rotationOf(w int, n [2]int32, sts []matmulStripe) *rotKernel {
	r := n[1]
	if int(n[0]+r) != w {
		return nil
	}
	for _, st := range sts {
		for j, op := int32(0), st.op; j < st.count; j, op = j+1, op.plus(st.step) {
			if r != 0 && (op.a1 != op.a0-r || op.b1 != op.b0-r) {
				return nil
			}
		}
	}
	return rotKernelFor(w, int(r))
}

// eachOp calls f on every op of the plan with its group, in replay order.
func (s *MatMul) eachOp(f func(g *matmulGroup, op matmulOp)) {
	for gi := range s.groups {
		g := &s.groups[gi]
		for _, st := range s.stripes[g.lo:g.hi] {
			for j, op := int32(0), st.op; j < st.count; j, op = j+1, op.plus(st.step) {
				f(g, op)
			}
		}
		for _, op := range s.loose[g.looseLo:g.looseHi] {
			f(g, op)
		}
	}
}

// ALen returns the length of the padded A grid (n̄w × p̄w).
func (s *MatMul) ALen() int { return s.NBar * s.W * s.PBar * s.W }

// BTLen returns the length of the transposed padded B grid (m̄w × p̄w).
func (s *MatMul) BTLen() int { return s.MBar * s.W * s.PBar * s.W }

// CLen returns the extent of the E and C buffers ExecGrid addresses: n̄w
// rows of m̄w elements, Ldc apart — n̄w × m̄w when Ldc = m̄w.
func (s *MatMul) CLen() int { return (s.NBar*s.W-1)*s.Ldc + s.MBar*s.W }

// StageB writes the transposed padded B grid ExecGrid reads into bt
// (len ≥ BTLen()) from the rows×cols block of b at (r0, c0), read through
// b's row stride: bt[j·p̄w + i] = b[r0+i][c0+j], zero in the padding. The
// block must be at most p̄w × m̄w and lie inside b.
func (s *MatMul) StageB(bt []float64, b *matrix.Dense, r0, c0, rows, cols int) {
	sB := s.PBar * s.W
	if rows > sB || cols > s.MBar*s.W || len(bt) < s.BTLen() || r0 < 0 || c0 < 0 || r0+rows > b.Rows() || c0+cols > b.Cols() {
		panic(fmt.Sprintf("schedule: StageB of the %d×%d block at (%d,%d) of %d×%d into %d for p̄w=%d m̄w=%d",
			rows, cols, r0, c0, b.Rows(), b.Cols(), len(bt), sB, s.MBar*s.W))
	}
	bt = bt[:s.BTLen()]
	if rows != sB || cols != s.MBar*s.W {
		clear(bt)
	}
	for i := 0; i < rows; i++ {
		for j, v := range b.RawRow(r0 + i)[c0 : c0+cols] {
			bt[j*sB+i] = v
		}
	}
}

// ExecGrid runs the compiled schedule over one problem's padded operands:
// a the padded A grid (row-major n̄w × p̄w, len ≥ ALen), bt the transposed
// padded B grid (StageB, len ≥ BTLen), e the padded E and c the padded C
// (n̄w rows of m̄w elements, Ldc apart, len ≥ CLen; nil e means E = 0).
// Every element of C's n̄w × m̄w block is overwritten and nothing between
// its rows is touched, so with Ldc > m̄w, e and c may start inside a wider
// matrix and the pass updates that block in place. c may alias e: each E
// element is read once, by the chain that ends in the same C element.
// ExecGrid needs no scratch and performs no allocation; each C element's
// flattened chain accumulates its terms in increasing κ (cycle) order, from
// the same initialization the array would inject and with the running sum
// in a register where the array feeds it back, so results are bit-identical
// to the structural simulator. Rotation groups replay on their generated
// bodies (stripes B-stationary), the other groups four chains at a time
// through dotRun4, and everything on the one-chain loop under
// REPRO_GENERIC_KERNELS.
func (s *MatMul) ExecGrid(a, bt, e, c []float64) {
	if len(a) < s.ALen() || len(bt) < s.BTLen() || (e != nil && len(e) < s.CLen()) || len(c) < s.CLen() {
		panic(fmt.Sprintf("schedule: ExecGrid buffer sizes a=%d bt=%d e=%d c=%d for dim=%d w=%d n̄=%d p̄=%d m̄=%d ldc=%d",
			len(a), len(bt), len(e), len(c), s.Dim, s.W, s.NBar, s.PBar, s.MBar, s.Ldc))
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		n0, n1 := int(g.n[0]), int(g.n[1])
		ops := s.loose[g.looseLo:g.looseHi]
		if s.quad && g.rot != nil {
			for i := g.lo; i < g.hi; i++ {
				g.rot.stripe(a, bt, e, c, &s.stripes[i])
			}
			g.rot.loose(a, bt, e, c, ops)
			ops = ops[len(ops)&^3:]
		} else {
			ops = s.execDot(g, ops, a, bt, e, c)
		}
		for _, op := range ops {
			replayOne(int(op.out), int(op.init), int(op.a0), int(op.b0), int(op.a1), int(op.b1), n0, n1, a, bt, e, c)
		}
	}
}

// execDot replays group g's stripes and the whole quads of its loose ops
// four chains at a time through dotRun4 — or the stripes one chain at a
// time when s.quad is off — and returns the loose ops left over.
func (s *MatMul) execDot(g *matmulGroup, ops []matmulOp, a, bt, e, c []float64) []matmulOp {
	n0, n1 := int(g.n[0]), int(g.n[1])
	for i := g.lo; i < g.hi; i++ {
		// One stripe of whole quads: its ops' offsets advance in
		// registers.
		st := &s.stripes[i]
		out, init := int(st.op.out), int(st.op.init)
		a0, b0, a1, b1 := int(st.op.a0), int(st.op.b0), int(st.op.a1), int(st.op.b1)
		dOut, dInit := int(st.step.out), int(st.step.init)
		da0, db0, da1, db1 := int(st.step.a0), int(st.step.b0), int(st.step.a1), int(st.step.b1)
		for count := int(st.count); count > 0; count -= 4 {
			if !s.quad {
				for j := 0; j < 4; j++ {
					replayOne(out+j*dOut, init+j*dInit, a0+j*da0, b0+j*db0, a1+j*da1, b1+j*db1, n0, n1, a, bt, e, c)
				}
			} else {
				var v0, v1, v2, v3 float64
				if e != nil {
					v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
				}
				v0, v1, v2, v3 = dotRun4(v0, v1, v2, v3, a, bt, n0, a0, a0+da0, a0+2*da0, a0+3*da0, b0, b0+db0, b0+2*db0, b0+3*db0)
				if n1 != 0 {
					v0, v1, v2, v3 = dotRun4(v0, v1, v2, v3, a, bt, n1, a1, a1+da1, a1+2*da1, a1+3*da1, b1, b1+db1, b1+2*db1, b1+3*db1)
				}
				c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
			}
			out, init = out+4*dOut, init+4*dInit
			a0, b0, a1, b1 = a0+4*da0, b0+4*db0, a1+4*da1, b1+4*db1
		}
	}
	for ; s.quad && len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0, v1, v2, v3 = dotRun4(v0, v1, v2, v3, a, bt, n0,
			int(p[0].a0), int(p[1].a0), int(p[2].a0), int(p[3].a0), int(p[0].b0), int(p[1].b0), int(p[2].b0), int(p[3].b0))
		if n1 != 0 {
			v0, v1, v2, v3 = dotRun4(v0, v1, v2, v3, a, bt, n1,
				int(p[0].a1), int(p[1].a1), int(p[2].a1), int(p[3].a1), int(p[0].b1), int(p[1].b1), int(p[2].b1), int(p[3].b1))
		}
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
	return ops
}

// replayOne replays a single op: c[out] = e[init] (0 when e is nil) plus its
// runs, accumulated in increasing κ.
func replayOne(out, init, a0, b0, a1, b1, n0, n1 int, a, bt, e, c []float64) {
	var v float64
	if e != nil {
		v = e[init]
	}
	v = dotRun(v, a[a0:][:n0], bt[b0:])
	if n1 != 0 {
		v = dotRun(v, a[a1:][:n1], bt[b1:])
	}
	c[out] = v
}

// Bytes returns the resident size of the compiled descriptors — the memory
// the plan cache pays per shape.
func (s *MatMul) Bytes() int {
	return len(s.stripes)*int(unsafe.Sizeof(matmulStripe{})) + len(s.loose)*int(unsafe.Sizeof(matmulOp{})) +
		len(s.groups)*int(unsafe.Sizeof(matmulGroup{})) +
		(len(s.regDelays)+len(s.irrDelays))*16
}

// CopyDelays returns independent copies of the precomputed sorted delay
// histograms (callers may mutate their stats; the cached schedule must stay
// immutable). One small slice copy each — the former per-call map rebuild
// was the last allocation on the hex stats path.
func (s *MatMul) CopyDelays() (regular, irregular []DelayBin) {
	return copyBins(s.regDelays), copyBins(s.irrDelays)
}
