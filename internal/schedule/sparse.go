package schedule

import "fmt"

// This file compiles the §4 sparse matvec — the one workload whose schedule
// depends on data, not just shape. The schedule of a sparse solve is a pure
// function of (w, n̄, m̄) plus the retained-block *pattern*: which column
// blocks each row band keeps. The pattern is data-derived, so the plan cache
// for this workload is keyed by (shape, pattern digest) and every hit is
// verified against the full canonical pattern — a digest collision recompiles
// instead of replaying the wrong schedule (see SparseMatVecFor).

// SparseMatVec is a compiled schedule for the sparsity-aware DBT matvec
// (paper §4): one replayable program per non-empty row band over that band's
// retained column blocks, scheduled back to back on the same w-PE linear
// array. The U/L pairing telescopes over the retained subset (Ū_k = U_{r,c_k},
// L̄_k = L_{r,c_{(k+1) mod q}}), so every coefficient of the compiled band is
// an element of the padded matrix, and every band row's gather is at most
// two contiguous runs of it: a Ū run of w−a terms and (for rows with a > 0)
// an L̄ run of a terms, breaking only at the Ū→L̄ wrap. The plan stores one
// {Ū column, L̄ column} descriptor per retained block — 8 bytes per w² MACs
// instead of the former 8 bytes per MAC — and Exec replays each block
// through the shared grid kernels (kernel.go) in O(MACs) with no allocation.
type SparseMatVec struct {
	// W, NBar, MBar identify the shape half of the key.
	W, NBar, MBar int

	// Q is the retained-block count; Rows the total band row count Q·w;
	// MACs the multiply–accumulate count Q·w².
	Q, Rows, MACs int

	// T is the step count the array would measure: Σ_r 2w·q_r over the
	// non-empty row bands, plus (active−1)(2w−2) inter-band gaps and the
	// 2w−3 pipeline tail — exactly 0 when Q = 0 (empty bands cost nothing).
	T int

	// TOverlap is the step count of the overlapped schedule form (paper §2
	// applied to the §4 band programs): consecutive active band programs are
	// paired, and the second of each pair is offset one cycle into the first,
	// so its injections land on the first program's idle parity cycles — the
	// two programs share the array with no structural conflict (the linear
	// simulator's collision panics prove it) and each pair advances the
	// schedule by max of the two spans instead of their sum. Results and
	// per-PE MAC counts are identical to the back-to-back form; only the
	// step count (and with it utilization) changes. Equal to T when at most
	// one band is active, exactly 0 when Q = 0.
	TOverlap int

	// MaxBandRows is the largest per-band row count q_r·w — the scratch
	// length Exec needs for the in-flight band outputs.
	MaxBandRows int

	// q[r] is the retained-column count of row band r; retained the
	// canonical pattern copy (hit verification — see MatchesPattern).
	q        []int32
	retained [][]int

	// blocks holds one run descriptor per retained block, band-major (band
	// r owns blocks[boff[r]:boff[r+1]]): the padded-column bases of the
	// block's Ū coefficients (c_k·w) and L̄ coefficients (c_{(k+1) mod q}·w).
	// Together with the fixed band-row stride these expand to the per-row
	// runs (RowRuns in the tests expands them); Exec replays them directly.
	blocks []sparseBlock
	boff   []int32

	// kern selects the replay kernel family for W (kernel.go).
	kern kern
}

// sparseBlock is the compiled run descriptor of one retained block: the
// padded-matrix column bases its Ū and L̄ runs read coefficients and x̄
// elements from.
type sparseBlock struct {
	uCol, lCol int32
}

// compileSparseMatVec builds the schedule for one shape and pattern. It
// errors on a malformed pattern (wrong band count, columns out of range or
// not strictly increasing) — the failure mode of a hand-built pattern;
// patterns derived by sparse.NewMatVec are canonical by construction.
func compileSparseMatVec(w, nbar, mbar int, retained [][]int) (*SparseMatVec, error) {
	if w < 1 || nbar < 1 || mbar < 1 {
		return nil, fmt.Errorf("schedule: invalid sparse matvec shape w=%d n̄=%d m̄=%d", w, nbar, mbar)
	}
	if len(retained) != nbar {
		return nil, fmt.Errorf("schedule: sparse pattern has %d row bands, want n̄=%d", len(retained), nbar)
	}
	s := &SparseMatVec{
		W: w, NBar: nbar, MBar: mbar,
		q:        make([]int32, nbar),
		retained: make([][]int, nbar),
		boff:     make([]int32, nbar+1),
		kern:     kernelFor(w),
	}
	for r, cols := range retained {
		prev := -1
		for _, c := range cols {
			if c <= prev || c >= mbar {
				return nil, fmt.Errorf("schedule: sparse pattern row band %d: columns must be strictly increasing in [0,%d): %v", r, mbar, cols)
			}
			prev = c
		}
		s.q[r] = int32(len(cols))
		s.retained[r] = append([]int(nil), cols...)
		s.Q += len(cols)
	}
	s.Rows = s.Q * w
	s.MACs = s.Rows * w
	s.blocks = make([]sparseBlock, 0, s.Q)

	offset, last := 0, -1
	for r, cols := range s.retained {
		qr := len(cols)
		s.boff[r] = int32(len(s.blocks))
		if qr == 0 {
			continue
		}
		rows := qr * w
		if rows > s.MaxBandRows {
			s.MaxBandRows = rows
		}
		for k, c := range cols {
			// Ū_k holds the upper triangle of block c_k, L̄_k the strictly
			// lower triangle of the cyclic successor — both runs land on real
			// elements of the padded matrix for every 0 ≤ d < w.
			s.blocks = append(s.blocks, sparseBlock{
				uCol: int32(c * w),
				lCol: int32(cols[(k+1)%qr] * w),
			})
		}
		// Back-to-back program offsets, exactly as the structural path
		// schedules them; the last program's final MAC fixes T.
		last = offset + 2*(rows-1) + 2*w - 2
		offset += 2*w*qr + 2*w - 2
	}
	s.boff[nbar] = int32(len(s.blocks))
	if last >= 0 {
		s.T = last + 1
	}

	// Overlapped form: walk the active-band program spans pairwise. The
	// first program of a pair sits at an even offset, the second one cycle
	// later on the opposite injection parity; the pair advances the offset
	// by the larger span (spans are even, so pair starts stay even and the
	// parity split holds for the whole schedule). A program's last MAC is
	// at offset + span − 2, exactly as in the back-to-back form.
	var spans []int
	for _, cols := range s.retained {
		if len(cols) > 0 {
			spans = append(spans, 2*w*len(cols)+2*w-2)
		}
	}
	offset, last = 0, -1
	for p := 0; p < len(spans); p += 2 {
		adv := spans[p]
		last = offset + spans[p] - 2
		if p+1 < len(spans) {
			if lc := offset + 1 + spans[p+1] - 2; lc > last {
				last = lc
			}
			if spans[p+1] > adv {
				adv = spans[p+1]
			}
		}
		offset += adv
	}
	if last >= 0 {
		s.TOverlap = last + 1
	}
	return s, nil
}

// Exec runs the compiled schedule over one problem's data. aflat is the
// padded matrix's backing storage (row-major n̄w × m̄w), xp the padded x
// (len ≥ m̄w), bp the padded b (len ≥ n̄w, zeros when there is no b), y the
// output buffer (len ≥ n̄w) and ybar scratch for the in-flight band rows
// (len ≥ MaxBandRows). Exec performs no allocation; each band row
// accumulates its w terms in the array's cycle order (increasing diagonal,
// feedback from the row w earlier — one grid-kernel block per retained
// block), so results are bit-identical to the structural simulator. Row
// bands with no retained blocks copy bp — they cost no array cycles.
func (s *SparseMatVec) Exec(aflat, xp, bp, y, ybar []float64) {
	w := s.W
	if len(aflat) < s.NBar*w*s.MBar*w || len(xp) < s.MBar*w || len(bp) < s.NBar*w ||
		len(y) < s.NBar*w || len(ybar) < s.MaxBandRows {
		panic(fmt.Sprintf("schedule: sparse Exec buffer sizes a=%d x=%d b=%d y=%d ybar=%d for w=%d n̄=%d m̄=%d maxrows=%d",
			len(aflat), len(xp), len(bp), len(y), len(ybar), w, s.NBar, s.MBar, s.MaxBandRows))
	}
	stride := s.MBar * w
	for r := 0; r < s.NBar; r++ {
		bs := s.blocks[s.boff[r]:s.boff[r+1]]
		if len(bs) == 0 {
			copy(y[r*w:(r+1)*w], bp[r*w:(r+1)*w])
			continue
		}
		arow := r * w * stride
		ini := bp[r*w : r*w+w]
		for kb := range bs {
			blk := &bs[kb]
			out := ybar[kb*w : (kb+1)*w]
			u := aflat[arow+int(blk.uCol):]
			lo := aflat[arow+int(blk.lCol):]
			xu := xp[blk.uCol:]
			xl := xp[blk.lCol:]
			switch s.kern {
			case kernW8:
				gridBlock8(out, ini, u, lo, xu, xl, stride)
			case kernW4:
				gridBlock4(out, ini, u, lo, xu, xl, stride)
			default:
				gridBlockGeneric(out, ini, u, lo, xu, xl, stride, w)
			}
			ini = out
		}
		// The last block of the chain holds y_r.
		copy(y[r*w:(r+1)*w], ybar[(len(bs)-1)*w:len(bs)*w])
	}
}

// ExecMany replays the compiled schedule over k right-hand-side vectors in
// one call — the batched counterpart of Exec. The operand buffers hold the
// k problems strided: xp is k padded x vectors at stride m̄w, bp and y are k
// padded b/output vectors at stride n̄w, and ybar is k in-flight band
// scratch regions at stride MaxBandRows. ExecMany performs no allocation
// and visits the plan band-major with the vectors innermost per retained
// block, so each block's coefficient runs are decoded once and stay hot in
// cache across the whole batch; at the specialized widths vectors run in
// pairs through the x2 grid kernels, each coefficient load feeding two
// independent accumulator chains — the amortization and extra ILP that make
// a batch beat k independent Exec calls. Per result element the w terms
// accumulate in
// exactly Exec's order (vectors are independent problems; interleaving them
// never reassociates within a row), so every vector's output is
// bit-identical to a lone Exec of that vector.
func (s *SparseMatVec) ExecMany(aflat, xp, bp, y, ybar []float64, k int) {
	w := s.W
	xs, ys := s.MBar*w, s.NBar*w
	if k < 1 || len(aflat) < s.NBar*w*s.MBar*w || len(xp) < k*xs || len(bp) < k*ys ||
		len(y) < k*ys || len(ybar) < k*s.MaxBandRows {
		panic(fmt.Sprintf("schedule: sparse ExecMany buffer sizes a=%d x=%d b=%d y=%d ybar=%d for k=%d w=%d n̄=%d m̄=%d maxrows=%d",
			len(aflat), len(xp), len(bp), len(y), len(ybar), k, w, s.NBar, s.MBar, s.MaxBandRows))
	}
	stride := s.MBar * w
	for r := 0; r < s.NBar; r++ {
		bs := s.blocks[s.boff[r]:s.boff[r+1]]
		if len(bs) == 0 {
			for v := 0; v < k; v++ {
				copy(y[v*ys+r*w:v*ys+(r+1)*w], bp[v*ys+r*w:v*ys+(r+1)*w])
			}
			continue
		}
		arow := r * w * stride
		for kb := range bs {
			blk := &bs[kb]
			u := aflat[arow+int(blk.uCol):]
			lo := aflat[arow+int(blk.lCol):]
			operands := func(v int) (out, ini, xu, xl []float64) {
				out = ybar[v*s.MaxBandRows+kb*w : v*s.MaxBandRows+(kb+1)*w]
				if kb == 0 {
					ini = bp[v*ys+r*w : v*ys+r*w+w]
				} else {
					ini = ybar[v*s.MaxBandRows+(kb-1)*w : v*s.MaxBandRows+kb*w]
				}
				xu = xp[v*xs+int(blk.uCol):]
				xl = xp[v*xs+int(blk.lCol):]
				return
			}
			// The specialized widths run vector *pairs* through the x2
			// kernels — one coefficient load feeds both accumulator chains —
			// with a single-vector call mopping up an odd tail.
			v := 0
			switch s.kern {
			case kernW8:
				for ; v+1 < k; v += 2 {
					out0, ini0, xu0, xl0 := operands(v)
					out1, ini1, xu1, xl1 := operands(v + 1)
					gridBlock8x2(out0, out1, ini0, ini1, u, lo, xu0, xl0, xu1, xl1, stride)
				}
				if v < k {
					out, ini, xu, xl := operands(v)
					gridBlock8(out, ini, u, lo, xu, xl, stride)
				}
			case kernW4:
				for ; v+1 < k; v += 2 {
					out0, ini0, xu0, xl0 := operands(v)
					out1, ini1, xu1, xl1 := operands(v + 1)
					gridBlock4x2(out0, out1, ini0, ini1, u, lo, xu0, xl0, xu1, xl1, stride)
				}
				if v < k {
					out, ini, xu, xl := operands(v)
					gridBlock4(out, ini, u, lo, xu, xl, stride)
				}
			default:
				for ; v < k; v++ {
					out, ini, xu, xl := operands(v)
					gridBlockGeneric(out, ini, u, lo, xu, xl, stride, w)
				}
			}
		}
		for v := 0; v < k; v++ {
			copy(y[v*ys+r*w:v*ys+(r+1)*w], ybar[v*s.MaxBandRows+(len(bs)-1)*w:v*s.MaxBandRows+len(bs)*w])
		}
	}
}

// OverlapUtilization returns MACs/(w·TOverlap), the PE utilization of the
// overlapped schedule form (0 when the schedule is empty) — the figure the
// §2 overlapping lifts toward the dense bound.
func (s *SparseMatVec) OverlapUtilization() float64 {
	if s.TOverlap == 0 {
		return 0
	}
	return float64(s.MACs) / (float64(s.W) * float64(s.TOverlap))
}

// Bytes returns the resident size of the compiled descriptors — the memory
// the plan cache pays per pattern. The run compaction makes this ~8 bytes
// per retained block (plus the canonical pattern copy) instead of the former
// 8 bytes per MAC.
func (s *SparseMatVec) Bytes() int {
	n := len(s.blocks)*8 + len(s.boff)*4 + len(s.q)*4
	for _, cols := range s.retained {
		n += 24 + len(cols)*8
	}
	return n
}

// Utilization returns MACs/(w·T), the PE utilization η the array would
// measure for this pattern (0 when the schedule is empty) — the exact
// float expression of the structural activity accounting.
func (s *SparseMatVec) Utilization() float64 {
	if s.T == 0 {
		return 0
	}
	return float64(s.MACs) / (float64(s.W) * float64(s.T))
}

// PEMACs fills dst (len ≥ w) with the per-PE MAC counts of the schedule and
// returns dst[:w]. Every band row meets every PE exactly once, so each PE
// performs Rows MACs — the same uniform count the structural activity log
// reports.
func (s *SparseMatVec) PEMACs(dst []int) []int {
	dst = dst[:s.W]
	for k := range dst {
		dst[k] = s.Rows
	}
	return dst
}

// MatchesPattern reports whether the plan was compiled for exactly this
// retained-block pattern. Cache and memo hits verify it before replaying —
// the collision policy that makes the digest key safe.
func (s *SparseMatVec) MatchesPattern(retained [][]int) bool {
	if len(retained) != s.NBar {
		return false
	}
	for r, cols := range retained {
		sc := s.retained[r]
		if len(cols) != len(sc) {
			return false
		}
		for i, c := range cols {
			if sc[i] != c {
				return false
			}
		}
	}
	return true
}
