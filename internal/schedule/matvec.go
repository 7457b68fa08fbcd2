// Package schedule is the compiled-schedule execution engine: the fast
// counterpart of the cycle-accurate structural simulators in
// internal/linear, internal/hex and internal/trisolve.
//
// The structural simulators advance a global clock and re-discover, every
// cycle, which boundary values enter, which PEs hold a full operand set and
// which registers shift — O(T·w) (linear, trisolve) or O(T·w²) (hex)
// interpretive work with closure calls per coefficient. But the complete
// event schedule of a systolic workload is a pure function of its *shape*
// ((w, n̄, m̄, options) for matvec, (w, n̄, p̄, m̄) for matmul, (w, n) for
// the triangular solve): which band row meets which stream element, in
// which order a result position accumulates its terms, where every
// feedback edge lands, and every emit/inject cycle are all known before
// any data arrives. This package is organized as a workload-agnostic
// plan/replay layer (see plan.go): it compiles each workload's schedule
// once per shape — contiguous-run descriptors, analytic cycle stamps,
// feedback topology — caches it in a generic bounded concurrency-safe map,
// and replays it in O(work) with zero allocations and no liveness checks in
// the hot loop. The band layout makes every gather a handful of contiguous
// runs known at compile time, so the replay loops are shared straight-line
// slice kernels (kernel.go) rather than per-MAC index gathers. The sparse
// matvec, whose schedule depends on the retained-block pattern (data rather
// than shape), compiles too: its plans are keyed by (shape, pattern digest)
// and every cache hit is verified against the full pattern so digest
// collisions recompile instead of corrupting results (see sparse.go).
//
// Execution is bit-identical to the structural engines: per result element
// the multiply–accumulates run in exactly the cycle order the array would
// realize (increasing diagonal d for the linear array, increasing κ for
// the hexagonal array, descending diagonal for the triangular solver),
// starting from the same initialization value, so every float64 rounding
// step matches. The structural engines remain the verification oracle;
// internal/core, internal/trisolve and internal/solve cross-check the two
// engines on randomized shapes.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dbt"
)

// matvecInit describes where a block's accumulators start.
const (
	matvecFromB    = 0 // initBase indexes the padded b vector
	matvecFeedback = 1 // initBase indexes the y buffer (an earlier block's rows)
)

// MatVec is a compiled schedule for the linear contraflow array: the full
// event plan of one DBT matrix–vector problem of a given shape, including
// the paper's two-subproblem overlap mode.
type MatVec struct {
	// W, NBar, MBar identify the shape; Overlap the §2 split mode.
	W, NBar, MBar int
	Overlap       bool

	// Rows is the band row count n̄m̄w; BLen the padded b length (n̄w).
	Rows, BLen int

	// T is the step count the array would measure; MACs the total
	// multiply–accumulate count (= Rows·w); GroupableConflicts the number of
	// (cycle, PE pair) collisions under the paper's 2-PEs-in-1 grouping.
	T, MACs            int
	GroupableConflicts int

	// FeedbackDelays lists the delay of every feedback edge in the array's
	// observation (injection cycle) order.
	FeedbackDelays []int

	// initKind/initBase give each *block's* accumulator start (uniform
	// across the block's w rows): w elements of the padded b at initBase
	// (matvecFromB) or an earlier block's outputs at initBase in y
	// (matvecFeedback). Row a of the block starts from index initBase+a.
	initKind []uint8
	initBase []int32

	// Grid-replay descriptors (ExecGrid): per block k, the flat offsets of
	// its Ū and L̄ coefficient runs in the padded matrix's backing storage
	// and the padded-x column bases they pair with.
	uOff, lOff []int32
	uCol, lCol []int32
	stride     int

	// kern selects the replay kernel family for W (kernel.go).
	kern kern
}

// OverlapSplit returns the block index at which the overlap mode splits the
// transformed problem into two sub-problems (a row band boundary, so every
// feedback chain stays inside one sub-problem).
func OverlapSplit(nbar, mbar int) int { return (nbar + 1) / 2 * mbar }

// compileMatVec builds the schedule for the shape of t. It returns an
// error (matching the structural path's failure mode) when the
// transformation fails §2 validation or cannot be split for overlap —
// impossible for the dbt-built variants, reachable for external Transform
// implementations — and when the padded grid has more elements than the
// int32 run offsets can address (past 2³¹, a 16 GiB matrix).
func compileMatVec(t dbt.Transform, overlap bool) (*MatVec, error) {
	// §2's structural conditions are shape-only too: checked once here, and
	// the cache remembers the clean bill for every later same-shape solve.
	if err := t.Validate(); err != nil {
		return nil, err
	}
	w, nbar, mbar := t.Shape()
	stride := mbar * w
	if int64(nbar)*int64(w)*int64(stride) > math.MaxInt32 {
		return nil, fmt.Errorf("schedule: padded matvec grid %d×%d exceeds the %d elements a plan can address",
			nbar*w, stride, math.MaxInt32)
	}
	blocks := t.Blocks()
	rows := blocks * w
	s := &MatVec{
		W: w, NBar: nbar, MBar: mbar, Overlap: overlap,
		Rows: rows, BLen: nbar * w,
		MACs:     rows * w,
		initKind: make([]uint8, blocks),
		initBase: make([]int32, blocks),
		uOff:     make([]int32, blocks),
		lOff:     make([]int32, blocks),
		uCol:     make([]int32, blocks),
		lCol:     make([]int32, blocks),
		stride:   stride,
		kern:     kernelFor(w),
	}

	// Per-block initialization topology (shape-only: BSource never reads
	// data). A block's w rows start uniformly: from a b block, or from the
	// producing block's w outputs at feedback distance (k−src)·w ≥ w.
	for k := 0; k < blocks; k++ {
		switch src := t.BSource(k); src.Kind {
		case dbt.FromB:
			s.initKind[k] = matvecFromB
			s.initBase[k] = int32(src.Index * w)
		default:
			s.initKind[k] = matvecFeedback
			s.initBase[k] = int32(src.Index * w)
			if src.Index < 0 || src.Index >= k {
				panic(fmt.Sprintf("schedule: acausal matvec feedback block %d → %d", src.Index, k))
			}
		}
	}

	// Run descriptors for grid replay: band block k is Ū of padded block
	// (ru, su) and L̄ of padded block (rl, sl), and its x̄ block is padded x
	// block su (§2 condition 2 makes consecutive blocks share the boundary
	// column), so the replay reads Ā and x̄ straight out of the padded
	// operands and neither is ever materialized.
	for k := 0; k < blocks; k++ {
		ru, su := t.UpperIndex(k)
		rl, sl := t.LowerIndex(k)
		s.uOff[k] = int32(ru*w*stride + su*w)
		s.lOff[k] = int32(rl*w*stride + sl*w)
		s.uCol[k] = int32(su * w)
		s.lCol[k] = int32(sl * w)
	}

	// Program ranges and offsets exactly as core schedules them: one program
	// over all blocks, or the overlap split with offsets 0 and 1.
	ranges := [][2]int{{0, blocks}}
	if overlap {
		h := OverlapSplit(nbar, mbar)
		ranges = [][2]int{{0, h}, {h, blocks}}
		if src := t.BSource(h); src.Kind != dbt.FromB {
			return nil, fmt.Errorf("schedule: overlap split at block %d breaks a feedback chain", h)
		}
	}

	// Cycle accounting. For a program at offset Δ, local row l:
	//   inject(ȳ_l) = Δ + 2l + w − 1
	//   emit(ȳ_l)   = Δ + 2l + 2w − 1
	//   PE k fires for row l at Δ + 2l + 2w − 2 − k.
	type obs struct{ inject, prog, delay int }
	var observations []obs
	emit := make([]int, rows)
	maxT := 0
	for pi, r := range ranges {
		off := pi
		for k := r[0]; k < r[1]; k++ {
			for a := 0; a < w; a++ {
				i := k*w + a
				l := i - r[0]*w
				emit[i] = off + 2*l + 2*w - 1
				if s.initKind[k] == matvecFeedback {
					inj := off + 2*l + w - 1
					observations = append(observations, obs{inj, pi, inj - emit[int(s.initBase[k])+a]})
				}
			}
		}
		progRows := (r[1] - r[0]) * w
		if t := off + 2*(progRows-1) + 2*w - 2; t > maxT {
			maxT = t
		}
	}
	s.T = maxT + 1
	sort.SliceStable(observations, func(i, j int) bool {
		if observations[i].inject != observations[j].inject {
			return observations[i].inject < observations[j].inject
		}
		return observations[i].prog < observations[j].prog
	})
	s.FeedbackDelays = make([]int, len(observations))
	for i, o := range observations {
		s.FeedbackDelays[i] = o.delay
	}

	// GroupableConflicts: cycles in which both PEs of a physical pair
	// (2q, 2q+1) fire. Within one program adjacent PEs fire on opposite
	// parities, so conflicts only arise between overlapped programs; count
	// them with a boolean firing grid (compile-time only, cached).
	if len(ranges) > 1 {
		fired := make([]bool, (maxT+1)*w)
		for pi, r := range ranges {
			off := pi
			progRows := (r[1] - r[0]) * w
			for l := 0; l < progRows; l++ {
				for k := 0; k < w; k++ {
					fired[(off+2*l+2*w-2-k)*w+k] = true
				}
			}
		}
		for t := 0; t <= maxT; t++ {
			for q := 0; q+1 < w; q += 2 {
				if fired[t*w+q] && fired[t*w+q+1] {
					s.GroupableConflicts++
				}
			}
		}
	}
	return s, nil
}

// ExecGrid runs the compiled schedule directly over the padded operands:
// aflat is the padded matrix's backing storage (row-major n̄w × m̄w — the
// transform's Padded().Raw()), xp the padded x (len ≥ m̄w), b the padded b̄
// (len ≥ BLen) and y the output buffer (len ≥ Rows) receiving every band
// row's ȳ. ExecGrid performs no allocation. Band row kw+a is the Ū run
// u[a][a..w−1] on diagonals 0..w−1−a followed by the L̄ run l[a][0..a−1] on
// diagonals w−a..w−1, replayed in the array's cycle order (increasing
// diagonal) from the row's b̄ or feedback init, so results are
// bit-identical to the structural simulator.
func (s *MatVec) ExecGrid(aflat, xp, b, y []float64) {
	w := s.W
	if len(aflat) < s.NBar*w*s.stride || len(xp) < s.stride || len(b) < s.BLen || len(y) < s.Rows {
		panic(fmt.Sprintf("schedule: ExecGrid buffer sizes a=%d xp=%d b=%d y=%d for rows=%d w=%d stride=%d",
			len(aflat), len(xp), len(b), len(y), s.Rows, w, s.stride))
	}
	blocks := s.Rows / w
	for k := 0; k < blocks; k++ {
		var ini []float64
		if s.initKind[k] == matvecFromB {
			ini = b[s.initBase[k]:]
		} else {
			ini = y[s.initBase[k]:]
		}
		out := y[k*w:]
		u := aflat[s.uOff[k]:]
		lo := aflat[s.lOff[k]:]
		xu := xp[s.uCol[k]:]
		xl := xp[s.lCol[k]:]
		switch s.kern {
		case kernW8:
			gridBlock8(out, ini, u, lo, xu, xl, s.stride)
		case kernW4:
			gridBlock4(out, ini, u, lo, xu, xl, s.stride)
		default:
			gridBlockGeneric(out, ini, u, lo, xu, xl, s.stride, w)
		}
	}
}

// Bytes returns the resident size of the compiled descriptors — the memory
// the plan cache pays per shape.
func (s *MatVec) Bytes() int {
	return len(s.initKind) + len(s.initBase)*4 +
		(len(s.uOff)+len(s.lOff)+len(s.uCol)+len(s.lCol))*4 +
		len(s.FeedbackDelays)*8
}

// Utilization returns MACs/(w·T), the PE utilization η the array would
// measure for this shape.
func (s *MatVec) Utilization() float64 {
	if s.T == 0 {
		return 0
	}
	return float64(s.MACs) / (float64(s.W) * float64(s.T))
}

// GroupedUtilization returns MACs/(⌈w/2⌉·T): η with every two adjacent PEs
// sharing one physical unit (meaningful when GroupableConflicts is zero).
func (s *MatVec) GroupedUtilization() float64 {
	if s.T == 0 {
		return 0
	}
	physical := (s.W + 1) / 2
	return float64(s.MACs) / (float64(physical) * float64(s.T))
}
