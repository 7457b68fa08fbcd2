// Package hex implements a cycle-accurate structural simulator of the w×w
// hexagonal systolic array for band matrix–matrix multiplication
// (Kung/Leiserson), extended with the paper's spiral feedback (§3, Fig. 5)
// so that C = A·B + E is computed entirely inside the array system.
//
// Geometry and timing (one clock tick = one paper step):
//
//   - PEs are indexed (d, e) ∈ [0,w)², d being the Ā diagonal (κ−ρ) and e
//     the B̄ diagonal (κ−γ). The three streams move one PE per cycle in
//     directions 120° apart: a-items (Ā elements) along (0,−1), b-items
//     (B̄ elements) along (−1,0) and c-items (result band positions) along
//     (+1,+1).
//   - The product term Ā[ρ][κ]·B̄[κ][γ] executes at PE (κ−ρ, κ−γ) at cycle
//     ρ+γ+κ. Successive items of every stream are spaced three cycles
//     apart, which is why the hexagonal array's peak PE duty is ⅓.
//   - A c-item carries result position (ρ, γ): it enters at the south
//     boundary (d = 0 or e = 0) at cycle ρ+γ+max(ρ,γ) with its
//     initialization value (an E element, or a fed-back earlier output) and
//     leaves the north boundary at cycle ρ+γ+min(ρ,γ)+w−1, its value then
//     being O[ρ][γ].
//
// The measured total step count — first injection to availability of the
// last output — is 3w·p̄n̄m̄ + 4w − 5, exactly the paper's T.
//
// Because items are spaced three cycles apart, up to three independent
// problems with offsets distinct modulo 3 interleave on the same array
// with zero structural conflicts, pushing utilization toward 1 — the
// hexagonal analog of the paper's "overlapping the execution of several
// problems". Run accepts multiple programs and verifies conflict-freedom
// structurally (any collision panics).
package hex

import (
	"fmt"

	"repro/internal/systolic"
)

// CInit is the initialization of one c-item (result band position).
type CInit struct {
	// Feedback: the value is the array's own output at (SrcRow, SrcCol)
	// of the same program.
	Feedback bool
	// Value is the external initialization when !Feedback (E element or 0).
	Value float64
	// SrcRow, SrcCol locate the fed-back output position.
	SrcRow, SrcCol int
	// Irregular marks region-crossing feedback edges (paper §3).
	Irregular bool
}

// Program is one band matrix–matrix problem on the array: two full bands of
// width w (Ā upper, B̄ lower), both Dim×Dim, the c-stream initialization
// rule, and an injection offset (distinct modulo 3 across programs sharing
// a run).
type Program struct {
	Dim int
	// AAt reads Ā[i][j] (upper band), BAt reads B̄[i][j] (lower band).
	AAt, BAt func(i, j int) float64
	// CInitFor resolves the initialization of result position (ρ, γ).
	CInitFor func(rho, gamma int) CInit
	// Offset delays every injection of this program.
	Offset int
}

// ProgResult holds one program's output band and feedback observations.
type ProgResult struct {
	o    [][]float64
	emit [][]int
	w    int
	// Feedback lists every realized feedback edge with measured delay.
	Feedback []systolic.FeedbackObservation
}

// At returns the output band value O[ρ][γ].
func (r *ProgResult) At(rho, gamma int) float64 {
	f := gamma - rho
	if f <= -r.w || f >= r.w {
		return 0
	}
	return r.o[rho][f+r.w-1]
}

// EmitCycle returns the availability cycle of O[ρ][γ], −1 if never emitted.
func (r *ProgResult) EmitCycle(rho, gamma int) int {
	f := gamma - rho
	if f <= -r.w || f >= r.w {
		return -1
	}
	return r.emit[rho][f+r.w-1]
}

// Result is the outcome of a run.
type Result struct {
	// Progs holds per-program outputs, in Run argument order.
	Progs []*ProgResult
	// T is the measured step count (last output availability cycle + 1).
	T int
	// Activity is per-PE MAC accounting with PEs flattened as d·w+e.
	Activity *systolic.Activity
	// Trace records c-stream boundary events when enabled.
	Trace *systolic.Trace
}

// Feedback delegates to the first program.
func (r *Result) Feedback() []systolic.FeedbackObservation { return r.Progs[0].Feedback }

// Array is the simulator for a fixed w×w hexagonal array.
type Array struct {
	W int
	// RecordTrace enables c-stream boundary event recording.
	RecordTrace bool
}

// New returns a w×w hexagonal array simulator.
func New(w int) *Array {
	if w < 1 {
		panic(fmt.Sprintf("hex: invalid array size %d", w))
	}
	return &Array{W: w}
}

type aItem struct {
	live bool
	prog int
	i, k int
	val  float64
}

type bItem struct {
	live bool
	prog int
	k, j int
	val  float64
}

type cItem struct {
	live       bool
	prog       int
	rho, gamma int
	val        float64
}

// injection is one scheduled boundary entry. It stores the item inline
// (kind-tagged) rather than behind a pointer: the schedule holds one
// injection per band element, and three heap allocations each was the
// dominant cost of building it.
type injection struct {
	t    int
	d, e int
	kind uint8 // 'a', 'b' or 'c'
	prog int
	// p1, p2 are (i, k) for a-items, (k, j) for b-items, (ρ, γ) for c-items.
	p1, p2 int
	val    float64 // coefficient for a/b-items; c values resolve at injection
}

// Run executes one or more programs on the array simultaneously and returns
// the merged result. Programs must not collide on any register at any
// cycle; the engine panics on structural conflicts, which makes the 3-way
// overlap a checked property rather than an assumption.
func (ar *Array) Run(progs ...*Program) *Result {
	if len(progs) == 0 {
		panic("hex: no programs")
	}
	w := ar.W
	res := &Result{Activity: systolic.NewActivity(w * w)}
	if ar.RecordTrace {
		res.Trace = &systolic.Trace{}
	}
	maxT := 0
	for pi, p := range progs {
		if p.Dim < 1 {
			panic(fmt.Sprintf("hex: program %d is empty", pi))
		}
		if p.Offset < 0 {
			panic(fmt.Sprintf("hex: program %d has negative offset", pi))
		}
		pr := &ProgResult{w: w, o: make([][]float64, p.Dim), emit: make([][]int, p.Dim)}
		for i := range pr.o {
			pr.o[i] = make([]float64, 2*w-1)
			pr.emit[i] = make([]int, 2*w-1)
			for j := range pr.emit[i] {
				pr.emit[i][j] = -1
			}
		}
		res.Progs = append(res.Progs, pr)
		if t := p.Offset + 3*(p.Dim-1) + w - 1; t > maxT {
			maxT = t
		}
	}

	injections := make([][]injection, maxT+1)
	add := func(inj injection) {
		if inj.t < 0 || inj.t > maxT {
			panic(fmt.Sprintf("hex: injection at cycle %d outside [0,%d]", inj.t, maxT))
		}
		injections[inj.t] = append(injections[inj.t], inj)
	}

	for pi, p := range progs {
		dim := p.Dim
		// a-items: Ā[i][k] first fires at e_hi = min(w−1, k), cycle i+2k−e_hi.
		for i := 0; i < dim; i++ {
			for d := 0; d < w; d++ {
				k := i + d
				if k >= dim {
					break
				}
				eHi := w - 1
				if k < eHi {
					eHi = k
				}
				add(injection{t: p.Offset + i + 2*k - eHi, d: d, e: eHi,
					kind: 'a', prog: pi, p1: i, p2: k, val: p.AAt(i, k)})
			}
		}
		// b-items: B̄[k][j] first fires at d_hi = min(w−1, k), cycle j+2k−d_hi.
		for j := 0; j < dim; j++ {
			for e := 0; e < w; e++ {
				k := j + e
				if k >= dim {
					break
				}
				dHi := w - 1
				if k < dHi {
					dHi = k
				}
				add(injection{t: p.Offset + j + 2*k - dHi, d: dHi, e: e,
					kind: 'b', prog: pi, p1: k, p2: j, val: p.BAt(k, j)})
			}
		}
		// c-items: result position (ρ, γ) enters the south boundary at cycle
		// ρ+γ+max(ρ,γ); its value is resolved at injection time.
		for rho := 0; rho < dim; rho++ {
			for f := -(w - 1); f <= w-1; f++ {
				gamma := rho + f
				if gamma < 0 || gamma >= dim {
					continue
				}
				kMin := rho
				if gamma > kMin {
					kMin = gamma
				}
				add(injection{t: p.Offset + rho + gamma + kMin, d: kMin - rho, e: kMin - gamma,
					kind: 'c', prog: pi, p1: rho, p2: gamma})
			}
		}
	}

	aPlane := make([]aItem, w*w)
	bPlane := make([]bItem, w*w)
	cPlane := make([]cItem, w*w)
	at := func(d, e int) int { return d*w + e }

	for t := 0; t <= maxT; t++ {
		// Phase 1: inject.
		for _, inj := range injections[t] {
			idx := at(inj.d, inj.e)
			switch inj.kind {
			case 'a':
				if aPlane[idx].live {
					panic(fmt.Sprintf("hex: a collision at PE(%d,%d) cycle %d", inj.d, inj.e, t))
				}
				aPlane[idx] = aItem{live: true, prog: inj.prog, i: inj.p1, k: inj.p2, val: inj.val}
			case 'b':
				if bPlane[idx].live {
					panic(fmt.Sprintf("hex: b collision at PE(%d,%d) cycle %d", inj.d, inj.e, t))
				}
				bPlane[idx] = bItem{live: true, prog: inj.prog, k: inj.p1, j: inj.p2, val: inj.val}
			case 'c':
				if cPlane[idx].live {
					panic(fmt.Sprintf("hex: c collision at PE(%d,%d) cycle %d", inj.d, inj.e, t))
				}
				c := cItem{live: true, prog: inj.prog, rho: inj.p1, gamma: inj.p2}
				pr := res.Progs[c.prog]
				init := progs[c.prog].CInitFor(c.rho, c.gamma)
				if init.Feedback {
					ec := pr.EmitCycle(init.SrcRow, init.SrcCol)
					if ec < 0 {
						panic(fmt.Sprintf("hex: acausal feedback: (%d,%d) needs O[%d][%d] at cycle %d before it was emitted",
							c.rho, c.gamma, init.SrcRow, init.SrcCol, t))
					}
					c.val = pr.At(init.SrcRow, init.SrcCol)
					pr.Feedback = append(pr.Feedback, systolic.FeedbackObservation{
						SrcIndex:  init.SrcRow*progs[c.prog].Dim + init.SrcCol,
						DstIndex:  c.rho*progs[c.prog].Dim + c.gamma,
						EmitCycle: ec, InjectCycle: t,
						Irregular: init.Irregular,
					})
				} else {
					c.val = init.Value
				}
				cPlane[idx] = c
				res.Trace.Record(systolic.Event{Cycle: t, Port: systolic.PortCIn, Prog: c.prog,
					Index: c.rho*progs[c.prog].Dim + c.gamma, Value: c.val})
			}
		}

		// Phase 2: compute. A PE fires when its a, b and c registers are all
		// occupied; tags must agree on program and wavefront.
		for d := 0; d < w; d++ {
			for e := 0; e < w; e++ {
				idx := at(d, e)
				a, b, c := &aPlane[idx], &bPlane[idx], &cPlane[idx]
				occupied := 0
				if a.live {
					occupied++
				}
				if b.live {
					occupied++
				}
				if c.live {
					occupied++
				}
				if occupied < 3 {
					// A lone c-item rides through regions where Ā/B̄ have
					// no elements (the clamped tail); a and b without c is a
					// scheduling bug.
					if a.live && b.live {
						panic(fmt.Sprintf("hex: a,b without c at PE(%d,%d) cycle %d", d, e, t))
					}
					continue
				}
				if a.prog != b.prog || a.prog != c.prog {
					panic(fmt.Sprintf("hex: program mix at PE(%d,%d) cycle %d", d, e, t))
				}
				if a.k != b.k || a.i != c.rho || b.j != c.gamma {
					panic(fmt.Sprintf("hex: misaligned wavefront at PE(%d,%d) cycle %d: a(%d,%d) b(%d,%d) c(%d,%d)",
						d, e, t, a.i, a.k, b.k, b.j, c.rho, c.gamma))
				}
				c.val += a.val * b.val
				res.Activity.MACs[idx]++
			}
		}

		// Phase 3: shift; retire items crossing the boundaries.
		// c moves (+1,+1): the north edges leave the array.
		for d := w - 1; d >= 0; d-- {
			for e := w - 1; e >= 0; e-- {
				idx := at(d, e)
				if !cPlane[idx].live {
					continue
				}
				if d == w-1 || e == w-1 {
					c := cPlane[idx]
					pr := res.Progs[c.prog]
					f := c.gamma - c.rho
					pr.o[c.rho][f+w-1] = c.val
					pr.emit[c.rho][f+w-1] = t + 1
					res.Trace.Record(systolic.Event{Cycle: t + 1, Port: systolic.PortCOut, Prog: c.prog,
						Index: c.rho*progs[c.prog].Dim + c.gamma, Value: c.val})
				} else {
					cPlane[at(d+1, e+1)] = cPlane[idx]
				}
				cPlane[idx] = cItem{}
			}
		}
		// a moves (0,−1).
		for d := 0; d < w; d++ {
			for e := 0; e < w; e++ {
				idx := at(d, e)
				if !aPlane[idx].live {
					continue
				}
				if e > 0 {
					aPlane[at(d, e-1)] = aPlane[idx]
				}
				aPlane[idx] = aItem{}
			}
		}
		// b moves (−1,0).
		for e := 0; e < w; e++ {
			for d := 0; d < w; d++ {
				idx := at(d, e)
				if !bPlane[idx].live {
					continue
				}
				if d > 0 {
					bPlane[at(d-1, e)] = bPlane[idx]
				}
				bPlane[idx] = bItem{}
			}
		}
	}

	res.T = maxT + 2 // availability of the final output (emitted at maxT+1)
	res.Activity.Cycles = res.T
	return res
}
