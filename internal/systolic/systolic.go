// Package systolic provides the shared infrastructure for the cycle-accurate
// structural simulators of Kung's contraflow arrays: boundary-port trace
// events, per-PE activity accounting and feedback delay measurement.
//
// One simulator clock tick equals one paper "step": every register in an
// array shifts once per tick and every PE may perform at most one
// multiply–accumulate per tick.
package systolic

import "fmt"

// Port identifies a boundary port class of an array.
type Port int

const (
	// PortX is the x stream input of the linear array (enters PE 0).
	PortX Port = iota
	// PortYIn is the ȳ initialization input of the linear array (enters PE w−1).
	PortYIn
	// PortYOut is the ȳ output of the linear array (leaves PE 0).
	PortYOut
	// PortA is a coefficient input (top of the linear array / NW edge of the hex array).
	PortA
	// PortB is the hexagonal array's B-operand input (NE edge).
	PortB
	// PortCIn is the hexagonal array's c-stream initialization input (S edges).
	PortCIn
	// PortCOut is the hexagonal array's c-stream output (N edges).
	PortCOut
)

func (p Port) String() string {
	switch p {
	case PortX:
		return "x"
	case PortYIn:
		return "y-in"
	case PortYOut:
		return "y-out"
	case PortA:
		return "a"
	case PortB:
		return "b"
	case PortCIn:
		return "c-in"
	case PortCOut:
		return "c-out"
	}
	return fmt.Sprintf("Port(%d)", int(p))
}

// Event is one boundary observation: a value crossing a port at a cycle.
type Event struct {
	Cycle int
	Port  Port
	// Prog distinguishes overlapped problems sharing the array.
	Prog int
	// Index is the stream element index (band row or column, or an encoded
	// band position for the hexagonal array).
	Index int
	Value float64
}

// Trace records boundary events of a run in cycle order.
type Trace struct {
	Events []Event
}

// Record appends an event.
func (tr *Trace) Record(e Event) {
	if tr == nil {
		return
	}
	tr.Events = append(tr.Events, e)
}

// Activity accumulates per-PE multiply–accumulate counts.
type Activity struct {
	// MACs[pe] counts useful operations executed by that PE.
	MACs []int
	// Cycles is the total step count T of the run.
	Cycles int
}

// NewActivity returns accounting for n PEs.
func NewActivity(n int) *Activity { return &Activity{MACs: make([]int, n)} }

// Total returns the total MAC count across PEs.
func (a *Activity) Total() int {
	s := 0
	for _, m := range a.MACs {
		s += m
	}
	return s
}

// Utilization returns total MACs / (PEs × cycles) — the paper's η = N/(A·T).
func (a *Activity) Utilization() float64 {
	if a.Cycles == 0 || len(a.MACs) == 0 {
		return 0
	}
	return float64(a.Total()) / (float64(len(a.MACs)) * float64(a.Cycles))
}

// FeedbackObservation measures one realized feedback edge: a value that left
// the array at EmitCycle and re-entered at InjectCycle. Delay is the number
// of cycles the value spends in external registers (InjectCycle − EmitCycle),
// which is also the register chain length needed to realize the edge.
type FeedbackObservation struct {
	// SrcIndex and DstIndex identify producing and consuming stream elements.
	SrcIndex, DstIndex int
	EmitCycle          int
	InjectCycle        int
	// Irregular marks the matmul region-crossing feedbacks (paper §3).
	Irregular bool
}

// Delay returns InjectCycle − EmitCycle.
func (f FeedbackObservation) Delay() int { return f.InjectCycle - f.EmitCycle }

// DelayHistogram groups observations by delay, split by regularity.
func DelayHistogram(obs []FeedbackObservation) (regular, irregular map[int]int) {
	regular = make(map[int]int)
	irregular = make(map[int]int)
	for _, o := range obs {
		if o.Irregular {
			irregular[o.Delay()]++
		} else {
			regular[o.Delay()]++
		}
	}
	return regular, irregular
}
