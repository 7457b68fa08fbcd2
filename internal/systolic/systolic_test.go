package systolic

import (
	"testing"
)

func TestTraceRecordAndQuery(t *testing.T) {
	var tr Trace
	tr.Record(Event{Cycle: 2, Port: PortX, Index: 1})
	tr.Record(Event{Cycle: 0, Port: PortX, Index: 0})
	tr.Record(Event{Cycle: 2, Port: PortYIn, Index: 9})
	if len(tr.Events) != 3 || tr.Events[0].Index != 1 || tr.Events[2].Port != PortYIn {
		t.Errorf("Record did not append in order: %v", tr.Events)
	}
	// Nil trace is a no-op sink.
	var nilTrace *Trace
	nilTrace.Record(Event{})
}

func TestPortStrings(t *testing.T) {
	names := map[Port]string{
		PortX: "x", PortYIn: "y-in", PortYOut: "y-out", PortA: "a",
		PortB: "b", PortCIn: "c-in", PortCOut: "c-out", Port(99): "Port(99)",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d: %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestActivityUtilization(t *testing.T) {
	a := NewActivity(4)
	a.MACs[0] = 10
	a.MACs[3] = 10
	a.Cycles = 10
	if a.Total() != 20 {
		t.Error("Total broken")
	}
	if got := a.Utilization(); got != 0.5 {
		t.Errorf("Utilization=%g, want 0.5", got)
	}
	if (&Activity{}).Utilization() != 0 {
		t.Error("empty activity must be 0")
	}
}

func TestFeedbackObservations(t *testing.T) {
	obs := []FeedbackObservation{
		{EmitCycle: 5, InjectCycle: 8},
		{EmitCycle: 7, InjectCycle: 10},
		{EmitCycle: 0, InjectCycle: 20, Irregular: true},
	}
	if obs[0].Delay() != 3 {
		t.Error("Delay broken")
	}
	reg, irr := DelayHistogram(obs)
	if reg[3] != 2 || len(irr) != 1 || irr[20] != 1 {
		t.Errorf("histogram broken: %v %v", reg, irr)
	}
}
