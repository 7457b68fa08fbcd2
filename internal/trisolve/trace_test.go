package trisolve

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/systolic"
)

// randomBand draws a nonsingular lower band of bandwidth w.
func randomBand(rng *rand.Rand, n, w int) *matrix.Band {
	l := matrix.NewBand(n, n, -(w - 1), 0)
	for i := 0; i < n; i++ {
		for d := 1; d < w; d++ {
			if j := i - d; j >= 0 {
				l.Set(i, j, float64(rng.Intn(5)-2))
			}
		}
		l.Set(i, i, float64(1+rng.Intn(3)))
	}
	return l
}

// TestBandTrace pins the Kung–Leiserson boundary timing: y_i enters PE w−1
// at cycle 2i, x_i leaves the divider at cycle 2i+w−1 with the solved
// value, and re-enters the x stream one cycle later.
func TestBandTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, w := range []int{1, 2, 3, 5} {
		n := 2 + rng.Intn(8)
		l := randomBand(rng, n, w)
		b := matrix.RandomVector(rng, n, 3)
		arr := New(w)
		arr.RecordTrace = true
		res := arr.SolveBand(l, b)
		if res.Trace == nil {
			t.Fatalf("w=%d: no trace recorded", w)
		}
		yins := portEvents(res.Trace, systolic.PortYIn)
		if len(yins) != n {
			t.Fatalf("w=%d: %d y injections, want %d", w, len(yins), n)
		}
		for i, e := range yins {
			if e.Index != i || e.Cycle != 2*i {
				t.Errorf("w=%d: y%d injected at cycle %d (index %d), want cycle %d", w, i, e.Cycle, e.Index, 2*i)
			}
		}
		outs := portEvents(res.Trace, systolic.PortYOut)
		if len(outs) != n {
			t.Fatalf("w=%d: %d x outputs, want %d", w, len(outs), n)
		}
		for i, e := range outs {
			if e.Index != i || e.Cycle != 2*i+w-1 {
				t.Errorf("w=%d: x%d emitted at cycle %d, want 2i+w−1 = %d", w, i, e.Cycle, 2*i+w-1)
			}
			if e.Value != res.X[i] {
				t.Errorf("w=%d: x%d trace value %g ≠ solution %g", w, i, e.Value, res.X[i])
			}
		}
		reenter := portEvents(res.Trace, systolic.PortX)
		if w == 1 {
			if len(reenter) != 0 {
				t.Errorf("w=1: %d re-entries, want none (no x stream)", len(reenter))
			}
		} else {
			if len(reenter) != n {
				t.Fatalf("w=%d: %d re-entries, want %d", w, len(reenter), n)
			}
			for i, e := range reenter {
				if e.Index != i || e.Cycle != 2*i+w {
					t.Errorf("w=%d: x%d re-enters at cycle %d, want %d", w, i, e.Cycle, 2*i+w)
				}
			}
		}
		// Coefficient consumptions: one per MAC plus one per division.
		as := portEvents(res.Trace, systolic.PortA)
		if want := res.Activity.Total(); len(as) != want {
			t.Errorf("w=%d: %d coefficient events, want %d", w, len(as), want)
		}
	}
}

// TestTraceEngineRules: traces are structural-only, exactly like the
// matrix-product arrays — EngineCompiled with a trace is an error,
// EngineAuto falls back to the oracle, and an untraced run stays on the
// compiled path with a nil trace.
func TestTraceEngineRules(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	w, n := 3, 6
	l := randomBand(rng, n, w)
	b := matrix.RandomVector(rng, n, 3)
	arr := New(w)
	arr.RecordTrace = true
	if _, err := arr.SolveBandEngine(l, b, core.EngineCompiled); err == nil {
		t.Error("compiled engine with trace should error")
	}
	res, err := arr.SolveBandEngine(l, b, core.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Events) == 0 {
		t.Error("auto engine with trace should record structurally")
	}
	arr.RecordTrace = false
	plain, err := arr.SolveBandEngine(l, b, core.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced run should have a nil trace")
	}
	if !plain.X.Equal(res.X, 0) {
		t.Error("traced and untraced solutions differ")
	}
}

// portEvents returns the events tr recorded at port p, in recording (cycle)
// order.
func portEvents(tr *systolic.Trace, p systolic.Port) []systolic.Event {
	var out []systolic.Event
	for _, e := range tr.Events {
		if e.Port == p {
			out = append(out, e)
		}
	}
	return out
}
