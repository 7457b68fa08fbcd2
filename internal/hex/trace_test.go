package hex

import (
	"math/rand"
	"testing"

	"repro/internal/systolic"
)

// TestTraceEvents: with tracing enabled, every band position produces one
// c-in and one c-out event, at the model's entry and exit cycles.
func TestTraceEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	w, dim := 3, 7
	a, b := randBands(rng, dim, w)
	ar := New(w)
	ar.RecordTrace = true
	res := ar.Run(plainProgram(a, b, nil))

	positions := 0
	for i := 0; i < dim; i++ {
		for f := -(w - 1); f <= w-1; f++ {
			if j := i + f; j >= 0 && j < dim {
				positions++
			}
		}
	}
	ins := portEvents(res.Trace, systolic.PortCIn)
	outs := portEvents(res.Trace, systolic.PortCOut)
	if len(ins) != positions || len(outs) != positions {
		t.Fatalf("%d in / %d out events, want %d each", len(ins), len(outs), positions)
	}
	for _, e := range ins {
		rho, gamma := e.Index/dim, e.Index%dim
		kMin := rho
		if gamma > kMin {
			kMin = gamma
		}
		if e.Cycle != rho+gamma+kMin {
			t.Errorf("c-in (%d,%d) at cycle %d, want %d", rho, gamma, e.Cycle, rho+gamma+kMin)
		}
	}
	for _, e := range outs {
		rho, gamma := e.Index/dim, e.Index%dim
		if e.Cycle != res.Progs[0].EmitCycle(rho, gamma) {
			t.Errorf("c-out (%d,%d) at cycle %d, want %d", rho, gamma, e.Cycle, res.Progs[0].EmitCycle(rho, gamma))
		}
	}
}

// TestW1Degenerate: a 1×1 "hexagonal" array is a single MAC cell; the
// band is just the diagonal and everything still works.
func TestW1Degenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	dim := 9
	a, b := randBands(rng, dim, 1)
	res := New(1).Run(plainProgram(a, b, nil))
	for i := 0; i < dim; i++ {
		if got, want := res.Progs[0].At(i, i), a.At(i, i)*b.At(i, i); got != want {
			t.Errorf("O[%d][%d]=%g, want %g", i, i, got, want)
		}
	}
	if got, want := res.T, 3*(dim-1)+2; got != want {
		t.Errorf("T=%d, want %d", got, want)
	}
}

// TestLargerArray: w=6 with a long band — exercises the engine at a scale
// where every PE class (corner, edge, interior) is present.
func TestLargerArray(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	w, dim := 6, 40
	a, b := randBands(rng, dim, w)
	res := New(w).Run(plainProgram(a, b, nil))
	want := a.Mul(b)
	for i := 0; i < dim; i++ {
		for f := -(w - 1); f <= w-1; f++ {
			j := i + f
			if j < 0 || j >= dim {
				continue
			}
			if res.Progs[0].At(i, j) != want.At(i, j) {
				t.Fatalf("O[%d][%d] wrong", i, j)
			}
		}
	}
	// Interior wavefronts keep every third cycle busy: total MACs must be
	// dim·w² minus the boundary deficits.
	if res.Activity.Total() > dim*w*w {
		t.Errorf("MACs %d exceed dim·w² = %d", res.Activity.Total(), dim*w*w)
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
