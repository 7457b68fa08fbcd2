package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/systolic"
)

// TestDeterminism: two runs of the same problem are bit-identical in result
// and statistics — the simulators have no hidden nondeterminism.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	a := matrix.RandomDense(rng, 10, 14, 4)
	x := matrix.RandomVector(rng, 14, 4)
	s := NewMatVecSolver(4)
	r1, err := s.Solve(a, x, nil, MatVecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Solve(a, x, nil, MatVecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Y.Equal(r2.Y, 0) || r1.Stats.T != r2.Stats.T || r1.Stats.MACs != r2.Stats.MACs {
		t.Error("matvec runs differ")
	}

	b := matrix.RandomDense(rng, 14, 9, 4)
	m := NewMatMulSolver(3)
	m1, err := m.Solve(a, b, MatMulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m.Solve(a, b, MatMulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !m1.C.Equal(m2.C, 0) || m1.Stats.T != m2.Stats.T {
		t.Error("matmul runs differ")
	}
}

// TestMatMulTrace: the hexagonal trace records one c-in and one c-out per
// band position of the transformed problem.
func TestMatMulTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	w := 2
	s := NewMatMulSolver(w)
	a := matrix.RandomDense(rng, w, w, 3)
	b := matrix.RandomDense(rng, w, w, 3)
	res, err := s.Solve(a, b, MatMulOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Trace == nil {
		t.Fatal("no trace recorded")
	}
	dim := w + w - 1 // p̄n̄m̄ = 1 ⇒ Dim = w + w − 1
	positions := 0
	for i := 0; i < dim; i++ {
		for f := -(w - 1); f <= w-1; f++ {
			if j := i + f; j >= 0 && j < dim {
				positions++
			}
		}
	}
	ins := portEvents(res.Stats.Trace, systolic.PortCIn)
	outs := portEvents(res.Stats.Trace, systolic.PortCOut)
	if len(ins) != positions || len(outs) != positions {
		t.Errorf("%d in / %d out, want %d each", len(ins), len(outs), positions)
	}
}

// TestMatVecMACsExact: the measured MAC count is exactly n̄m̄w² — every
// band position is one useful operation (the "no empty position" claim in
// operational terms).
func TestMatVecMACsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	for _, w := range []int{2, 3, 5} {
		nb, mb := 3, 2
		a := matrix.RandomDense(rng, nb*w, mb*w, 3)
		x := matrix.RandomVector(rng, mb*w, 3)
		res, err := NewMatVecSolver(w).Solve(a, x, nil, MatVecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := nb * mb * w * w; res.Stats.MACs != want {
			t.Errorf("w=%d: MACs=%d, want %d", w, res.Stats.MACs, want)
		}
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
