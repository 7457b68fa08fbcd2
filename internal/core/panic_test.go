package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/matrix"
)

// panicPass is a PanicCarrier pass that records the recovered error.
type panicPass struct {
	ran  atomic.Bool
	got  atomic.Pointer[PanicError]
	done chan struct{}
}

func (p *panicPass) RunPass(int, *Arena) {
	p.ran.Store(true)
	panic("boom: poisoned pass")
}

func (p *panicPass) JobPanicked(err *PanicError) {
	p.got.Store(err)
	close(p.done)
}

// TestFleetRecoversPanic: a panicking pass is recovered into a structured
// *PanicError delivered to the PanicCarrier, the panic counter increments,
// and the shard keeps serving subsequent passes.
func TestFleetRecoversPanic(t *testing.T) {
	f := NewFleet(2, 4)
	defer f.Close()

	p := &panicPass{done: make(chan struct{})}
	if err := f.SubmitTo(0, p); err != nil {
		t.Fatalf("SubmitTo: %v", err)
	}
	<-p.done
	perr := p.got.Load()
	if perr == nil {
		t.Fatal("PanicCarrier never received the recovered error")
	}
	if !errors.Is(perr, ErrPanicked) {
		t.Errorf("errors.Is(perr, ErrPanicked) = false for %v", perr)
	}
	if !strings.Contains(perr.Error(), "poisoned pass") {
		t.Errorf("panic value missing from error: %q", perr.Error())
	}
	if len(perr.Stack) == 0 {
		t.Error("recovered PanicError has no stack trace")
	}
	if got := f.Panics(); got != 1 {
		t.Errorf("Panics() = %d, want 1", got)
	}

	// The shard that recovered the panic still serves work.
	var ran atomic.Int32
	for i := 0; i < 8; i++ {
		if err := f.SubmitTo(i%f.Shards(), PassFunc(func(int, *Arena) { ran.Add(1) })); err != nil {
			t.Fatalf("SubmitTo after panic: %v", err)
		}
	}
	f.Flush()
	if got := ran.Load(); got != 8 {
		t.Errorf("after a panic, %d of 8 passes ran", got)
	}
}

// TestFleetPanicWithoutCarrier: a pass that is not a PanicCarrier is still
// recovered (the shard survives, the counter records it) — the panic is
// contained even when nobody is listening.
func TestFleetPanicWithoutCarrier(t *testing.T) {
	f := NewFleet(1, 4)
	defer f.Close()
	if err := f.SubmitTo(0, PassFunc(func(int, *Arena) { panic("nobody listening") })); err != nil {
		t.Fatalf("SubmitTo: %v", err)
	}
	f.Flush()
	if got := f.Panics(); got != 1 {
		t.Errorf("Panics() = %d, want 1", got)
	}
	var ran atomic.Bool
	if err := f.SubmitTo(0, PassFunc(func(int, *Arena) { ran.Store(true) })); err != nil {
		t.Fatalf("SubmitTo after panic: %v", err)
	}
	f.Flush()
	if !ran.Load() {
		t.Error("shard dead after a carrier-less panic")
	}
}

// TestExecutorBarrierRepanics: a panic inside an executor task is parked
// and re-raised as a *PanicError at the next Barrier on the submitter's
// goroutine, and the executor stays usable afterwards.
func TestExecutorBarrierRepanics(t *testing.T) {
	ex := NewExecutor(2)
	defer ex.Close()

	var siblings atomic.Int32
	ex.Submit(func(int, *Arena) { panic("task exploded") })
	for i := 0; i < 4; i++ {
		ex.Submit(func(int, *Arena) { siblings.Add(1) })
	}

	var recovered *PanicError
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("Barrier did not re-panic")
			}
			var ok bool
			if recovered, ok = v.(*PanicError); !ok {
				t.Fatalf("Barrier re-panicked with %T, want *PanicError", v)
			}
		}()
		ex.Barrier()
	}()
	if !errors.Is(recovered, ErrPanicked) {
		t.Errorf("errors.Is(recovered, ErrPanicked) = false")
	}
	if len(recovered.Stack) == 0 {
		t.Error("re-raised PanicError has no stack")
	}
	if got := siblings.Load(); got != 4 {
		t.Errorf("%d of 4 sibling tasks ran alongside the panic", got)
	}

	// The executor still works after the poisoned step.
	var after atomic.Int32
	for i := 0; i < 6; i++ {
		ex.Submit(func(int, *Arena) { after.Add(1) })
	}
	ex.Barrier()
	if got := after.Load(); got != 6 {
		t.Errorf("after a re-panic, %d of 6 tasks ran", got)
	}
}

// TestBatchOnPanicIsolation: a panicking batch item yields a *PanicError at
// its own index while every sibling item still solves correctly.
func TestBatchOnPanicIsolation(t *testing.T) {
	f := NewFleet(2, 4)
	defer f.Close()

	items := []int{0, 1, 2, 3, 4, 5}
	res, err := batchOn(f, items, func(i int) (float64, error) {
		if i == 3 {
			panic("item 3 is poisoned")
		}
		return float64(i) * 2, nil
	})
	if err == nil {
		t.Fatal("batchOn returned nil error despite a panicking item")
	}
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("joined error %v does not carry a *PanicError", err)
	}
	if !errors.Is(err, ErrPanicked) {
		t.Error("errors.Is(err, ErrPanicked) = false")
	}
	for i, r := range res {
		want := float64(i) * 2
		if i == 3 {
			want = 0 // failed slot stays zero
		}
		if r != want {
			t.Errorf("res[%d] = %v, want %v", i, r, want)
		}
	}
}

// TestExecutorBarrierRepanicsRealPass: the panic containment composes with
// real array passes — siblings that multiply matrices still produce
// correct results in the poisoned step.
func TestExecutorBarrierRepanicsRealPass(t *testing.T) {
	ex := NewExecutor(2)
	defer ex.Close()

	rng := rand.New(rand.NewSource(61))
	a := matrix.RandomDense(rng, 6, 6, 3)
	b := matrix.RandomDense(rng, 6, 6, 3)
	want, err := NewMatMulSolver(3).Solve(a, b, MatMulOptions{})
	if err != nil {
		t.Fatal(err)
	}

	got := matrix.NewDense(6, 6)
	ex.Submit(func(_ int, ar *Arena) {
		if _, err := ar.MatMulPass(got, a, b, nil, 3, EngineCompiled); err != nil {
			t.Errorf("sibling pass failed: %v", err)
		}
	})
	ex.Submit(func(int, *Arena) { panic("mid-step failure") })

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Barrier did not re-panic")
			}
		}()
		ex.Barrier()
	}()
	if !reflect.DeepEqual(got, want.C) {
		t.Error("sibling pass result corrupted by a panicking neighbor")
	}
}
