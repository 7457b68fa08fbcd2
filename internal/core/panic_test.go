package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// PassFunc adapts a plain function to the Pass interface.
type PassFunc func(worker int, ar *Arena)

// RunPass calls the function.
func (f PassFunc) RunPass(worker int, ar *Arena) { f(worker, ar) }

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
// *PanicError delivered to the PanicCarrier, and the shard keeps serving subsequent passes.
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
// recovered (the shard survives) — the panic is
// contained even when nobody is listening.
func TestFleetPanicWithoutCarrier(t *testing.T) {
	f := NewFleet(1, 4)
	defer f.Close()
	if err := f.SubmitTo(0, PassFunc(func(int, *Arena) { panic("nobody listening") })); err != nil {
		t.Fatalf("SubmitTo: %v", err)
	}
	f.Flush()
	var ran atomic.Bool
	if err := f.SubmitTo(0, PassFunc(func(int, *Arena) { ran.Store(true) })); err != nil {
		t.Fatalf("SubmitTo after panic: %v", err)
	}
	f.Flush()
	if !ran.Load() {
		t.Error("shard dead after a carrier-less panic")
	}
}
