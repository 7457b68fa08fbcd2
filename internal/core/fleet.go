package core

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Fleet is the single worker pool of the repository: a persistent set of
// simulated-array shards, each a goroutine with a bounded work queue and a
// private scratch Arena. The stream scheduler (internal/stream) owns one
// and routes whole problems onto it by shape affinity; every solve runs
// serially on the shard that takes it, the way the paper's one array runs
// a problem of any size as a sequence of fixed-size passes.
//
// Scheduling: SubmitTo enqueues a pass on a specific shard (the routing
// policy — affinity, round-robin — belongs to the caller). A shard drains
// its own queue first and steals from sibling queues when idle, so a poorly
// routed or bursty queue never strands work while other shards sit idle.
// Stolen passes run on the stealing shard's arena; every pass is
// arena-agnostic by the Arena ownership contract, so stealing affects only
// locality, never results.
//
// Determinism: the fleet gives no ordering guarantee between passes, so a
// pass's result must depend only on its own inputs, never on the shard
// that runs it or on what ran before it.
type Fleet struct {
	queues []chan Pass
	wake   chan struct{}
	done   sync.WaitGroup // shard goroutines, for Close
	tasks  sync.WaitGroup // in-flight passes, for Flush
	closed atomic.Bool
}

// Pass is one unit of fleet work: it runs on some shard's goroutine with
// that shard's private arena (reset just before the run).
type Pass interface {
	RunPass(worker int, ar *Arena)
}

// ErrClosed is returned by submissions to a fleet (or a scheduler built on
// one) after Close.
var ErrClosed = errors.New("core: runtime is closed")

// ErrPanicked is the sentinel matched by errors.Is for any job panic a
// fleet shard recovered; the concrete error is always a *PanicError.
var ErrPanicked = errors.New("core: job panicked")

// PanicError is the structured error a recovered job panic resolves to:
// the value passed to panic plus the panicking goroutine's stack captured
// at recovery. A shard that recovers a panic keeps serving — one poisoned
// job can never take a worker down — and the panic travels to whoever
// waits on the job (a stream ticket) instead of crashing the process.
// errors.Is matches ErrPanicked; errors.As extracts the value and stack.
type PanicError struct {
	// Value is the value the job passed to panic (or the runtime error
	// that raised it).
	Value interface{}
	// Stack is the panicking goroutine's stack at the recovery point.
	Stack []byte
}

// Error formats the recovered panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("core: job panicked: %v", e.Value) }

// Unwrap lets errors.Is(err, ErrPanicked) match every recovered panic.
func (e *PanicError) Unwrap() error { return ErrPanicked }

// PanicCarrier is implemented by passes that can absorb a panic raised
// while they ran: the fleet recovers the panic, wraps it in a PanicError
// and hands it to the pass, which must resolve its own completion signal
// (ticket, barrier slot) with the structured error — and must not panic
// itself. Passes that do not implement it still cannot kill a shard; the
// fleet recovers the panic and drops it.
type PanicCarrier interface {
	Pass
	// JobPanicked is called on the shard goroutine, after the pass's
	// stack has unwound, with the recovered panic.
	JobPanicked(*PanicError)
}

// DefaultQueueBound is the per-shard queue capacity when a caller does not
// set one.
const DefaultQueueBound = 64

// NewFleet starts a fleet of the given number of shards (values < 1 mean
// GOMAXPROCS), each with a work queue bounded to queueBound passes (values
// < 1 mean DefaultQueueBound). Close it when done.
func NewFleet(shards, queueBound int) *Fleet {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	if queueBound < 1 {
		queueBound = DefaultQueueBound
	}
	f := &Fleet{
		queues: make([]chan Pass, shards),
		wake:   make(chan struct{}, shards),
	}
	// Populate every queue before the first worker starts: the steal loop
	// reads sibling queue slots.
	for i := range f.queues {
		f.queues[i] = make(chan Pass, queueBound)
	}
	for i := range f.queues {
		f.done.Add(1)
		go f.worker(i)
	}
	return f
}

// Shards returns the number of shards.
func (f *Fleet) Shards() int { return len(f.queues) }

// QueueLen reports how many passes sit queued (not yet started) on a
// shard — the depth latency-aware admission multiplies by the shard's
// measured service time to predict queueing delay.
func (f *Fleet) QueueLen(shard int) int { return len(f.queues[shard]) }

// SubmitTo enqueues one pass on the given shard, blocking while that
// shard's queue is full (the shard itself — or a stealing sibling — always
// drains it, so the wait is bounded by queue service time). It returns
// ErrClosed after Close. Submissions must not race with Flush or Close on
// the same fleet.
func (f *Fleet) SubmitTo(shard int, p Pass) error {
	if f.closed.Load() {
		return ErrClosed
	}
	f.tasks.Add(1)
	f.queues[shard] <- p
	f.signal()
	return nil
}

// TrySubmitTo is SubmitTo without blocking: it reports false when the
// shard's queue is full, leaving the pass unqueued. Admission policies
// (internal/stream's load shedding) are built on it.
func (f *Fleet) TrySubmitTo(shard int, p Pass) (bool, error) {
	if f.closed.Load() {
		return false, ErrClosed
	}
	f.tasks.Add(1)
	select {
	case f.queues[shard] <- p:
		f.signal()
		return true, nil
	default:
		f.tasks.Done()
		return false, nil
	}
}

// signal nudges one idle shard to run a steal pass. Best-effort: when the
// buffer is full enough wakeups are already pending, and every shard drains
// its own queue regardless.
func (f *Fleet) signal() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// Flush blocks until every pass submitted so far has finished. The caller
// must ensure no concurrent submissions are in flight.
func (f *Fleet) Flush() { f.tasks.Wait() }

// Close flushes, stops the shards and releases them. The fleet must not be
// used afterwards; Close is idempotent.
func (f *Fleet) Close() {
	if f.closed.Swap(true) {
		return
	}
	f.tasks.Wait()
	for _, q := range f.queues {
		close(q)
	}
	f.done.Wait()
}

// worker is one shard: drain the own queue, steal when idle, sleep on the
// own queue and the wake signal otherwise.
func (f *Fleet) worker(i int) {
	defer f.done.Done()
	ar := NewArena()
	own := f.queues[i]
	for {
		select {
		case p, ok := <-own:
			if !ok {
				return
			}
			f.run(p, i, ar)
			continue
		default:
		}
		if f.steal(i, ar) {
			continue
		}
		select {
		case p, ok := <-own:
			if !ok {
				return
			}
			f.run(p, i, ar)
		case <-f.wake:
			// Re-scan: the steal pass at the top of the loop finds the
			// queued work (or a sibling already took it).
		}
	}
}

// steal runs one pass from a sibling queue if any is ready.
func (f *Fleet) steal(self int, ar *Arena) bool {
	for d := 1; d < len(f.queues); d++ {
		select {
		case p, ok := <-f.queues[(self+d)%len(f.queues)]:
			if !ok {
				continue
			}
			f.run(p, self, ar)
			return true
		default:
		}
	}
	return false
}

// run executes one pass on this shard's arena and retires it. A panic
// raised by the pass is recovered here — the shard goroutine survives and
// keeps draining its queue — and handed to the pass when it is a
// PanicCarrier so the waiter sees a structured *PanicError instead of a
// dead runtime.
func (f *Fleet) run(p Pass, worker int, ar *Arena) {
	defer func() {
		if v := recover(); v != nil {
			if c, ok := p.(PanicCarrier); ok {
				c.JobPanicked(&PanicError{Value: v, Stack: debug.Stack()})
			}
		}
		f.tasks.Done()
	}()
	ar.Reset()
	p.RunPass(worker, ar)
}

// PassWorkerLadder returns the ascending, deduplicated shard counts
// {1, 2, numCPU} the stream shard ladders (sweep E15, benchjson's stream
// rows) measure. It keeps the 2-shard rung even on a single-core host,
// where the oversubscribed row measures queue overhead. The 1- and 2-shard
// rungs have host-independent bench-row names; benchjson labels the top
// rung "shards=max" so cmd/benchdiff can match rows across hosts with
// different core counts.
func PassWorkerLadder(numCPU int) []int {
	counts := []int{1, 2}
	if numCPU > 2 {
		counts = append(counts, numCPU)
	}
	return counts
}
