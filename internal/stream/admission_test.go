package stream

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
)

// qosProblem returns a small matvec problem with its serial reference.
func qosProblem(t *testing.T) (MatVecProblem, matrix.Vector) {
	t.Helper()
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	p := MatVecProblem{A: a, X: matrix.Vector{1, 1}}
	return p, matrix.Vector{3, 7}
}

// passFunc adapts a plain function to core.Pass.
type passFunc func(worker int, ar *core.Arena)

func (f passFunc) RunPass(worker int, ar *core.Arena) { f(worker, ar) }

// occupyShard blocks shard 0 of s's fleet with a pass submitted straight
// to the fleet, so jobs routed there queue behind it. The returned release
// lets the pass finish and waits until it has.
func occupyShard(t *testing.T, s *Scheduler) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	running := make(chan struct{})
	finished := make(chan struct{})
	if err := s.fleet.SubmitTo(0, passFunc(func(int, *core.Arena) {
		close(running)
		<-gate
		close(finished)
	})); err != nil {
		t.Fatal(err)
	}
	<-running
	return func() {
		close(gate)
		<-finished
	}
}

// TestExpiryWhileQueued: a job admitted in time whose deadline passes while
// it sits behind a stalled shard is skipped — its ticket resolves to the
// typed expiry error, Stats.Expired counts it, and the workload never runs.
func TestExpiryWhileQueued(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	p, _ := qosProblem(t)

	// Occupy the only shard so the job queues behind the gate.
	release := occupyShard(t, s)

	deadline := time.Now().Add(10 * time.Millisecond)
	tk, err := s.SubmitMatVecQoS(2, p, QoS{Deadline: deadline})
	if err != nil {
		t.Fatalf("submit with live deadline should queue: %v", err)
	}
	// Hold the gate until the deadline is unambiguously in the past.
	for !time.Now().After(deadline) {
		time.Sleep(time.Millisecond)
	}
	release()

	res, err := tk.Wait()
	if res != nil {
		t.Error("expired job still produced a result")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired ticket error = %v, want ErrDeadlineExceeded", err)
	}
	var derr *DeadlineError
	if !errors.As(err, &derr) || !derr.Expired {
		t.Fatalf("expired ticket error = %#v, want &DeadlineError{Expired: true}", err)
	}
	st := s.Stats()
	if st.Expired != 1 {
		t.Errorf("Stats.Expired = %d, want 1", st.Expired)
	}
	if st.Submitted != 1 || st.Completed != 1 {
		t.Errorf("stats %+v: expired job must still complete exactly once", st)
	}
}

// TestPredictedWaitShedding: when every shard's predicted wait (queue depth
// × service-time EWMA) exceeds the deadline slack, admission sheds the job
// synchronously with the prediction attached — failing in nanoseconds
// instead of after the deadline has already passed.
func TestPredictedWaitShedding(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	p, want := qosProblem(t)

	// Teach admission that the only shard is slow (as the injector's
	// stalled-shard fault would, without the wall-clock cost).
	s.observe(0, 500*time.Millisecond)

	start := time.Now()
	_, err := s.SubmitMatVecQoS(2, p, QoS{Deadline: time.Now().Add(50 * time.Millisecond)})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("submit = %v, want ErrDeadlineExceeded", err)
	}
	var derr *DeadlineError
	if !errors.As(err, &derr) {
		t.Fatalf("submit error %#v is not a *DeadlineError", err)
	}
	if derr.Expired {
		t.Error("predicted-wait shed mislabeled as expiry")
	}
	if derr.PredictedWait < 100*time.Millisecond {
		t.Errorf("PredictedWait = %v, want the ~500ms EWMA prediction", derr.PredictedWait)
	}
	if elapsed > derr.PredictedWait {
		t.Errorf("shed took %v — longer than the %v wait it predicted", elapsed, derr.PredictedWait)
	}
	st := s.Stats()
	if st.Shed != 1 || st.ShedHigh != 1 {
		t.Errorf("stats %+v, want exactly one High shed", st)
	}

	// A job with enough slack — or none at all — is still admitted.
	tk, err := s.SubmitMatVecQoS(2, p, QoS{})
	if err != nil {
		t.Fatalf("deadline-free submit after a shed: %v", err)
	}
	if res, err := tk.Wait(); err != nil || !res.Y.Equal(want, 0) {
		t.Fatalf("post-shed job: %v %v", res, err)
	}
}

// TestDeadlineReroute: when the affinity shard cannot make the deadline
// but a sibling can, admission reroutes instead of shedding.
func TestDeadlineReroute(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Close()
	p, want := qosProblem(t)

	affinity := shardOf(2, matvecFull, 2, p.A.Rows(), p.A.Cols(), int(p.Opts.Engine))
	s.observe(affinity, time.Second) // the affinity shard is hopeless
	// The sibling has no history → optimistic zero prediction.

	tk, err := s.SubmitMatVecQoS(2, p, QoS{Deadline: time.Now().Add(5 * time.Second)})
	if err != nil {
		t.Fatalf("submit should reroute to the fast sibling, got %v", err)
	}
	if res, err := tk.Wait(); err != nil || !res.Y.Equal(want, 0) {
		t.Fatalf("rerouted job: %v %v", res, err)
	}
	if st := s.Stats(); st.Shed != 0 || st.Expired != 0 {
		t.Errorf("stats %+v, want no sheds or expiries after a reroute", st)
	}
}

// TestPriorityClasses: under Block, a Low job never blocks — it sheds at
// its first full queue and is counted in ShedLow — while a High job blocks
// until space frees and then completes.
func TestPriorityClasses(t *testing.T) {
	s := New(Config{Shards: 1, QueueBound: 1, Policy: Block})
	defer s.Close()
	p, want := qosProblem(t)

	release := occupyShard(t, s)
	// Fill the single queue slot.
	tk0, err := s.SubmitMatVecQoS(2, p, QoS{})
	if err != nil {
		t.Fatalf("queue-filling submit: %v", err)
	}

	// Low sheds immediately even under the Block policy.
	if _, err := s.SubmitMatVecQoS(2, p, QoS{Priority: Low}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Low submit into a full queue = %v, want ErrSaturated", err)
	}

	// High blocks; it must still be waiting until the gate opens.
	var highDone atomic.Bool
	highTk := make(chan MatVecTicket, 1)
	go func() {
		tk, err := s.SubmitMatVecQoS(2, p, QoS{})
		highDone.Store(true)
		if err != nil {
			t.Errorf("blocked High submit failed: %v", err)
		}
		highTk <- tk
	}()
	time.Sleep(20 * time.Millisecond)
	if highDone.Load() {
		t.Fatal("High submit returned while the queue was still full")
	}
	release()

	if res, err := tk0.Wait(); err != nil || !res.Y.Equal(want, 0) {
		t.Fatalf("queued job: %v %v", res, err)
	}
	if res, err := (<-highTk).Wait(); err != nil || !res.Y.Equal(want, 0) {
		t.Fatalf("unblocked High job: %v %v", res, err)
	}
	st := s.Stats()
	if st.ShedLow != 1 || st.ShedHigh != 0 {
		t.Errorf("stats %+v, want exactly one Low shed and no High sheds", st)
	}
	if st.Submitted != 2 || st.Completed != 2 {
		t.Errorf("stats %+v, want 2 submitted and completed", st)
	}
}

// TestStreamQoSZeroAllocSteadyState: deadline admission must not tax the
// steady state — a warm compiled Into job submitted with a live deadline
// still allocates nothing (the QoS rides in the pooled job; DeadlineError
// is only built on the failure paths).
func TestStreamQoSZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	s := New(Config{Shards: 2})
	defer s.Close()
	a := matrix.FromRows([][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16}})
	x := matrix.Vector{1, 2, 3, 4}
	dst := make(matrix.Vector, 4)
	roundTrip := func() {
		tk, err := s.SubmitMatVecIntoQoS(dst, a, x, nil, 2, core.EngineCompiled, QoS{Deadline: time.Now().Add(time.Hour)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the shard's plan memo and the job pool
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs != 0 {
		t.Errorf("steady-state QoS stream job allocates %v objects/op, want 0", allocs)
	}
}
