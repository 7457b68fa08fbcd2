// Package stream is the sharded stream-scheduler runtime: a persistent
// fleet of simulated systolic arrays serving a continuous stream of matrix
// problems, the way the paper's fixed arrays serve one logical problem
// after another. It is the repository's only concurrent runtime: jobs run
// concurrently across the shards of one core.Fleet, and each job — a full
// direct solve included — runs serially on the shard that takes it.
//
// A Scheduler owns the fleet. Jobs are submitted asynchronously and routed
// by shape affinity: problems of the same shape hash to the same shard,
// whose private schedule.PlanMemo (inside its core.Arena) already holds the
// compiled plan, so the steady state of a repeating-shape stream replays
// plans without touching the global caches — and, on the Into job forms,
// without allocating at all. Sparse jobs extend the same idea to data: they
// route by pattern affinity (shape plus the retained-block pattern digest,
// sparse.PatternKey), so a repeating sparsity pattern replays its shard's
// memoized pattern-keyed plan. Solve jobs extend it to the paper's
// headline workload: a SubmitSolveOpts ticket runs the full direct solve
// (BlockLU plus both triangular phases) on a warm solve.Workspace the
// shard's arena pools per array size, so solve-as-a-service streams at the
// same warm steady state as the pass jobs. Idle shards steal from sibling
// queues, so affinity is a locality heuristic, never a load-balance
// hazard.
//
// Admission is controlled per scheduler: every shard queue is bounded, and
// a full queue either blocks the submitter (Block, the default) or fails
// fast with ErrSaturated so a load-shedding caller can drop or retry
// (Shed). Each job kind has one submit method per result form — a full
// result (SubmitMatVecQoS, SubmitMatMulQoS, SubmitSparseMatVecQoS,
// SubmitSolveOpts) or an Into form that writes a caller-owned buffer
// (SubmitMatVecIntoQoS, SubmitSparseMatVecIntoQoS,
// SubmitSparseBatchIntoQoS, SubmitSolveIntoOpts) — and every one takes a
// QoS whose zero value means no deadline, High priority. Results come back
// through typed one-shot tickets; Flush drains everything in flight and
// Close retires the fleet.
//
// Determinism: a job's result and statistics never depend on the shard that
// runs it, on stealing, or on the shard count — every job is solved by the
// same engine code paths as a serial core call, so a stream run is
// DeepEqual to solving the same problems one by one (the cross-runtime
// equivalence suite and cmd/soak's stream category enforce this).
package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/solve"
)

// Policy selects what Submit does when the routed shard queue is full.
type Policy int

const (
	// Block makes Submit wait for queue space — backpressure for callers
	// that must not lose work. Stealing keeps the wait bounded by queue
	// service time.
	Block Policy = iota
	// Shed makes Submit try every shard without blocking and return
	// ErrSaturated when all queues are full — load shedding for callers
	// with their own drop or retry policy.
	Shed
)

// String names the policy for logs and error messages.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Shed:
		return "shed"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ErrSaturated is returned by Submit under the Shed policy when every shard
// queue is full. The job was not enqueued; the caller owns the retry/drop
// decision.
var ErrSaturated = errors.New("stream: every shard queue is full")

// ErrClosed is returned by submissions after Close.
var ErrClosed = core.ErrClosed

// Config sizes a Scheduler. The zero value is ready to use: GOMAXPROCS
// shards, the default queue bound, blocking admission, no fault
// injection.
type Config struct {
	// Shards is the number of simulated arrays (values < 1 mean GOMAXPROCS).
	Shards int
	// QueueBound caps each shard's work queue (values < 1 mean
	// core.DefaultQueueBound).
	QueueBound int
	// Policy selects the admission behavior when a queue is full.
	Policy Policy
	// Injector, when non-nil, induces deterministic faults (forced sheds,
	// delays, panics, shard stalls) for chaos testing; nil — the default —
	// costs one pointer check per job. See Injector.
	Injector *Injector
}

// Scheduler is the persistent stream runtime; see the package comment for
// the model. Create one with New, submit with the Submit* methods, drain
// with Flush, retire with Close.
type Scheduler struct {
	fleet  *core.Fleet
	policy Policy
	inject *Injector
	jobs   sync.Pool
	closed atomic.Bool
	seq    atomic.Uint64  // job sequence numbers, for the injector
	ewma   []atomic.Int64 // per-shard service-time EWMA, nanoseconds

	submitted atomic.Uint64
	completed atomic.Uint64
	shed      [2]atomic.Uint64 // per-Priority rejections
	expired   atomic.Uint64
	panics    atomic.Uint64
}

// Stats is a point-in-time snapshot of a scheduler's admission and
// failure counters. The json tags fix the wire names operational
// surfaces (cmd/solved's /stats) serve.
type Stats struct {
	// Shards is the fleet size.
	Shards int `json:"shards"`
	// Submitted counts accepted jobs, Completed finished ones (normally,
	// by expiry, or by a recovered panic — every accepted job completes
	// exactly once); the difference is the in-flight depth.
	Submitted uint64 `json:"submitted"`
	// Completed counts finished jobs; see Submitted.
	Completed uint64 `json:"completed"`
	// Shed counts submissions rejected without being enqueued — queue
	// saturation (ErrSaturated, injected or real) and predicted-wait
	// deadline sheds (DeadlineError) — across both priorities.
	Shed uint64 `json:"shed"`
	// ShedHigh breaks Shed down to the High admission class.
	ShedHigh uint64 `json:"shed_high"`
	// ShedLow breaks Shed down to the Low admission class.
	ShedLow uint64 `json:"shed_low"`
	// Expired counts jobs whose deadline passed before they ran — at
	// admission or while queued — each resolved with the typed expiry
	// error, never a garbage result.
	Expired uint64 `json:"expired"`
	// Panics counts job panics recovered into per-job errors; every one
	// left its shard serving.
	Panics uint64 `json:"panics"`
}

// New starts a scheduler per cfg. Close it when done.
func New(cfg Config) *Scheduler {
	s := &Scheduler{
		fleet:  core.NewFleet(cfg.Shards, cfg.QueueBound),
		policy: cfg.Policy,
		inject: cfg.Injector,
	}
	s.ewma = make([]atomic.Int64, s.fleet.Shards())
	s.jobs.New = func() interface{} { return &job{s: s, done: make(chan struct{}, 1)} }
	return s
}

// Shards returns the number of simulated arrays.
func (s *Scheduler) Shards() int { return s.fleet.Shards() }

// QueueDepth returns the number of jobs currently queued on shard (not
// counting the one being served) — the load signal behind admission's
// predicted waits, exposed for operational surfaces like cmd/solved's
// /stats endpoint. Shards outside [0, Shards()) panic.
func (s *Scheduler) QueueDepth(shard int) int { return s.fleet.QueueLen(shard) }

// ServiceEWMA returns shard's service-time EWMA — the per-shard latency
// signal admission multiplies by queue depth to predict waits (zero until
// the shard serves its first job), exposed for operational surfaces like
// cmd/solved's /stats endpoint. Shards outside [0, Shards()) panic.
func (s *Scheduler) ServiceEWMA(shard int) time.Duration {
	return time.Duration(s.ewma[shard].Load())
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	high, low := s.shed[High].Load(), s.shed[Low].Load()
	return Stats{
		Shards:    s.fleet.Shards(),
		Submitted: s.submitted.Load(),
		Completed: s.completed.Load(),
		Shed:      high + low,
		ShedHigh:  high,
		ShedLow:   low,
		Expired:   s.expired.Load(),
		Panics:    s.panics.Load(),
	}
}

// Flush blocks until every accepted job has finished. Tickets stay
// redeemable afterwards (their Waits return immediately). Flush must not
// race with Submit calls from other goroutines.
func (s *Scheduler) Flush() { s.fleet.Flush() }

// Close flushes the stream and stops the fleet. Submissions after Close
// return ErrClosed; unredeemed tickets from before Close stay redeemable.
// Close is idempotent.
func (s *Scheduler) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.fleet.Close()
}

// get draws a recycled job, stamps its sequence number and attaches its
// QoS.
func (s *Scheduler) get(q QoS) *job {
	j := s.jobs.Get().(*job)
	j.seq = s.seq.Add(1)
	j.deadline, j.prio = q.Deadline, q.Priority
	return j
}

// release scrubs a redeemed job and recycles it. Only Wait releases jobs —
// a never-redeemed ticket's job is dropped to the garbage collector rather
// than recycled with a stale completion signal.
func (s *Scheduler) release(j *job) {
	j.dst, j.a, j.x, j.b = nil, nil, nil, nil
	j.sp = nil
	j.xs, j.bs, j.dsts = nil, nil, nil
	j.mvp, j.mmp = MatVecProblem{}, MatMulProblem{}
	j.mvres, j.mmres, j.spres = nil, nil, nil
	j.svx, j.svstats = nil, solve.SolveStats{}
	j.pivot, j.refine = solve.PivotNone, solve.RefineOptions{}
	j.steps, j.err = 0, nil
	j.deadline, j.prio, j.seq = time.Time{}, High, 0
	s.jobs.Put(j)
}

// enqueue routes one job to its affinity shard under the scheduler's
// admission policy and the job's QoS, reclaiming the job on every
// failure path. Admission order: injected faults, deadline feasibility
// (predicted wait vs. remaining slack, with deadline-aware rerouting to
// the fastest shard when the affinity shard cannot make it), then the
// policy/priority queue-space rules.
func (s *Scheduler) enqueue(j *job, shard int) error {
	if s.closed.Load() {
		s.release(j)
		return ErrClosed
	}
	if s.inject != nil {
		if err := s.inject.admission(j.seq); err != nil {
			s.shed[j.prio].Add(1)
			s.release(j)
			return err
		}
	}
	if !j.deadline.IsZero() {
		slack := time.Until(j.deadline)
		if slack <= 0 {
			s.expired.Add(1)
			s.release(j)
			return &DeadlineError{Expired: true}
		}
		if wait := s.predictedWait(shard); wait > slack {
			// The affinity shard cannot make the deadline; take the
			// fastest sibling if one can, otherwise shed now with the
			// best prediction — failing in nanoseconds, not after the
			// deadline has already passed.
			best, bestShard := wait, shard
			for d := 1; d < s.fleet.Shards(); d++ {
				c := (shard + d) % s.fleet.Shards()
				if wc := s.predictedWait(c); wc < best {
					best, bestShard = wc, c
				}
			}
			if best > slack {
				s.shed[j.prio].Add(1)
				s.release(j)
				return &DeadlineError{PredictedWait: best}
			}
			shard = bestShard
		}
	}
	if s.policy == Block && j.prio == High {
		if err := s.fleet.SubmitTo(shard, j); err != nil {
			s.release(j)
			return err
		}
		s.submitted.Add(1)
		return nil
	}
	// Shed policy, or a Low job under either policy: never block. High
	// scans every sibling; Low sheds at the first full queue.
	span := s.fleet.Shards()
	if j.prio == Low {
		span = 1
	}
	for d := 0; d < span; d++ {
		ok, err := s.fleet.TrySubmitTo((shard+d)%s.fleet.Shards(), j)
		if err != nil {
			s.release(j)
			return err
		}
		if ok {
			s.submitted.Add(1)
			return nil
		}
	}
	s.shed[j.prio].Add(1)
	s.release(j)
	return ErrSaturated
}

// shardOf hashes a job's shape key onto a shard: same shape, same shard,
// so the shard's plan memo already holds the compiled plan.
func shardOf(shards int, kind jobKind, d0, d1, d2, d3 int) int {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range [5]int{int(kind), d0, d1, d2, d3} {
		h ^= uint64(v) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	}
	return int(h % uint64(shards))
}
