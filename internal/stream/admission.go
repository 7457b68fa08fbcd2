package stream

import (
	"errors"
	"fmt"
	"time"
)

// Priority is a job's admission class. The zero value is High, so a
// zero QoS keeps the blocking semantics of the Block policy.
type Priority uint8

const (
	// High jobs may block for queue space under the Block policy and scan
	// every sibling shard before shedding under Shed — the class for work
	// that must not be lost.
	High Priority = iota
	// Low jobs shed first: they never block, and admission tries only
	// their affinity shard before failing fast with ErrSaturated — the
	// class for best-effort work a loaded scheduler drops before it
	// touches High traffic.
	Low
)

// String names the priority for logs and error messages.
func (p Priority) String() string {
	switch p {
	case High:
		return "high"
	case Low:
		return "low"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// QoS attaches latency requirements to a submission. The zero value means
// no deadline and High priority.
type QoS struct {
	// Deadline is the job's absolute completion deadline; the zero Time
	// means none. Admission sheds the job up front — a *DeadlineError
	// carrying the predicted wait, matched by errors.Is against
	// ErrDeadlineExceeded — when every shard's predicted queueing delay
	// (queue depth × service-time EWMA) already exceeds the remaining
	// slack; and a job whose deadline passes while it sits queued is
	// skipped by the shard, its ticket resolved with the expiry error.
	// Either way the caller gets a fast typed failure, never a stale or
	// garbage result.
	Deadline time.Time
	// Priority selects the admission class (default High).
	Priority Priority
}

// ErrDeadlineExceeded is the sentinel matched by errors.Is for every
// deadline failure: jobs shed at admission because the predicted wait
// exceeded their slack, jobs that expired while queued, and retries that
// ran out of deadline. The concrete error is a *DeadlineError (or wraps
// one).
var ErrDeadlineExceeded = errors.New("stream: job deadline exceeded")

// DeadlineError is the typed deadline failure; errors.As extracts it,
// errors.Is matches ErrDeadlineExceeded. The job's workload never ran and
// no caller buffer was touched.
type DeadlineError struct {
	// PredictedWait, when nonzero, is the smallest queueing delay
	// admission predicted across the shards — the job was shed up front
	// because even that exceeded the deadline slack.
	PredictedWait time.Duration
	// Expired reports that the deadline itself passed: either before
	// admission or while the job sat queued (the shard skips expired jobs
	// instead of computing a result nobody can use).
	Expired bool
}

// Error formats the failure.
func (e *DeadlineError) Error() string {
	if e.Expired {
		return "stream: job expired past its deadline before running"
	}
	return fmt.Sprintf("stream: predicted wait %v exceeds the job's deadline slack", e.PredictedWait)
}

// Unwrap lets errors.Is(err, ErrDeadlineExceeded) match.
func (e *DeadlineError) Unwrap() error { return ErrDeadlineExceeded }

// observe folds one measured service time into the executing shard's
// EWMA (α = 1/8). Stolen jobs charge the shard that ran them, so a
// stalled shard's average rises even while siblings drain its queue.
func (s *Scheduler) observe(shard int, d time.Duration) {
	if d <= 0 {
		d = 1
	}
	e := &s.ewma[shard]
	for {
		old := e.Load()
		nw := int64(d)
		if old > 0 {
			nw = old + (int64(d)-old)/8
			if nw <= 0 {
				nw = 1
			}
		}
		if e.CompareAndSwap(old, nw) {
			return
		}
	}
}

// predictedWait estimates how long a job routed to shard would take to
// come back: the passes already queued there plus the job itself, each at
// the shard's service-time EWMA. Optimistically zero until the shard has
// served its first job; deliberately ignores stealing, so it is an upper
// bound on a loaded fleet.
func (s *Scheduler) predictedWait(shard int) time.Duration {
	return time.Duration(int64(s.fleet.QueueLen(shard)+1) * s.ewma[shard].Load())
}
