// Package repro reproduces Navarro, Llabería & Valero, "Computing
// Size-Independent Matrix Problems on Systolic Array Processors"
// (ISCA 1986): the DBT dense-to-band transformations that let fixed-size
// contraflow systolic arrays (Kung's linear matrix–vector array and
// hexagonal matrix–matrix array) compute dense problems of any size at
// maximum efficiency, with all partial results fed back inside the array.
//
// The library lives under internal/: matrix and blockpart are the algebra
// substrate, dbt holds the transformations, linear and hex are
// cycle-accurate structural array simulators (the verification oracle),
// schedule the compiled-schedule fast engine (cached event plans executed
// in O(MACs), bit-identical to the oracle — shape-keyed for the dense
// workloads, pattern-keyed for the §4 sparse matvec), analysis the paper's
// closed forms, baseline/sparse/solve the comparison points and §4
// extensions, core the public solver facade with engine selection, and
// stream the sharded stream-scheduler runtime that keeps a persistent
// fleet of simulated arrays busy across a continuous problem stream
// (NewStream below is its entry point), routing jobs by shape — and, for
// sparse jobs, sparsity-pattern — affinity. See
// DESIGN.md for the system inventory and two-engine architecture and
// EXPERIMENTS.md for paper-vs-measured results; the benchmarks in
// bench_test.go regenerate every experiment's headline metrics.
package repro

import "repro/internal/stream"

// Stream is the sharded stream-scheduler runtime: a persistent fleet of
// simulated systolic arrays serving an asynchronous problem stream, with
// shape-affinity routing, work stealing and bounded admission. See
// internal/stream for the full model.
type Stream = stream.Scheduler

// StreamConfig sizes a Stream; the zero value means GOMAXPROCS shards,
// the default queue bound and blocking admission.
type StreamConfig = stream.Config

// StreamPolicy selects what a saturated Stream does on Submit:
// StreamBlock applies backpressure, StreamShed fails fast with
// stream.ErrSaturated.
type StreamPolicy = stream.Policy

// StreamBlock and StreamShed are the admission policies of a Stream.
const (
	StreamBlock StreamPolicy = stream.Block
	StreamShed  StreamPolicy = stream.Shed
)

// StreamStats is a point-in-time snapshot of a Stream's admission and
// failure counters: submitted/completed depth, per-priority sheds,
// deadline expiries and recovered panics.
type StreamStats = stream.Stats

// StreamQoS attaches a completion deadline and a priority class to a
// Stream submission; the zero value means no deadline, High priority.
type StreamQoS = stream.QoS

// StreamInjector induces deterministic, seed-keyed faults (forced sheds,
// delays, panics, a stalled shard) in a Stream for chaos testing; attach
// one through StreamConfig.Injector.
type StreamInjector = stream.Injector

// StreamSolveTicket is the one-shot future of a Stream.SubmitSolveOpts job:
// Wait returns a caller-owned solution vector and stats, exactly what the
// serial one-shot solve.Solve would return.
type StreamSolveTicket = stream.SolveTicket

// StreamSolvePassTicket is the one-shot future of a
// Stream.SubmitSolveIntoOpts job: the solution lands in the caller's
// buffer and Wait returns the stats by value — the zero-allocation
// solve-as-a-service path.
type StreamSolvePassTicket = stream.SolvePassTicket

// NewStream starts a stream scheduler; Close it when done. Typical use:
//
//	s := repro.NewStream(repro.StreamConfig{Shards: 4})
//	defer s.Close()
//	t, err := s.SubmitMatVecQoS(8, stream.MatVecProblem{A: a, X: x}, repro.StreamQoS{})
//	...
//	res, err := t.Wait()
func NewStream(cfg StreamConfig) *Stream { return stream.New(cfg) }
