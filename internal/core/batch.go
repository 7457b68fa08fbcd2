package core

import (
	"runtime"

	"repro/internal/matrix"
)

// The batch API runs many independent problems across a worker fleet. Every
// simulated array is a fixed piece of hardware serving one problem stream,
// but a production service simulates *fleets* of them: the batch dispatches
// each problem to a shard (one simulated array each), sized to
// GOMAXPROCS by default. Combined with the shape-keyed schedule cache —
// workloads repeat shapes, so workers share compiled schedules — batch
// throughput scales near-linearly with cores. SolveBatch is the one-shot
// compatibility surface; a continuous problem stream belongs on the
// persistent stream scheduler (internal/stream), which owns the same Fleet
// substrate these adapters run on.

// MatVecProblem is one independent y = A·x + b problem of a batch.
type MatVecProblem struct {
	A *matrix.Dense
	X matrix.Vector
	// B may be nil (zero).
	B matrix.Vector
	// Opts configure this problem's run (engine, variant, overlap…).
	Opts MatVecOptions
}

// MatMulProblem is one independent C = A·B [+ E] problem of a batch.
type MatMulProblem struct {
	A, B *matrix.Dense
	// Opts configure this problem's run (E term, engine…).
	Opts MatMulOptions
}

// SolveBatch solves every problem concurrently on a worker fleet sized to
// GOMAXPROCS and returns results aligned with the input slice. On error the
// failing entries are nil and a joined error covering every failing index
// is returned alongside the successful results.
func (s *MatVecSolver) SolveBatch(problems []MatVecProblem) ([]*MatVecResult, error) {
	return s.SolveBatchWorkers(problems, runtime.GOMAXPROCS(0))
}

// SolveBatchWorkers is SolveBatch with an explicit worker count (values < 1
// mean one worker). Useful for throughput scaling measurements.
func (s *MatVecSolver) SolveBatchWorkers(problems []MatVecProblem, workers int) ([]*MatVecResult, error) {
	return Batch(problems, workers, func(p MatVecProblem) (*MatVecResult, error) {
		return s.Solve(p.A, p.X, p.B, p.Opts)
	})
}

// SolveBatch solves every problem concurrently on a worker fleet sized to
// GOMAXPROCS and returns results aligned with the input slice. On error the
// failing entries are nil and a joined error covering every failing index
// is returned alongside the successful results.
func (s *MatMulSolver) SolveBatch(problems []MatMulProblem) ([]*MatMulResult, error) {
	return s.SolveBatchWorkers(problems, runtime.GOMAXPROCS(0))
}

// SolveBatchWorkers is SolveBatch with an explicit worker count (values < 1
// mean one worker).
func (s *MatMulSolver) SolveBatchWorkers(problems []MatMulProblem, workers int) ([]*MatMulResult, error) {
	return Batch(problems, workers, func(p MatMulProblem) (*MatMulResult, error) {
		return s.Solve(p.A, p.B, p.Opts)
	})
}

// WorkerLadder returns the ascending, deduplicated worker counts
// {1, 2, 4, max} capped at max — the ladder the throughput harnesses
// (sweep E12, BenchmarkSolveBatch) measure scaling over.
func WorkerLadder(max int) []int {
	var counts []int
	for _, workers := range []int{1, 2, 4, max} {
		if workers <= max && (len(counts) == 0 || workers > counts[len(counts)-1]) {
			counts = append(counts, workers)
		}
	}
	return counts
}

// PassWorkerLadder returns the ascending, deduplicated worker counts
// {1, 2, numCPU} — the array counts the intra-solve parallel harnesses
// (BenchmarkIntraSolveParallel, sweep E14, benchjson's *-par rows) measure.
// Unlike WorkerLadder it keeps the 2-worker rung even on a single-core
// host: the oversubscribed row measures executor queue overhead. The 1-
// and 2-worker rungs have host-independent bench-row names; benchjson
// labels the top rung "workers=max" so cmd/benchdiff can match rows
// across hosts with different core counts.
func PassWorkerLadder(numCPU int) []int {
	counts := []int{1, 2}
	if numCPU > 2 {
		counts = append(counts, numCPU)
	}
	return counts
}

// Batch fans items across a transient Fleet, one pass per item, and waits
// for all of them — a one-shot compatibility adapter over the same sharded
// runtime that backs the stream scheduler and the pass executor (there is
// no second pool implementation). Results come back aligned with items; on
// error the failing entries are zero and a single joined error covering
// EVERY failing index (each annotated "batch problem i") is returned
// alongside the successful results.
func Batch[P, R any](items []P, workers int, solve func(P) (R, error)) ([]R, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(items) {
		workers = len(items)
	}
	// Round-robin routing puts at most ceil(len/workers) items on a shard,
	// so bounding each queue to that never blocks a submission.
	f := NewFleet(workers, (len(items)+workers-1)/workers)
	defer f.Close()
	return batchOn(f, items, solve)
}
