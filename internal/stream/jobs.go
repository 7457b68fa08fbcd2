package stream

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/sparse"
)

// jobKind discriminates the workloads a shard can run.
type jobKind uint8

const (
	matvecFull jobKind = iota
	matmulFull
	matvecPass
	sparseFull
	sparsePass
	solveFull
	solvePass
	sparseBatchPass
)

// job is one unit of stream work: inputs, the completion signal and the
// result slots, pooled so the steady state of a warmed stream submits
// without allocating. A job implements core.Pass and runs on the shard's
// goroutine with the shard's arena.
type job struct {
	s      *Scheduler
	kind   jobKind
	w      int
	eng    core.Engine
	pivot  solve.PivotPolicy
	refine solve.RefineOptions

	// Admission state: sequence number (injector determinism), QoS.
	seq      uint64
	deadline time.Time
	prio     Priority

	// Pass-style inputs (Into jobs; results land in caller-owned dst).
	dst  matrix.Vector
	a    *matrix.Dense
	x, b matrix.Vector

	// Sparse inputs (both variants; Into jobs reuse dst/x/b above).
	sp *sparse.MatVec

	// Sparse batch inputs (one job carries the whole batch, so the ticket,
	// admission decision and queue slot are per batch, not per vector).
	xs, bs, dsts []matrix.Vector

	// Full-result inputs.
	mvp MatVecProblem
	mmp MatMulProblem

	// Outputs.
	steps   int
	mvres   *core.MatVecResult
	mmres   *core.MatMulResult
	spres   *sparse.Result
	svx     matrix.Vector
	svstats solve.SolveStats
	err     error

	// done carries exactly one completion signal per submission; the
	// ticket's Wait consumes it, keeping the channel clean for reuse.
	done chan struct{}
}

// RunPass executes the job on the running shard's arena and signals the
// ticket. A job whose deadline already passed while it sat queued is
// skipped — its ticket resolves to the typed expiry error, its caller
// buffer stays untouched. Live jobs are timed and fold their service time
// into the executing shard's EWMA, which admission multiplies by queue
// depth to predict waits. Full matvec/matmul jobs go through the same
// core solvers a serial caller would use (global plan cache, fresh
// result); sparse full jobs resolve their pattern-keyed plan through the
// shard arena's memo (fresh result, plans identical to the serial ones);
// solve jobs run the full BlockLU pipeline on the running shard's warm
// arena-pooled workspace (the same pass decomposition as one-shot
// solve.Solve, so results and stats are bit-identical to it); pass jobs
// replay through the arena's memo and write into the caller's buffer,
// allocating nothing once the shard is warm on that shape or pattern.
func (j *job) RunPass(worker int, ar *core.Arena) {
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		j.err = &DeadlineError{Expired: true}
		j.s.expired.Add(1)
		j.s.completed.Add(1)
		j.done <- struct{}{}
		return
	}
	start := time.Now()
	if in := j.s.inject; in != nil {
		in.perturb(worker, j.seq)
	}
	switch j.kind {
	case matvecFull:
		j.mvres, j.err = core.NewMatVecSolver(j.w).Solve(j.mvp.A, j.mvp.X, j.mvp.B, j.mvp.Opts)
	case matmulFull:
		j.mmres, j.err = core.NewMatMulSolver(j.w).Solve(j.mmp.A, j.mmp.B, j.mmp.Opts)
	case matvecPass:
		j.steps, j.err = ar.MatVecPass(j.dst, j.a, j.x, j.b, j.w, j.eng)
	case sparseFull:
		j.spres, j.err = j.sp.SolveEngineOn(ar, j.x, j.b, j.eng)
	case sparsePass:
		j.steps, j.err = j.sp.PassInto(ar, j.dst, j.x, j.b, j.eng)
	case sparseBatchPass:
		j.steps, j.err = j.sp.PassManyInto(ar, j.dsts, j.xs, j.bs, j.eng)
	case solveFull, solvePass:
		x, stats, err := arenaSolveWorkspace(ar, j.w).Solve(j.a, j.b, solve.Options{Engine: j.eng, Pivot: j.pivot, Refine: j.refine})
		switch {
		case err != nil:
			j.err = err
		case j.kind == solveFull:
			// x and stats are workspace-owned; the full-result ticket hands
			// the caller fresh copies, like the other full-result kinds —
			// the pivot permutation included (it aliases the workspace the
			// next solve on this shard will scribble on).
			j.svx = append(matrix.Vector(nil), x...)
			j.svstats = *stats
			j.svstats.LU.Perm = append([]int(nil), stats.LU.Perm...)
		default:
			copy(j.dst, x)
			j.svstats = *stats
			// The zero-alloc pass path cannot hand out a copy of the
			// workspace-owned permutation and must not alias it (the pooled
			// workspace outlives the ticket); RowSwaps still reports the
			// pivoting work — use SubmitSolveOpts for the full permutation.
			j.svstats.LU.Perm = nil
		}
	}
	j.s.observe(worker, time.Since(start))
	j.s.completed.Add(1)
	j.done <- struct{}{}
}

// JobPanicked implements core.PanicCarrier: a panic the fleet recovered
// from this job resolves the ticket with the structured *core.PanicError
// (value + stack) and counts toward Stats.Panics. The shard that ran the
// job keeps serving — one poisoned job can never take it down.
func (j *job) JobPanicked(err *core.PanicError) {
	j.err = err
	j.s.panics.Add(1)
	j.s.completed.Add(1)
	j.done <- struct{}{}
}

// MatVecTicket is the one-shot future of a SubmitMatVecQoS job.
type MatVecTicket struct{ j *job }

// Wait blocks until the job finishes and returns its result — exactly what
// the serial core.MatVecSolver.Solve would return, statistics included.
// Each ticket must be redeemed at most once; the zero ticket (returned
// alongside a Submit error) must not be waited on.
func (t MatVecTicket) Wait() (*core.MatVecResult, error) {
	j := t.j
	<-j.done
	res, err := j.mvres, j.err
	j.s.release(j)
	return res, err
}

// MatMulTicket is the one-shot future of a SubmitMatMulQoS job.
type MatMulTicket struct{ j *job }

// Wait blocks until the job finishes and returns its result; see
// MatVecTicket.Wait for the redemption rules.
func (t MatMulTicket) Wait() (*core.MatMulResult, error) {
	j := t.j
	<-j.done
	res, err := j.mmres, j.err
	j.s.release(j)
	return res, err
}

// SparseTicket is the one-shot future of a SubmitSparseMatVecQoS job.
type SparseTicket struct{ j *job }

// Wait blocks until the job finishes and returns its result — exactly what
// the serial sparse.MatVec.SolveEngine would return, statistics included.
// See MatVecTicket.Wait for the redemption rules.
func (t SparseTicket) Wait() (*sparse.Result, error) {
	j := t.j
	<-j.done
	res, err := j.spres, j.err
	j.s.release(j)
	return res, err
}

// PassTicket is the one-shot future of an Into job: the result lands in
// the buffer the caller handed to Submit, Wait returns the measured step
// count.
type PassTicket struct{ j *job }

// Wait blocks until the job finishes and returns the pass's measured step
// count T; the caller's dst holds the result. See MatVecTicket.Wait for
// the redemption rules.
func (t PassTicket) Wait() (int, error) {
	j := t.j
	<-j.done
	steps, err := j.steps, j.err
	j.s.release(j)
	return steps, err
}

// checkArraySize rejects a non-positive array size at Submit, before the
// job takes a queue slot.
func checkArraySize(w int) error {
	if w < 1 {
		return fmt.Errorf("stream: invalid array size %d", w)
	}
	return nil
}

// MatVecProblem is one y = A·x + b job of SubmitMatVecQoS.
type MatVecProblem struct {
	A *matrix.Dense
	X matrix.Vector
	// B may be nil (zero).
	B matrix.Vector
	// Opts configure this problem's run (engine, variant, overlap…).
	Opts core.MatVecOptions
}

// MatMulProblem is one C = A·B [+ E] job of SubmitMatMulQoS.
type MatMulProblem struct {
	A, B *matrix.Dense
	// Opts configure this problem's run (E term, engine…).
	Opts core.MatMulOptions
}

// SubmitMatVecQoS enqueues one y = A·x + b problem for a w-PE linear array
// under q's deadline and priority class (see QoS; the zero QoS means no
// deadline, High priority) and returns its ticket. The problem's inputs
// must stay untouched until the ticket is redeemed.
func (s *Scheduler) SubmitMatVecQoS(w int, p MatVecProblem, q QoS) (MatVecTicket, error) {
	if err := checkArraySize(w); err != nil {
		return MatVecTicket{}, err
	}
	j := s.get(q)
	j.kind, j.w, j.mvp = matvecFull, w, p
	if err := s.enqueue(j, shardOf(s.fleet.Shards(), matvecFull, w, p.A.Rows(), p.A.Cols(), int(p.Opts.Engine))); err != nil {
		return MatVecTicket{}, err
	}
	return MatVecTicket{j}, nil
}

// SubmitMatMulQoS enqueues one C = A·B [+ E] problem for a w×w hexagonal
// array under q (see QoS) and returns its ticket. The problem's inputs
// must stay untouched until the ticket is redeemed.
func (s *Scheduler) SubmitMatMulQoS(w int, p MatMulProblem, q QoS) (MatMulTicket, error) {
	if err := checkArraySize(w); err != nil {
		return MatMulTicket{}, err
	}
	j := s.get(q)
	j.kind, j.w, j.mmp = matmulFull, w, p
	if err := s.enqueue(j, shardOf(s.fleet.Shards(), matmulFull, w, p.A.Rows(), p.B.Cols(), p.A.Cols())); err != nil {
		return MatMulTicket{}, err
	}
	return MatMulTicket{j}, nil
}

// SubmitSparseMatVecQoS enqueues one sparse y = A·x + b problem (paper §4,
// b may be nil) on the selected engine under q (see QoS) and returns its
// ticket. Jobs are routed by pattern affinity — same retained-block
// pattern, same shard — so a repeating sparsity pattern (a stencil, say)
// replays the shard's memoized plan. The transformation and inputs must
// stay untouched until the ticket is redeemed.
func (s *Scheduler) SubmitSparseMatVecQoS(t *sparse.MatVec, x, b matrix.Vector, eng core.Engine, q QoS) (SparseTicket, error) {
	j := s.get(q)
	j.kind, j.eng, j.sp = sparseFull, eng, t
	j.x, j.b = x, b
	k := t.Key()
	if err := s.enqueue(j, shardOf(s.fleet.Shards(), sparseFull, int(k.Digest), k.W, k.NBar, k.MBar)); err != nil {
		return SparseTicket{}, err
	}
	return SparseTicket{j}, nil
}

// SubmitSparseMatVecInto is SubmitSparseMatVecIntoQoS with the zero QoS.
func (s *Scheduler) SubmitSparseMatVecInto(dst matrix.Vector, t *sparse.MatVec, x, b matrix.Vector, eng core.Engine) (PassTicket, error) {
	return s.SubmitSparseMatVecIntoQoS(dst, t, x, b, eng, QoS{})
}

// SubmitSparseMatVecIntoQoS enqueues one sparse y = A·x + b pass (b may be
// nil) writing into dst (len = A.Rows(), which must not alias x or b) on
// the selected engine under q (see QoS) — the zero-allocation sparse
// stream path: once the pattern-affinity shard is warm on the pattern,
// submit and execution allocate nothing. The transformation, inputs and
// dst must stay untouched until the ticket is redeemed.
func (s *Scheduler) SubmitSparseMatVecIntoQoS(dst matrix.Vector, t *sparse.MatVec, x, b matrix.Vector, eng core.Engine, q QoS) (PassTicket, error) {
	if len(dst) != t.N {
		return PassTicket{}, fmt.Errorf("stream: dst len %d, want %d", len(dst), t.N)
	}
	j := s.get(q)
	j.kind, j.eng, j.sp = sparsePass, eng, t
	j.dst, j.x, j.b = dst, x, b
	k := t.Key()
	if err := s.enqueue(j, shardOf(s.fleet.Shards(), sparsePass, int(k.Digest), k.W, k.NBar, k.MBar)); err != nil {
		return PassTicket{}, err
	}
	return PassTicket{j}, nil
}

// SubmitSparseBatchInto is SubmitSparseBatchIntoQoS with the zero QoS.
func (s *Scheduler) SubmitSparseBatchInto(dsts []matrix.Vector, t *sparse.MatVec, xs, bs []matrix.Vector, eng core.Engine) (PassTicket, error) {
	return s.SubmitSparseBatchIntoQoS(dsts, t, xs, bs, eng, QoS{})
}

// SubmitSparseBatchIntoQoS enqueues k sparse passes dsts[v] = A·xs[v] +
// bs[v] sharing one transformation as a single batched job — one ticket,
// one queue slot, one admission decision for the whole batch. The shard
// replays the pattern-keyed plan once over all k vectors
// (sparse.MatVec.PassManyInto), amortizing padding and plan resolution
// across the batch; each dst is bit-identical to an independent
// SubmitSparseMatVecIntoQoS of that vector, and the ticket returns the
// per-pass step count — the zero-allocation batch path once the
// pattern-affinity shard is warm. bs may be nil (every b is zero) or hold
// nil entries; otherwise len(bs) must equal len(xs). Every dst must have
// length A.Rows() and must not alias any x or b. Routing follows the same
// pattern affinity as the single-vector sparse jobs. q's deadline covers
// the whole batch — a batch that expires queued resolves its one ticket
// with the typed expiry error and computes nothing. The transformation,
// inputs and dsts must stay untouched until the ticket is redeemed.
func (s *Scheduler) SubmitSparseBatchIntoQoS(dsts []matrix.Vector, t *sparse.MatVec, xs, bs []matrix.Vector, eng core.Engine, q QoS) (PassTicket, error) {
	if len(xs) == 0 {
		return PassTicket{}, fmt.Errorf("stream: empty sparse batch")
	}
	if len(dsts) != len(xs) {
		return PassTicket{}, fmt.Errorf("stream: batch has %d dst vectors but %d x vectors", len(dsts), len(xs))
	}
	if bs != nil && len(bs) != len(xs) {
		return PassTicket{}, fmt.Errorf("stream: batch has %d x vectors but %d b vectors", len(xs), len(bs))
	}
	for v := range dsts {
		if len(dsts[v]) != t.N {
			return PassTicket{}, fmt.Errorf("stream: batch dst %d len %d, want %d", v, len(dsts[v]), t.N)
		}
	}
	j := s.get(q)
	j.kind, j.eng, j.sp = sparseBatchPass, eng, t
	j.dsts, j.xs, j.bs = dsts, xs, bs
	k := t.Key()
	if err := s.enqueue(j, shardOf(s.fleet.Shards(), sparseBatchPass, int(k.Digest), k.W, k.NBar, k.MBar)); err != nil {
		return PassTicket{}, err
	}
	return PassTicket{j}, nil
}

// SubmitMatVecIntoQoS enqueues one y = A·x + b pass (b may be nil) writing
// into dst (len = A.Rows(), which must not alias x or b) on the selected
// engine under q (see QoS) — the zero-allocation stream path: once the
// affinity shard is warm on the shape, submit and execution allocate
// nothing, deadlines included (they ride in the pooled job). Inputs and
// dst must stay untouched until the ticket is redeemed.
func (s *Scheduler) SubmitMatVecIntoQoS(dst matrix.Vector, a *matrix.Dense, x, b matrix.Vector, w int, eng core.Engine, q QoS) (PassTicket, error) {
	if err := checkArraySize(w); err != nil {
		return PassTicket{}, err
	}
	if len(dst) != a.Rows() {
		return PassTicket{}, fmt.Errorf("stream: dst len %d, want %d", len(dst), a.Rows())
	}
	j := s.get(q)
	j.kind, j.w, j.eng = matvecPass, w, eng
	j.dst, j.a, j.x, j.b = dst, a, x, b
	if err := s.enqueue(j, shardOf(s.fleet.Shards(), matvecPass, w, a.Rows(), a.Cols(), int(eng))); err != nil {
		return PassTicket{}, err
	}
	return PassTicket{j}, nil
}
