package stream

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
)

// Solve-as-a-service: the paper's headline workload — the full direct
// solve, BlockLU plus both triangular phases — streamed through the same
// sharded runtime as the matvec/matmul/sparse tickets. Each shard's arena
// keeps one warm solve.Workspace per array size (built on first use via
// solve.NewWorkspaceArena, cached with core.Arena.Keep), so a repeating
// stream of solves reuses the shard's compiled plans and, on the Into
// variant, allocates nothing once warm. Solve jobs participate in EWMA
// admission, priority classes, expiry-while-queued and panic isolation
// exactly like the matvec, matmul and sparse jobs.

// solveKeepBase partitions core.Arena's Keep key space for the stream's
// solve workspaces: workspace for array size w lives under key
// w<<8 | solveKeepBase. Nothing else in the repository keys that space.
const solveKeepBase uint64 = 0x50

// arenaSolveWorkspace returns the running shard's warm solve workspace for
// array size w, building one on the shard's arena the first time the shard
// sees that size. The workspace shares the arena's PlanMemo with the
// shard's pass jobs and survives arena Resets, so every later solve of the
// same size on this shard is plan-warm. The hit path is one map lookup and
// one type assertion — no allocation.
func arenaSolveWorkspace(ar *core.Arena, w int) *solve.Workspace {
	key := uint64(w)<<8 | solveKeepBase
	if ws, ok := ar.Kept(key).(*solve.Workspace); ok {
		return ws
	}
	ws := solve.NewWorkspaceArena(w, ar)
	ar.Keep(key, ws)
	return ws
}

// validateSolveOpts checks a solve submission's shapes and the option
// combinations the stream cannot honor synchronously, so a malformed
// request fails at Submit instead of poisoning a ticket.
func validateSolveOpts(a *matrix.Dense, d matrix.Vector, w int, opts solve.Options) error {
	if err := checkArraySize(w); err != nil {
		return err
	}
	n := a.Rows()
	if a.Cols() != n {
		return fmt.Errorf("stream: solve needs a square matrix, got %d×%d", n, a.Cols())
	}
	if len(d) != n {
		return fmt.Errorf("stream: len(d)=%d, want %d", len(d), n)
	}
	if opts.Pivot != solve.PivotNone && opts.Pivot != solve.PivotPartial {
		return fmt.Errorf("stream: unknown pivot policy %d", int(opts.Pivot))
	}
	if opts.Refine.MaxIters < 0 {
		return fmt.Errorf("stream: negative refinement budget %d", opts.Refine.MaxIters)
	}
	return nil
}

// SolveTicket is the one-shot future of a SubmitSolveOpts job.
type SolveTicket struct{ j *job }

// Wait blocks until the solve finishes and returns the solution and stats —
// exactly what the serial one-shot solve.Solve would return, residual
// included. The returned vector and stats are fresh copies owned by the
// caller. See MatVecTicket.Wait for the redemption rules.
func (t SolveTicket) Wait() (matrix.Vector, *solve.SolveStats, error) {
	j := t.j
	<-j.done
	x, stats, err := j.svx, j.svstats, j.err
	j.s.release(j)
	if err != nil {
		return nil, nil, err
	}
	return x, &stats, nil
}

// SolvePassTicket is the one-shot future of a SubmitSolveIntoOpts job: the
// solution lands in the buffer the caller handed to Submit, Wait returns
// the stats by value — nothing on this path allocates once the shard is
// warm on the shape.
type SolvePassTicket struct{ j *job }

// Wait blocks until the solve finishes and returns its stats; the caller's
// dst holds the solution. On error dst is untouched. See MatVecTicket.Wait
// for the redemption rules.
func (t SolvePassTicket) Wait() (solve.SolveStats, error) {
	j := t.j
	<-j.done
	stats, err := j.svstats, j.err
	j.s.release(j)
	return stats, err
}

// SubmitSolveOpts enqueues one full direct solve A·x = d (BlockLU plus
// both triangular phases, paper §4's complete pipeline) for array size w
// under the full solver options — engine, pivot policy, iterative
// refinement: the stream face of solve.Options — and q's deadline and
// priority class (see QoS), and returns its ticket. Solves route by shape
// affinity — same (n, w, engine), same shard — so a repeating stream of
// solves replays the shard workspace's compiled plans; pivoted and refined
// solves route, pool and admit exactly like plain ones (the options ride
// in the pooled job). Without pivoting A must have nonsingular leading
// minors; a zero pivot resolves the ticket with an errors.As-matchable
// *solve.SingularError carrying the pivot index, and the shard keeps
// serving. A refinement that fails to converge resolves the ticket with
// the typed *solve.IllConditionedError carrying its ConditionReport, never
// an unconverged solution. Inputs must stay untouched until the ticket is
// redeemed.
func (s *Scheduler) SubmitSolveOpts(a *matrix.Dense, d matrix.Vector, w int, opts solve.Options, q QoS) (SolveTicket, error) {
	if err := validateSolveOpts(a, d, w, opts); err != nil {
		return SolveTicket{}, err
	}
	j := s.get(q)
	j.kind, j.w, j.eng = solveFull, w, opts.Engine
	j.pivot, j.refine = opts.Pivot, opts.Refine
	j.a, j.b = a, d
	if err := s.enqueue(j, shardOf(s.fleet.Shards(), solveFull, w, a.Rows(), a.Cols(), int(opts.Engine))); err != nil {
		return SolveTicket{}, err
	}
	return SolveTicket{j}, nil
}

// SubmitSolveIntoQoS is SubmitSolveIntoOpts with solve.Options{Engine: eng}.
func (s *Scheduler) SubmitSolveIntoQoS(dst matrix.Vector, a *matrix.Dense, d matrix.Vector, w int, eng core.Engine, q QoS) (SolvePassTicket, error) {
	return s.SubmitSolveIntoOpts(dst, a, d, w, solve.Options{Engine: eng}, q)
}

// SubmitSolveIntoOpts is SubmitSolveOpts writing the solution into dst
// (len = n, which must not alias d) — the zero-allocation solve stream
// path: once the affinity shard is warm on the shape, submit, execution
// and redemption allocate nothing, with deadlines, pivoting and refinement
// enabled too (they ride in the pooled job and the shard workspace's
// reused buffers). Inputs and dst must stay untouched until the ticket is
// redeemed; on error dst is untouched. One consequence of the pooling:
// the returned stats report the pivoting work as LU.RowSwaps but carry a
// nil LU.Perm — the permutation slice is owned by the pooled shard
// workspace and handing it out would alias the next solve; use
// SubmitSolveOpts when the permutation itself is needed.
func (s *Scheduler) SubmitSolveIntoOpts(dst matrix.Vector, a *matrix.Dense, d matrix.Vector, w int, opts solve.Options, q QoS) (SolvePassTicket, error) {
	if err := validateSolveOpts(a, d, w, opts); err != nil {
		return SolvePassTicket{}, err
	}
	if len(dst) != a.Rows() {
		return SolvePassTicket{}, fmt.Errorf("stream: dst len %d, want %d", len(dst), a.Rows())
	}
	j := s.get(q)
	j.kind, j.w, j.eng = solvePass, w, opts.Engine
	j.pivot, j.refine = opts.Pivot, opts.Refine
	j.dst, j.a, j.b = dst, a, d
	if err := s.enqueue(j, shardOf(s.fleet.Shards(), solvePass, w, a.Rows(), a.Cols(), int(opts.Engine))); err != nil {
		return SolvePassTicket{}, err
	}
	return SolvePassTicket{j}, nil
}
