package stream

import (
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/sparse"
)

// The perfbench module calls these methods, but `go test ./...` never
// compiles it. These typed method expressions make the package's own test
// build fail when one of those signatures changes.
var (
	_ func(*Scheduler, matrix.Vector, *sparse.MatVec, matrix.Vector, matrix.Vector, core.Engine) (PassTicket, error)            = (*Scheduler).SubmitSparseMatVecInto
	_ func(*Scheduler, matrix.Vector, *sparse.MatVec, matrix.Vector, matrix.Vector, core.Engine, QoS) (PassTicket, error)       = (*Scheduler).SubmitSparseMatVecIntoQoS
	_ func(*Scheduler, []matrix.Vector, *sparse.MatVec, []matrix.Vector, []matrix.Vector, core.Engine) (PassTicket, error)      = (*Scheduler).SubmitSparseBatchInto
	_ func(*Scheduler, []matrix.Vector, *sparse.MatVec, []matrix.Vector, []matrix.Vector, core.Engine, QoS) (PassTicket, error) = (*Scheduler).SubmitSparseBatchIntoQoS
	_ func(*Scheduler, *matrix.Dense, matrix.Vector, int, solve.Options, QoS) (SolveTicket, error)                              = (*Scheduler).SubmitSolveOpts
	_ func(*Scheduler, matrix.Vector, *matrix.Dense, matrix.Vector, int, core.Engine, QoS) (SolvePassTicket, error)             = (*Scheduler).SubmitSolveIntoQoS
	_ func(*Scheduler, matrix.Vector, *matrix.Dense, matrix.Vector, int, solve.Options, QoS) (SolvePassTicket, error)           = (*Scheduler).SubmitSolveIntoOpts

	_ func(PassTicket) (int, error)                               = PassTicket.Wait
	_ func(SolvePassTicket) (solve.SolveStats, error)             = SolvePassTicket.Wait
	_ func(SolveTicket) (matrix.Vector, *solve.SolveStats, error) = SolveTicket.Wait
)
