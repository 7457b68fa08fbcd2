package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/stream"
)

// mixed-stream: an open loop at a constant rate over one scheduler. The
// rate is a constant, never derived from the machine's speed, so a faster
// program gets the same load. It is a quarter of the saturated throughput
// of this job mix measured on a 2-core host; at half of it the latency
// percentiles spread too far from run to run (see doc.go).
const (
	mixedRate     = 17500 // jobs per second
	mixedSlots    = 256   // jobs in flight at most: each owns one slot's buffers
	mixedSeq      = 4096  // length of the seeded kind/priority sequence
	mixedDeadline = 500 * time.Millisecond
	mixedSLO      = 5 * time.Millisecond
	mixedSolveN   = 32
	mixedSolveW   = 4
	mixedSystems  = 8
	batchK        = 16

	// Job mix, in parts per 100: the rest are single-vector sparse jobs.
	mixedBatchPct = 12
	mixedSolvePct = 8
	mixedLowPct   = 25
)

const (
	kindSingle uint8 = iota
	kindBatch
	kindSolve
)

// mixedSlot is one in-flight job: its kind, inputs and the caller-owned
// result buffers the shard writes into.
type mixedSlot struct {
	kind   uint8
	idx    int // vector index (single), first vector (batch) or system
	op     uint32
	low    bool
	due    time.Duration
	sent   time.Duration
	dst    matrix.Vector
	dsts   []matrix.Vector
	sdst   matrix.Vector
	pass   stream.PassTicket
	solved stream.SolvePassTicket
}

type mixedEnv struct {
	s     *stream.Scheduler
	st    *stencil
	sys   []system
	kinds [mixedSeq]uint8
	low   [mixedSeq]bool
	slots []mixedSlot
	free  chan int32 // slots not in flight
	queue chan int32 // submitted slots in send order; -1 ends the phase

	gen, col *recorder

	// Generator-owned counters, warm-up included.
	submits, expiredAtAdmission uint64
	// Collector-owned counters of correct completions in the last phase.
	done [3]int
	lows int
}

func setupMixed(seed int64, seconds int) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	st, err := newStencil(rng)
	if err != nil {
		return nil, err
	}
	sys := make([]system, mixedSystems)
	for i := range sys {
		a, d := diagDominant(rng, mixedSolveN)
		if sys[i], err = newSystem(a, d, mixedSolveW, solve.Options{Engine: core.EngineCompiled}); err != nil {
			return nil, err
		}
	}
	// A queue bound of mixedSlots holds every job in flight, so a Low job
	// never meets a full queue and no job is shed: the workload measures
	// the cost of admission, not a seed-dependent count of refusals.
	e := &mixedEnv{
		s: stream.New(stream.Config{Shards: shards, QueueBound: mixedSlots}), st: st, sys: sys,
		slots: make([]mixedSlot, mixedSlots),
		free:  make(chan int32, mixedSlots),
		queue: make(chan int32, mixedSlots+1),
	}
	// Exact shares, in seeded order: the seed moves the order and the
	// values, never the amount of work.
	solves, batches := mixedSeq*mixedSolvePct/100, mixedSeq*mixedBatchPct/100
	for i := range e.kinds {
		switch {
		case i < solves:
			e.kinds[i] = kindSolve
		case i < solves+batches:
			e.kinds[i] = kindBatch
		}
		e.low[i] = i < mixedSeq*mixedLowPct/100
	}
	rng.Shuffle(mixedSeq, func(i, j int) { e.kinds[i], e.kinds[j] = e.kinds[j], e.kinds[i] })
	rng.Shuffle(mixedSeq, func(i, j int) { e.low[i], e.low[j] = e.low[j], e.low[i] })
	n := st.t.N
	for i := range e.slots {
		sl := &e.slots[i]
		sl.dst = matrix.NewVector(n)
		for v := 0; v < batchK; v++ {
			sl.dsts = append(sl.dsts, matrix.NewVector(n))
		}
		sl.sdst = matrix.NewVector(mixedSolveN)
		e.free <- int32(i)
	}
	// The generator records only failed submissions, which keep no samples.
	if e.gen, err = newRecorder(0); err == nil {
		e.col, err = newRecorder(mixedRate*seconds + mixedRate/2)
	}
	if err != nil {
		e.s.Close()
		return nil, err
	}
	e.run(0, 64*shards, nil)
	return e, nil
}

func (e *mixedEnv) scheduler() *stream.Scheduler { return e.s }
func (e *mixedEnv) recorders() []*recorder       { return []*recorder{e.gen, e.col} }
func (e *mixedEnv) close()                       { e.s.Close() }

// run sends jobs on the fixed schedule for phase (or exactly limit jobs
// when limit > 0) from one generator goroutine while one collector
// goroutine redeems the tickets in send order.
func (e *mixedEnv) run(phase time.Duration, limit int, tr *tracer) {
	e.gen.reset()
	e.col.reset()
	e.done, e.lows = [3]int{}, 0
	base := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e.generate(base, phase, limit, tr.buf(0))
	}()
	go func() {
		defer wg.Done()
		e.collect(base, tr.buf(1))
	}()
	wg.Wait()
}

func (e *mixedEnv) generate(base time.Time, phase time.Duration, limit int, spans *spanBuf) {
	defer func() { e.queue <- -1 }()
	interval := time.Second / mixedRate
	for i := 0; ; i++ {
		due := time.Duration(i) * interval
		if (limit > 0 && i >= limit) || (limit == 0 && due >= phase) {
			return
		}
		if now := time.Since(base); now < due {
			time.Sleep(due - now)
		}
		slot := <-e.free
		sl := &e.slots[slot]
		sl.kind, sl.low, sl.due, sl.op = e.kinds[i%mixedSeq], e.low[i%mixedSeq], due, uint32(i)
		q := stream.QoS{Deadline: base.Add(due + mixedDeadline)}
		if sl.low {
			q.Priority = stream.Low
		}
		start := time.Since(base)
		var err error
		switch sl.kind {
		case kindSingle:
			sl.idx = i % stencilVecs
			sl.pass, err = e.s.SubmitSparseMatVecIntoQoS(sl.dst, e.st.t, e.st.xs[sl.idx], e.st.bs[sl.idx], core.EngineCompiled, q)
		case kindBatch:
			sl.idx = (i * batchK) % stencilVecs
			xs, bs := e.st.xs[sl.idx:sl.idx+batchK], e.st.bs[sl.idx:sl.idx+batchK]
			sl.pass, err = e.s.SubmitSparseBatchIntoQoS(sl.dsts, e.st.t, xs, bs, core.EngineCompiled, q)
		case kindSolve:
			sl.idx = i % len(e.sys)
			sys := &e.sys[sl.idx]
			sl.solved, err = e.s.SubmitSolveIntoQoS(sl.sdst, sys.a, sys.d, mixedSolveW, core.EngineCompiled, q)
		}
		sl.sent = time.Since(base)
		e.submits++
		if spans != nil {
			spans.add(sl.op, spanSubmit, spanOp, start, sl.sent)
		}
		if err != nil {
			var de *stream.DeadlineError
			if errors.As(err, &de) && de.Expired {
				e.expiredAtAdmission++
			}
			e.gen.fail(false)
			e.free <- slot
			continue
		}
		e.queue <- slot
	}
}

func (e *mixedEnv) collect(base time.Time, spans *spanBuf) {
	for slot := range e.queue {
		if slot < 0 {
			return
		}
		sl := &e.slots[slot]
		var steps, want int
		var err error
		correct := false
		switch sl.kind {
		case kindSingle:
			steps, err = sl.pass.Wait()
			want = e.st.t1
			correct = err == nil && sameBits(sl.dst, e.st.ys[sl.idx])
		case kindBatch:
			steps, err = sl.pass.Wait()
			want = e.st.t1
			correct = err == nil
			for v := 0; correct && v < batchK; v++ {
				correct = sameBits(sl.dsts[v], e.st.ys[sl.idx+v])
			}
		case kindSolve:
			var st solve.SolveStats
			st, err = sl.solved.Wait()
			sys := &e.sys[sl.idx]
			steps, want = solveSteps(&st), sys.steps
			correct = err == nil && sameBits(sl.sdst, sys.x)
		}
		end := time.Since(base)
		switch {
		case err != nil:
			e.col.fail(false)
		case !correct || steps != want:
			e.col.fail(true)
		default:
			e.col.ok(end-sl.due, end, sl.sent-sl.due, steps)
			e.done[sl.kind]++
			if sl.low {
				e.lows++
			}
			if spans != nil {
				spans.add(sl.op, spanOp, spanRoot, sl.due, end)
				spans.add(sl.op, spanWait, spanOp, sl.sent, end)
			}
		}
		e.free <- slot
	}
}

// verify checks the stream counters and that the phase exercised what
// the workload's name says: Low-priority jobs and sparse batches ran.
func (e *mixedEnv) verify() error {
	errs := []error{checkStream(e.s, e.submits, e.expiredAtAdmission)}
	if e.lows == 0 {
		errs = append(errs, fmt.Errorf("mixed-stream: no Low-priority job completed"))
	}
	if e.done[kindBatch] == 0 {
		errs = append(errs, fmt.Errorf("mixed-stream: no sparse batch completed"))
	}
	return errors.Join(errs...)
}
