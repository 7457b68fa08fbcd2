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

// Load shape shared by every workload: two shards, set explicitly so the
// fleet never follows GOMAXPROCS, and at most two load goroutines.
const (
	shards       = 2
	clients      = 2
	warmPerShard = 2 // warm-up ops per shard in every set-up
)

// dense-solve: n=128 systems on a w=8 array, compiled engine.
const (
	denseN       = 128
	denseW       = 8
	denseSystems = 8
	denseSLO     = 50 * time.Millisecond
	denseCap     = 10000 // recorder capacity per client per second
)

// solveEnv is a closed loop of `clients` goroutines, each submitting one
// solve ticket (SubmitSolveIntoOpts) and redeeming it before the next,
// round-robin over a seeded set of systems that share one shape.
type solveEnv struct {
	s    *stream.Scheduler
	w    int
	sys  []system
	dst  [clients]matrix.Vector
	recs []*recorder

	submits [clients]uint64 // Submit calls, warm-up included
	swaps   [clients]int    // row exchanges reported by correct results
	iters   [clients]int    // refinement cycles reported by correct results
}

func newSolveEnv(w int, sys []system, perSecond, seconds int) (*solveEnv, error) {
	e := &solveEnv{w: w, sys: sys}
	for c := range e.dst {
		e.dst[c] = matrix.NewVector(sys[0].a.Rows())
		rec, err := newRecorder(perSecond*seconds + warmPerShard*shards)
		if err != nil {
			return nil, err
		}
		e.recs = append(e.recs, rec)
	}
	e.s = stream.New(stream.Config{Shards: shards})
	return e, nil
}

func setupDense(seed int64, seconds int) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	sys := make([]system, denseSystems)
	for i := range sys {
		a, d := diagDominant(rng, denseN)
		var err error
		if sys[i], err = newSystem(a, d, denseW, solve.Options{Engine: core.EngineCompiled}); err != nil {
			return nil, err
		}
	}
	e, err := newSolveEnv(denseW, sys, denseCap, seconds)
	if err != nil {
		return nil, err
	}
	e.run(0, warmPerShard*shards/clients, nil)
	return e, nil
}

func (e *solveEnv) scheduler() *stream.Scheduler { return e.s }
func (e *solveEnv) recorders() []*recorder       { return e.recs }
func (e *solveEnv) close()                       { e.s.Close() }

// run drives the closed loop for phase (or, when limit > 0, for exactly
// limit ops per client), recording spans on tr when it is non-nil.
func (e *solveEnv) run(phase time.Duration, limit int, tr *tracer) {
	for _, r := range e.recs {
		r.reset()
	}
	e.swaps, e.iters = [clients]int{}, [clients]int{}
	base := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.client(c, base, phase, limit, tr.buf(c))
		}(c)
	}
	wg.Wait()
}

func (e *solveEnv) client(c int, base time.Time, phase time.Duration, limit int, spans *spanBuf) {
	rec, dst := e.recs[c], e.dst[c]
	var prevEnd time.Duration
	for k := 0; limit == 0 || k < limit; k++ {
		start := time.Since(base)
		if limit == 0 && start >= phase {
			return
		}
		sys := &e.sys[(k*clients+c)%len(e.sys)]
		e.submits[c]++
		tk, err := e.s.SubmitSolveIntoOpts(dst, sys.a, sys.d, e.w, sys.opts, stream.QoS{})
		sent := time.Since(base)
		if err != nil {
			rec.fail(false)
			continue
		}
		st, err := tk.Wait()
		end := time.Since(base)
		if err != nil {
			rec.fail(false)
			continue
		}
		if !sameBits(dst, sys.x) || solveSteps(&st) != sys.steps || st.LU.RowSwaps != sys.swaps || st.Refine.Iters != sys.iters {
			rec.fail(true)
			continue
		}
		lag := time.Duration(0)
		if k > 0 {
			lag = start - prevEnd
		}
		rec.ok(end-start, end, lag, sys.steps)
		e.swaps[c] += st.LU.RowSwaps
		e.iters[c] += st.Refine.Iters
		prevEnd = end
		if spans != nil {
			id := uint32(k*clients + c)
			spans.add(id, spanOp, spanRoot, start, end)
			spans.add(id, spanSubmit, spanOp, start, sent)
			spans.add(id, spanWait, spanOp, sent, end)
		}
	}
}

// verify drains the scheduler and checks its counters against the
// harness's own: every accepted job completed, every attempt accepted or
// shed.
func (e *solveEnv) verify() error {
	var submits uint64
	for _, n := range e.submits {
		submits += n
	}
	return checkStream(e.s, submits, 0)
}

// checkStream flushes s and requires submitted == completed and
// attempts == submitted + shed + admissionExpired.
func checkStream(s *stream.Scheduler, attempts, admissionExpired uint64) error {
	s.Flush()
	st := s.Stats()
	var errs []error
	if st.Submitted != st.Completed {
		errs = append(errs, fmt.Errorf("stream counters: submitted %d != completed %d after Flush", st.Submitted, st.Completed))
	}
	if attempts != st.Submitted+st.Shed+admissionExpired {
		errs = append(errs, fmt.Errorf("stream counters: %d attempts != submitted %d + shed %d + expired at admission %d",
			attempts, st.Submitted, st.Shed, admissionExpired))
	}
	if st.Panics != 0 {
		errs = append(errs, fmt.Errorf("stream counters: %d recovered job panics", st.Panics))
	}
	return errors.Join(errs...)
}
