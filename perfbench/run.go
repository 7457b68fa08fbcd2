package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/stream"
)

// env is one set-up instance of a workload, ready to be driven.
type env interface {
	scheduler() *stream.Scheduler
	recorders() []*recorder
	// run drives the load for phase, or for a fixed count of ops when
	// limit > 0 (the warm-up), recording spans on tr when it is non-nil.
	run(phase time.Duration, limit int, tr *tracer)
	// verify checks the counters, and that the workload did what its name
	// says, after the last phase.
	verify() error
	close()
}

type workload struct {
	name, why string
	slo       time.Duration // latency limit of slo_met_frac
	perSecond int           // storage per load goroutine per second
	reps      int           // repetitions of each solve ladder rung
	setup     func(seed int64, seconds int) (env, error)
}

// workloads are the benchmark's, the ones BENCHMARK.json lists and
// --steady runs.
var workloads = []workload{
	{
		name: "dense-solve", slo: denseSLO, perSecond: denseCap, reps: 15, setup: setupDense,
		why: "n=128 w=8 solves: time goes to replay kernels, BlockLU tiles and triangular phases; kernel and solver changes show here",
	},
	{
		name: "mixed-stream", slo: mixedSLO, perSecond: mixedRate, reps: 200, setup: setupMixed,
		why: "open loop of sparse, batched and solve jobs with deadlines and Low priority on one scheduler: ticket overhead and admission",
	},
}

// byNameOnly are workloads that run by name but are not part of the
// benchmark: their figures spread too far between runs (see doc.go).
var byNameOnly = []workload{
	{
		name: "http-solve", slo: httpSLO, perSecond: httpCap, reps: 200, setup: setupHTTP,
		why: "n=32 w=4 pivoted solves over loopback HTTP, one in eight refined: JSON, net/http, handler and ticket dominate (not in BENCHMARK.json)",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range append(workloads, byNameOnly...) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRuns is how many cold set-ups an end-to-end run times; setup_s is
// their median. Compiled plans are cached process-wide, so only a fresh
// process pays their compilation: the first set-up, in this process, is
// the one driven, and the others run in child processes of their own
// after the timed phase, so that the set-ups sample the host over the
// whole run rather than one moment of it.
const setupRuns = 7

// runE2E sets the workload up, drives it for the timed phase, times
// setupRuns-1 more cold set-ups and reports the end-to-end metrics.
func runE2E(w workload, seed int64, seconds int, log io.Writer) (output, error) {
	start := time.Now()
	e, err := w.setup(seed, seconds)
	if err != nil {
		return output{}, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{time.Since(start).Seconds()}
	defer e.close()
	// Garbage from set-up must not count toward the timed phase's heap;
	// the collection is not part of the set-up time.
	runtime.GC()

	phase := time.Duration(seconds) * time.Second
	sm := startSampler(nil)
	e.run(phase, 0, nil)
	sm.finish()
	verr := e.verify()
	for len(setups) < setupRuns {
		t, err := childSetup(w.name, seed, seconds)
		if err != nil {
			return output{}, fmt.Errorf("set-up in a child process: %w", err)
		}
		setups = append(setups, t)
	}
	fmt.Fprintf(log, "set-up times (s): %.4f\n", setups)
	s := summarize(e.recorders(), phase, w.slo)
	fmt.Fprintf(log, "%s: %d ok of %d attempted, %d wrong; p95 over ~%d samples per window (%d beyond it); generator lag p95 %.4f ms\n",
		w.name, s.ok, s.attempted, s.wrong, int(s.opsPerS*window.Seconds()), s.p95Beyond, s.lagP95MS)

	out := newOutput(s)
	out.set("setup_s", "s", median(setups))
	out.set("ops_per_s", "1/s", s.opsPerS)
	out.set("latency_p50_ms", "ms", s.p50MS)
	out.set("latency_p95_ms", "ms", s.p95MS)
	out.set("ok_frac", "frac", float64(s.attempted-s.failed)/float64(s.attempted))
	out.set("slo_met_frac", "frac", s.sloFrac)
	out.set("heap_peak_mb", "MB", float64(sm.heapPeak)/1e6)
	out.set("array_steps_per_op", "steps", s.stepsPerOp)
	return out, errors.Join(verr, phaseErr(s))
}

// phaseErr turns a summary's correctness failures into an error.
func phaseErr(s summary) error {
	var errs []error
	if s.wrong > 0 {
		errs = append(errs, fmt.Errorf("%d ops returned results that differ from the serial answer", s.wrong))
	}
	if s.full {
		errs = append(errs, errors.New("latency storage overflowed: raise the workload's per-second capacity"))
	}
	if s.ok == 0 {
		errs = append(errs, errors.New("no op completed"))
	}
	return errors.Join(errs...)
}

// runTraced replays the workload with spans around every public call the
// load makes, then times each lower layer's public entry point serially on
// the same inputs, and reports the per-layer metrics.
func runTraced(w workload, seed int64, seconds int, log io.Writer) (output, error) {
	compile, err := compileProbe(w.name, seed)
	if err != nil {
		return output{}, fmt.Errorf("compile probe: %w", err)
	}
	e, err := w.setup(seed, seconds)
	if err != nil {
		return output{}, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	l := layers{}
	l.set("schedule.compile_ms", "ms", ms(compile))
	half := time.Duration(seconds) * time.Second / 2

	// Untraced half: process-wide cost per op, and the reference the
	// traced half is compared with for the tracing overhead.
	p0, err := readProc()
	if err != nil {
		return output{}, err
	}
	e.run(half, 0, nil)
	p1, err := readProc()
	if err != nil {
		return output{}, err
	}
	plain := summarize(e.recorders(), half, w.slo)
	ops := float64(plain.ok)
	l.set("runtime.alloc_bytes_per_op", "bytes", float64(p1.alloc-p0.alloc)/ops)
	l.set("runtime.gc_per_kop", "count", 1000*float64(p1.gcs-p0.gcs)/ops)
	l.set("runtime.cpu_ms_per_op", "ms", ms(p1.cpu-p0.cpu)/ops)
	l.set("loadgen.lag_p95_ms", "ms", plain.lagP95MS)

	// Traced half.
	spans := w.perSecond * (seconds/2 + 1) * 3
	tr, err := newTracer(clients, spans, spans*clients)
	if err != nil {
		return output{}, err
	}
	sm := startSampler(e.scheduler())
	e.run(half, 0, tr)
	sm.finish()
	traced := summarize(e.recorders(), half, w.slo)
	l.set("trace.overhead_frac", "frac", traced.p50MS/plain.p50MS-1)
	l.set("stream.queue_depth", "count", sm.depthSum/float64(sm.samples))
	l.set("stream.service_ewma_us", "us", sm.ewmaSum/float64(sm.samples))

	// The layers below, on the workload's own inputs.
	rng := rand.New(rand.NewSource(seed))
	var st *stencil
	var sys *system
	var solveW int
	var swaps, iters, solves, refines int
	direct := tr
	switch e := e.(type) {
	case *httpEnv:
		handler := tr.median(spanHandler, time.Microsecond)
		l.set("solved.handler_us", "us", handler)
		l.set("solved.transport_us", "us", tr.median(spanRoundTrip, time.Microsecond)-handler)
		swaps, iters, solves, refines = sumInts(e.swaps[:]), sumInts(e.iters[:]), totalOK(e.recs), sumInts(e.refines[:])
		// The facade submits inside the handler, out of reach of the
		// benchmark: a direct-to-stream phase on the same systems and
		// clients prices Submit and Wait under the same load.
		if direct, err = newTracer(clients, spans, 0); err != nil {
			return output{}, err
		}
		e.solveEnv.run(half/2, 0, direct)
		sys, solveW = &e.sys[0], httpW
		st, err = newStencil(rng)
	case *solveEnv:
		sys, solveW = &e.sys[0], denseW
		st, err = newStencil(rng)
		swaps, solves = sumInts(e.swaps[:]), totalOK(e.recs)
	case *mixedEnv:
		sys, solveW, st = &e.sys[0], mixedSolveW, e.st
		solves = e.done[kindSolve]
	}
	if err != nil {
		return output{}, err
	}
	ticket := direct.ticketMedian()
	l.set("stream.submit_us", "us", direct.median(spanSubmit, time.Microsecond))
	l.set("stream.ticket_us", "us", ticket)

	verr := e.verify()
	stats := e.scheduler().Stats()
	attempts := float64(stats.Submitted + stats.Shed)
	l.set("stream.shed_frac", "frac", float64(stats.Shed)/attempts)
	l.set("stream.expired_frac", "frac", float64(stats.Expired)/attempts)
	l.set("solve.row_swaps", "count", perOp(swaps, solves))
	l.set("solve.refine_iters", "count", perOp(iters, refines))

	single, err := sparseLadder(e.scheduler(), st, l)
	if err != nil {
		return output{}, err
	}
	r, err := solveLadder(e.scheduler(), sys, solveW, w.reps, l)
	if err != nil {
		return output{}, err
	}
	var body []byte
	if _, ok := e.(*httpEnv); ok {
		body = r.respBody
	} else {
		l.set("solved.handler_us", "us", us(r.handler))
		l.set("solved.transport_us", "us", us(r.roundTrip-r.handler))
	}
	if _, ok := e.(*mixedEnv); ok {
		l.set("stream.wait_us", "us", ticket-us(single))
	} else {
		l.set("stream.wait_us", "us", ticket-us(r.ticketInto))
	}
	harness, err := harnessAllocs(sys, body)
	if err != nil {
		return output{}, err
	}
	l.set("loadgen.alloc_bytes_per_op", "bytes", harness)

	path := spansPath(w.name, seed)
	if err := tr.write(path); err != nil {
		return output{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "%s: spans written to %s\n", w.name, path)
	if tr.full() || direct.full() {
		verr = errors.Join(verr, errors.New("span storage overflowed"))
	}
	out := newOutput(traced)
	out.Metrics = map[string]metric(l)
	return out, errors.Join(verr, phaseErr(plain), phaseErr(traced))
}

func sumInts(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

func totalOK(recs []*recorder) int {
	n := 0
	for _, r := range recs {
		n += len(r.lat)
	}
	return n
}

func perOp(total, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(total) / float64(ops)
}
