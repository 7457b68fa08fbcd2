package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/solve"
	"repro/internal/solved"
	"repro/internal/stream"
)

// Span names. A span's parent is named by the span of the same op that
// caused it; spanRoot marks an op's outermost span.
const (
	spanRoot uint8 = iota
	spanOp
	spanSubmit
	spanWait
	spanRoundTrip
	spanHandler
)

var spanNames = [...]string{"", "op", "stream.Submit", "stream.Wait", "http.RoundTrip", "solved.ServeHTTP"}

// span is one timed call into the program. Spans of one op share op.
type span struct {
	op           uint32
	name, parent uint8
	start, end   time.Duration // since the phase started
}

// spanBuf is one load goroutine's preallocated span store.
type spanBuf struct {
	spans []span
	full  bool
}

func (b *spanBuf) add(op uint32, name, parent uint8, start, end time.Duration) {
	if len(b.spans) == cap(b.spans) {
		b.full = true
		return
	}
	b.spans = append(b.spans, span{op: op, name: name, parent: parent, start: start, end: end})
}

// tracer keeps every span of a traced phase in memory outside the Go heap:
// one buffer per load goroutine, plus slots indexed by op for spans
// recorded on server goroutines (each op's slot has exactly one writer).
type tracer struct {
	bufs  []*spanBuf
	slots []span
}

func newTracer(bufs, perBuf, slots int) (*tracer, error) {
	all, err := offHeap[span](bufs*perBuf + slots)
	if err != nil {
		return nil, err
	}
	t := &tracer{slots: all[:slots]}
	for i := 0; i < bufs; i++ {
		at := slots + i*perBuf
		t.bufs = append(t.bufs, &spanBuf{spans: all[at : at : at+perBuf]})
	}
	return t, nil
}

// buf returns load goroutine i's buffer; a nil tracer records nothing.
func (t *tracer) buf(i int) *spanBuf {
	if t == nil {
		return nil
	}
	return t.bufs[i]
}

func (t *tracer) slot(op int, s span) {
	if op >= 0 && op < len(t.slots) {
		t.slots[op] = s
	}
}

func (t *tracer) each(fn func(s span)) {
	for _, b := range t.bufs {
		for _, s := range b.spans {
			fn(s)
		}
	}
	for _, s := range t.slots {
		if s.name != spanRoot {
			fn(s)
		}
	}
}

func (t *tracer) full() bool {
	for _, b := range t.bufs {
		if b.full {
			return true
		}
	}
	return false
}

// median returns the median duration of the spans named name, in unit.
func (t *tracer) median(name uint8, unit time.Duration) float64 {
	var ds []time.Duration
	t.each(func(s span) {
		if s.name == name {
			ds = append(ds, s.end-s.start)
		}
	})
	return durMedian(ds, unit)
}

// ticketMedian joins each op's Submit and Wait spans and returns the
// median time from the start of Submit to the return of Wait, in µs.
func (t *tracer) ticketMedian() float64 {
	starts := map[uint32]time.Duration{}
	t.each(func(s span) {
		if s.name == spanSubmit {
			starts[s.op] = s.start
		}
	})
	var ds []time.Duration
	t.each(func(s span) {
		if st, ok := starts[s.op]; ok && s.name == spanWait {
			ds = append(ds, s.end-st)
		}
	})
	return durMedian(ds, time.Microsecond)
}

// write stores the spans as JSON lines, one object per span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.each(func(s span) {
		fmt.Fprintf(w, `{"op":%d,"span":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.op, spanNames[s.name], spanNames[s.parent], int64(s.start), int64(s.end))
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers collects a traced run's per-layer metrics.
type layers map[string]metric

func (l layers) set(name, unit string, v float64) { l[name] = metric{Value: v, Unit: unit} }

// rung times fn reps times, serially, and returns the median.
func rung(reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	v := durMedian(ds, 1)
	return time.Duration(v), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sparseReps is the repetition count of each sparse ladder rung.
const sparseReps = 2000

// sparseLadder times the sparse rungs on the stencil, unloaded and
// serially: the compiled plan's k=16 replay on packed buffers
// (schedule), the arena pass that packs and replays (sparse), and a
// stream ticket around the same pass (stream). It returns the unloaded
// single-vector ticket, the reference for mixed-stream's queueing time.
func sparseLadder(s *stream.Scheduler, st *stencil, l layers) (time.Duration, error) {
	t := st.t
	plan, err := schedule.SparseMatVecFor(t.W, t.NBar, t.MBar, t.Retained)
	if err != nil {
		return 0, err
	}
	xs, bs := st.xs[:batchK], st.bs[:batchK]
	xw, yw := t.MBar*t.W, t.NBar*t.W
	xp, bp := make([]float64, batchK*xw), make([]float64, batchK*yw)
	for v := range xs {
		copy(xp[v*xw:], xs[v])
		copy(bp[v*yw:], bs[v])
	}
	y, ybar := make([]float64, batchK*yw), make([]float64, batchK*plan.MaxBandRows)
	aflat := t.Grid.Padded().Raw()
	exec, _ := rung(sparseReps, func() error {
		plan.ExecMany(aflat, xp, bp, y, ybar, batchK)
		return nil
	})
	for v := range xs {
		if !sameBits(y[v*yw:v*yw+t.N], st.ys[v]) {
			return 0, fmt.Errorf("ladder: ExecMany vector %d disagrees with the serial pass", v)
		}
	}
	ar := core.NewArena()
	dsts := make([]matrix.Vector, batchK)
	for v := range dsts {
		dsts[v] = matrix.NewVector(t.N)
	}
	checkBatch := func() error {
		for v := range dsts {
			if !sameBits(dsts[v], st.ys[v]) {
				return fmt.Errorf("ladder: batch vector %d disagrees with the serial pass", v)
			}
		}
		return nil
	}
	pass, err := rung(sparseReps, func() error {
		ar.Reset()
		_, err := t.PassManyInto(ar, dsts, xs, bs, core.EngineCompiled)
		return err
	})
	if err == nil {
		err = checkBatch()
	}
	if err != nil {
		return 0, err
	}
	ticket, err := rung(sparseReps, func() error {
		tk, err := s.SubmitSparseBatchInto(dsts, t, xs, bs, core.EngineCompiled)
		if err == nil {
			_, err = tk.Wait()
		}
		return err
	})
	if err == nil {
		err = checkBatch()
	}
	if err != nil {
		return 0, err
	}
	single, err := rung(sparseReps, func() error {
		tk, err := s.SubmitSparseMatVecInto(dsts[0], t, xs[0], bs[0], core.EngineCompiled)
		if err == nil {
			_, err = tk.Wait()
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	l.set("schedule.exec_us", "us", us(exec))
	l.set("schedule.plan_bytes", "bytes", float64(plan.Bytes()))
	l.set("schedule.macs_per_op", "count", float64(plan.MACs))
	l.set("sparse.pass_us", "us", us(pass))
	l.set("sparse.self_us", "us", us(pass-exec))
	l.set("sparse.utilization", "frac", plan.Utilization())
	l.set("stream.self_us", "us", us(ticket-pass))
	return single, nil
}

// requestBody encodes sys as a POST /solve body for array size w.
func requestBody(sys *system, w int) ([]byte, error) {
	req := solved.Request{A: sys.rows, D: sys.d, W: w, Engine: "compiled"}
	if sys.opts.Pivot == solve.PivotPartial {
		req.Pivot = "partial"
	}
	if n := sys.opts.Refine.MaxIters; n > 0 {
		req.Refine = &solved.RefineRequest{MaxIters: n}
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	return b, nil
}

// solveRungs are the unloaded solve-side ladder results.
type solveRungs struct {
	ticketInto time.Duration // SubmitSolveIntoOpts + Wait
	handler    time.Duration // ServeHTTP on a ResponseRecorder
	roundTrip  time.Duration // client round trip to an httptest server
	respBody   []byte        // one response body, for the harness-cost probe
}

// solveLadder times the solve rungs on sys, unloaded and serially: the
// workspace factorization and full solve (solve, trisolve), a stream
// ticket, the facade's handler and an HTTP round trip.
func solveLadder(s *stream.Scheduler, sys *system, w, reps int, l layers) (solveRungs, error) {
	var r solveRungs
	ws := solve.NewWorkspace(w)
	blu, err := rung(reps, func() error {
		_, _, _, err := ws.BlockLU(sys.a, sys.opts)
		return err
	})
	if err != nil {
		return r, err
	}
	var x matrix.Vector
	sol, err := rung(reps, func() error {
		var err error
		x, _, err = ws.Solve(sys.a, sys.d, sys.opts)
		return err
	})
	if err == nil && !sameBits(x, sys.x) {
		err = fmt.Errorf("ladder: workspace solve disagrees with the serial solve")
	}
	if err != nil {
		return r, err
	}
	dst := matrix.NewVector(len(sys.x))
	if r.ticketInto, err = rung(reps, func() error {
		tk, err := s.SubmitSolveIntoOpts(dst, sys.a, sys.d, w, sys.opts, stream.QoS{})
		if err == nil {
			_, err = tk.Wait()
		}
		return err
	}); err != nil {
		return r, err
	}
	full, err := rung(reps, func() error {
		tk, err := s.SubmitSolveOpts(sys.a, sys.d, w, sys.opts, stream.QoS{})
		if err == nil {
			_, _, err = tk.Wait()
		}
		return err
	})
	if err != nil {
		return r, err
	}
	body, err := requestBody(sys, w)
	if err != nil {
		return r, err
	}
	srv := solved.New(solved.Config{Stream: s, W: w})
	if r.handler, err = rung(reps, func() error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("ladder: handler answered %d: %s", rec.Code, rec.Body.String())
		}
		r.respBody = rec.Body.Bytes()
		return nil
	}); err != nil {
		return r, err
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	if r.roundTrip, err = rung(reps, func() error {
		res, err := client.Post(hs.URL+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		buf.Reset()
		_, err = buf.ReadFrom(res.Body)
		res.Body.Close()
		if err == nil && res.StatusCode != http.StatusOK {
			err = fmt.Errorf("ladder: round trip answered %d", res.StatusCode)
		}
		return err
	}); err != nil {
		return r, err
	}
	l.set("solve.blocklu_ms", "ms", ms(blu))
	l.set("solve.solve_ms", "ms", ms(sol))
	l.set("trisolve.self_ms", "ms", ms(sol-blu))
	l.set("solved.self_us", "us", us(r.handler-full))
	l.set("solved.req_bytes", "bytes", float64(len(body)))
	l.set("solved.resp_bytes", "bytes", float64(len(r.respBody)))
	return r, nil
}

// harnessAllocs measures the harness's own allocation per op by running
// its per-op checking and recording code alone; with a response body it
// also builds the request and decodes the body, as the HTTP clients do.
func harnessAllocs(sys *system, body []byte) (float64, error) {
	const reps = 200
	rec, err := newRecorder(reps)
	if err != nil {
		return 0, err
	}
	var resp solveResponse
	resp.X = make([]float64, 0, len(sys.x))
	reader := bytes.NewReader(nil)
	p0, err := readProc()
	if err != nil {
		return 0, err
	}
	for i := 0; i < reps; i++ {
		got := []float64(sys.x)
		if body != nil {
			reader.Reset(body)
			req, err := http.NewRequest(http.MethodPost, "http://127.0.0.1/solve", reader)
			if err != nil {
				return 0, err
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(idHeader, strconv.Itoa(i))
			resp.X = resp.X[:0]
			if err := json.Unmarshal(body, &resp); err != nil {
				return 0, err
			}
			got = resp.X
		}
		if !sameBits(got, sys.x) {
			return 0, fmt.Errorf("harness probe: decoded solution disagrees")
		}
		rec.ok(time.Millisecond, time.Millisecond, 0, sys.steps)
	}
	p1, err := readProc()
	if err != nil {
		return 0, err
	}
	return float64(p1.alloc-p0.alloc) / reps, nil
}

// firstSolveExcess returns how much longer a fresh workspace's first solve
// of (a, d) takes than its warm solves: the plan compilation a cold
// process pays once.
func firstSolveExcess(a *matrix.Dense, d matrix.Vector, w int, opts solve.Options) (time.Duration, error) {
	ws := solve.NewWorkspace(w)
	start := time.Now()
	if _, _, err := ws.Solve(a, d, opts); err != nil {
		return 0, err
	}
	first := time.Since(start)
	warm, err := rung(5, func() error {
		_, _, err := ws.Solve(a, d, opts)
		return err
	})
	return first - warm, err
}

// compileProbe measures the cold compile a workload's set-up pays, before
// anything in the process has compiled a plan: the first solve's excess
// for the workload's solve shape, plus the cold pattern-keyed compile of
// the stencil when the workload runs sparse jobs.
func compileProbe(name string, seed int64) (time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "dense-solve":
		a, d := diagDominant(rng, denseN)
		return firstSolveExcess(a, d, denseW, solve.Options{Engine: core.EngineCompiled})
	case "http-solve":
		a, d := scrambled(rng, httpN)
		return firstSolveExcess(a, d, httpW, solve.Options{Engine: core.EngineCompiled, Pivot: solve.PivotPartial})
	}
	t := stencilOperator(rng)
	start := time.Now()
	if _, err := schedule.SparseMatVecFor(t.W, t.NBar, t.MBar, t.Retained); err != nil {
		return 0, err
	}
	sparseCold := time.Since(start)
	a, d := diagDominant(rng, mixedSolveN)
	excess, err := firstSolveExcess(a, d, mixedSolveW, solve.Options{Engine: core.EngineCompiled})
	return sparseCold + excess, err
}

// spansPath is where a traced run writes its spans, relative to the
// checkout the benchmark runs in.
func spansPath(name string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
}
