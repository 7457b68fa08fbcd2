package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/solve"
	"repro/internal/solved"
)

// http-solve: n=32 systems on a w=4 array, partial pivoting, one request
// in eight with iterative refinement, over loopback HTTP.
const (
	httpN       = 32
	httpW       = 4
	httpSystems = 8 // the last one carries refinement
	httpSLO     = 20 * time.Millisecond
	httpCap     = 20000 // recorder capacity per client per second
	httpWarm    = 8     // warm-up requests per shard
	idHeader    = "X-Bench-Op"
)

// solveResponse is the part of solved.Response the benchmark checks.
type solveResponse struct {
	X     []float64 `json:"x"`
	Stats struct {
		LU struct {
			ArraySteps, RowSwaps int
		}
		TriSteps, MatVecSteps int
		Refine                struct{ Iters int }
	} `json:"stats"`
}

func (r *solveResponse) steps() int {
	return r.Stats.LU.ArraySteps + r.Stats.TriSteps + r.Stats.MatVecSteps
}

// httpEnv is a closed loop of two clients over two keep-alive loopback
// connections to an httptest server wrapping solved.New. The embedded
// solveEnv holds the same systems for the traced run's direct-to-stream
// phase, which prices Submit and Wait under the same load.
type httpEnv struct {
	*solveEnv
	srv    *httptest.Server
	client *http.Client
	bodies [][]byte
	hand   *handlerSpans

	resp    [clients]solveResponse
	buf     [clients]*bytes.Buffer
	sent    [clients]uint64 // requests, warm-up included
	status  [clients]map[int]uint64
	refines [clients]int // correct refined responses in the last phase
}

// handlerSpans wraps the facade's ServeHTTP, recording one span per
// request keyed by the request-id header while a tracer is attached.
type handlerSpans struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
	base atomic.Int64 // phase start, UnixNano
}

func (h *handlerSpans) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(rw, req)
		return
	}
	base := time.Unix(0, h.base.Load())
	start := time.Since(base)
	h.next.ServeHTTP(rw, req)
	end := time.Since(base)
	if id, err := strconv.Atoi(req.Header.Get(idHeader)); err == nil {
		tr.slot(id, span{op: uint32(id), name: spanHandler, parent: spanRoundTrip, start: start, end: end})
	}
}

func setupHTTP(seed int64, seconds int) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	pivot := solve.Options{Engine: core.EngineCompiled, Pivot: solve.PivotPartial}
	refine := pivot
	refine.Refine = solve.RefineOptions{MaxIters: 4}
	sys := make([]system, httpSystems)
	bodies := make([][]byte, httpSystems)
	for i := range sys {
		var err error
		if i == httpSystems-1 {
			a, d := growth(rng, httpN)
			sys[i], err = newSystem(a, d, httpW, refine)
		} else {
			a, d := scrambled(rng, httpN)
			sys[i], err = newSystem(a, d, httpW, pivot)
		}
		if err == nil {
			bodies[i], err = requestBody(&sys[i], httpW)
		}
		if err != nil {
			return nil, err
		}
	}
	se, err := newSolveEnv(httpW, sys, httpCap, seconds)
	if err != nil {
		return nil, err
	}
	e := &httpEnv{solveEnv: se, bodies: bodies}
	e.hand = &handlerSpans{next: solved.New(solved.Config{Stream: e.s, W: httpW})}
	e.srv = httptest.NewServer(e.hand)
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	for c := range e.buf {
		e.buf[c] = bytes.NewBuffer(make([]byte, 0, 64<<10))
		e.status[c] = map[int]uint64{}
		e.resp[c].X = make([]float64, 0, httpN)
	}
	e.run(0, httpWarm*shards/clients, nil)
	return e, nil
}

func (e *httpEnv) close() {
	e.client.CloseIdleConnections()
	e.srv.Close()
	e.s.Close()
}

func (e *httpEnv) run(phase time.Duration, limit int, tr *tracer) {
	for _, r := range e.recs {
		r.reset()
	}
	e.refines = [clients]int{}
	e.swaps, e.iters = [clients]int{}, [clients]int{}
	base := time.Now()
	e.hand.base.Store(base.UnixNano())
	e.hand.tr.Store(tr)
	defer e.hand.tr.Store(nil)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.client1(c, base, phase, limit, tr.buf(c))
		}(c)
	}
	wg.Wait()
}

func (e *httpEnv) client1(c int, base time.Time, phase time.Duration, limit int, spans *spanBuf) {
	rec, resp, buf := e.recs[c], &e.resp[c], e.buf[c]
	url := e.srv.URL + "/solve"
	body := bytes.NewReader(nil)
	var prevEnd time.Duration
	for k := 0; limit == 0 || k < limit; k++ {
		start := time.Since(base)
		if limit == 0 && start >= phase {
			return
		}
		op := k*clients + c
		i := op % len(e.sys)
		sys := &e.sys[i]
		body.Reset(e.bodies[i])
		req, err := http.NewRequest(http.MethodPost, url, body)
		if err != nil {
			rec.fail(false)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		if spans != nil {
			req.Header.Set(idHeader, strconv.Itoa(op))
		}
		e.sent[c]++
		res, err := e.client.Do(req)
		if err != nil {
			rec.fail(false)
			continue
		}
		buf.Reset()
		_, err = buf.ReadFrom(res.Body)
		res.Body.Close()
		end := time.Since(base)
		e.status[c][res.StatusCode]++
		if err != nil || res.StatusCode != http.StatusOK {
			rec.fail(false)
			continue
		}
		resp.X = resp.X[:0]
		if err := json.Unmarshal(buf.Bytes(), resp); err != nil || !sameBits(resp.X, sys.x) ||
			resp.steps() != sys.steps || resp.Stats.LU.RowSwaps != sys.swaps || resp.Stats.Refine.Iters != sys.iters {
			rec.fail(true)
			continue
		}
		lag := time.Duration(0)
		if k > 0 {
			lag = start - prevEnd
		}
		rec.ok(end-start, end, lag, sys.steps)
		prevEnd = end
		e.swaps[c] += resp.Stats.LU.RowSwaps
		e.iters[c] += resp.Stats.Refine.Iters
		if sys.opts.Refine.MaxIters > 0 {
			e.refines[c]++
		}
		if spans != nil {
			spans.add(uint32(op), spanRoundTrip, spanRoot, start, end)
		}
	}
}

// verify checks the client-side status counts against GET /stats, the
// stream counters, and that the phase exercised pivoting and refinement.
func (e *httpEnv) verify() error {
	e.s.Flush()
	var st solved.StatsResponse
	res, err := e.client.Get(e.srv.URL + "/stats")
	if err != nil {
		return fmt.Errorf("GET /stats: %w", err)
	}
	err = json.NewDecoder(res.Body).Decode(&st)
	res.Body.Close()
	if err != nil {
		return fmt.Errorf("decode /stats: %w", err)
	}
	var sent, ok, tooMany, timeout, direct uint64
	swaps, iters, refines := 0, 0, 0
	for c := 0; c < clients; c++ {
		sent += e.sent[c]
		ok += e.status[c][http.StatusOK]
		tooMany += e.status[c][http.StatusTooManyRequests]
		timeout += e.status[c][http.StatusGatewayTimeout]
		direct += e.submits[c]
		swaps += e.swaps[c]
		iters += e.iters[c]
		refines += e.refines[c]
	}
	var errs []error
	if ok != sent {
		errs = append(errs, fmt.Errorf("http-solve: %d of %d requests answered 200 (statuses %v %v)", ok, sent, e.status[0], e.status[1]))
	}
	if st.Stream.Submitted != ok+direct || st.Stream.Shed != tooMany || st.Stream.Expired != timeout {
		errs = append(errs, fmt.Errorf("http-solve: /stats %+v disagrees with client counts: 200=%d 429=%d 504=%d direct=%d",
			st.Stream, ok, tooMany, timeout, direct))
	}
	if err := checkStream(e.s, sent+direct, 0); err != nil {
		errs = append(errs, err)
	}
	if swaps == 0 {
		errs = append(errs, fmt.Errorf("http-solve: no partial-pivoting row exchange reported"))
	}
	if refines == 0 || iters == 0 {
		errs = append(errs, fmt.Errorf("http-solve: refinement share ran %d requests with %d correction cycles", refines, iters))
	}
	return errors.Join(errs...)
}
