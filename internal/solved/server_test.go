package solved

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/stream"
)

// newTestServer builds a facade over a fresh scheduler; the cleanup order
// (HTTP server, then stream) matches the ownership contract.
func newTestServer(t *testing.T, cfg stream.Config) (*httptest.Server, *stream.Scheduler) {
	t.Helper()
	s := stream.New(cfg)
	ts := httptest.NewServer(New(Config{Stream: s}))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts, s
}

// postSolve posts one request and decodes the response body into out.
func postSolve(t *testing.T, ts *httptest.Server, req Request, out interface{}) *http.Response {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %d response: %v", resp.StatusCode, err)
		}
	}
	return resp
}

// TestSolveEndpoint200: a well-formed system returns 200 with the solution
// and stats bit-identical to the serial one-shot solve.Solve, on every
// engine selector.
func TestSolveEndpoint200(t *testing.T) {
	ts, _ := newTestServer(t, stream.Config{Shards: 2})
	rng := rand.New(rand.NewSource(17))
	a := matrix.RandomDense(rng, 6, 6, 2)
	for i := 0; i < 6; i++ {
		a.Set(i, i, 20)
	}
	rows := make([][]float64, 6)
	d := make([]float64, 6)
	for i := range rows {
		rows[i] = make([]float64, 6)
		for j := range rows[i] {
			rows[i][j] = a.At(i, j)
		}
		d[i] = float64(i + 1)
	}
	for _, engine := range []string{"", "auto", "compiled", "oracle"} {
		var got Response
		resp := postSolve(t, ts, Request{A: rows, D: d, W: 3, Engine: engine}, &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %q: status %d, want 200", engine, resp.StatusCode)
		}
		eng := core.EngineAuto
		if engine == "oracle" {
			eng = core.EngineOracle
		} else if engine == "compiled" {
			eng = core.EngineCompiled
		}
		wantX, wantStats, err := solve.Solve(a, d, 3, solve.Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(matrix.Vector(got.X), wantX) || !reflect.DeepEqual(got.Stats, *wantStats) {
			t.Errorf("engine %q: HTTP solve diverged from serial", engine)
		}
	}
}

// TestSolveEndpoint422Singular: a singular system returns 422 carrying the
// zero pivot's index — the *solve.SingularError surfaced as JSON — whether
// the factorization meets it (a zero first pivot) or the backward
// triangular phase does (a zero last U pivot, at n−1).
func TestSolveEndpoint422Singular(t *testing.T) {
	ts, _ := newTestServer(t, stream.Config{Shards: 1})
	for _, c := range []struct {
		a     [][]float64
		pivot int
	}{
		{[][]float64{{0, 1}, {1, 1}}, 0},
		{[][]float64{{2, 1, 1}, {2, 2, 1}, {2, 1, 1}}, 2},
	} {
		var got ErrorResponse
		resp := postSolve(t, ts, Request{A: c.a, D: make([]float64, len(c.a)), W: 2}, &got)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%v: status %d, want 422", c.a, resp.StatusCode)
		}
		if got.PivotIndex == nil || *got.PivotIndex != c.pivot {
			t.Errorf("%v: response %+v, want pivot_index %d", c.a, got, c.pivot)
		}
		if got.Error == "" {
			t.Errorf("%v: 422 response carries no error message", c.a)
		}
	}
}

// TestSolveEndpointPivotRefine200: a row-scrambled system that is singular
// under no-pivoting solves to 200 with "pivot":"partial" plus a refine
// block, bit-identical to the serial pivoted+refined solve — permutation,
// row-swap count and condition report survive the JSON round-trip.
func TestSolveEndpointPivotRefine200(t *testing.T) {
	ts, _ := newTestServer(t, stream.Config{Shards: 2})
	rows := [][]float64{
		{0, 2, 1, 0},
		{4, 1, 0, 1},
		{1, 0, 5, 2},
		{0, 1, 2, 6},
	}
	d := []float64{1, 2, 3, 4}
	a := matrix.FromRows(rows)

	// The leading zero makes the unpivoted path fail typed...
	var bad ErrorResponse
	if resp := postSolve(t, ts, Request{A: rows, D: d, W: 2}, &bad); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unpivoted status %d, want 422", resp.StatusCode)
	}

	// ...and the pivoted+refined path solve it exactly like serial.
	req := Request{A: rows, D: d, W: 2, Engine: "compiled", Pivot: "partial", Refine: &RefineRequest{MaxIters: 3}}
	var got Response
	if resp := postSolve(t, ts, req, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("pivoted status %d, want 200", resp.StatusCode)
	}
	opts := solve.Options{
		Engine: core.EngineCompiled,
		Pivot:  solve.PivotPartial,
		Refine: solve.RefineOptions{MaxIters: 3},
	}
	wantX, wantStats, err := solve.Solve(a, d, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(matrix.Vector(got.X), wantX) || !reflect.DeepEqual(got.Stats, *wantStats) {
		t.Errorf("HTTP pivoted solve diverged from serial:\n got %+v\nwant %+v", got.Stats, *wantStats)
	}
	if got.Stats.LU.RowSwaps == 0 || len(got.Stats.LU.Perm) != 4 {
		t.Errorf("stats %+v, want a nontrivial recorded permutation", got.Stats.LU)
	}
	if !got.Stats.Refine.Converged {
		t.Errorf("refine report %+v, want converged", got.Stats.Refine)
	}
}

// TestSolveEndpoint422IllConditioned: a refinement that cannot reach its
// tolerance within budget returns 422 carrying the condition report — the
// *solve.IllConditionedError surfaced as JSON, distinct from the singular
// 422 (which carries pivot_index instead).
func TestSolveEndpoint422IllConditioned(t *testing.T) {
	ts, _ := newTestServer(t, stream.Config{Shards: 1})
	rng := rand.New(rand.NewSource(815))
	a := matrix.RandomDense(rng, 6, 6, 2)
	rows := make([][]float64, 6)
	d := make([]float64, 6)
	for i := range rows {
		a.Set(i, i, 25)
		rows[i] = make([]float64, 6)
		for j := range rows[i] {
			rows[i][j] = a.At(i, j)
		}
		d[i] = float64(i + 1)
	}
	var got ErrorResponse
	resp := postSolve(t, ts, Request{
		A: rows, D: d, W: 2,
		Pivot:  "partial",
		Refine: &RefineRequest{MaxIters: 2, Tol: 1e-300},
	}, &got)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	if got.Condition == nil {
		t.Fatalf("response %+v carries no condition report", got)
	}
	if got.Condition.Converged || got.Condition.Iters != 2 || got.Condition.ResidualNorm <= 0 {
		t.Errorf("condition report %+v, want 2 unconverged iterations with a positive residual", *got.Condition)
	}
	if got.PivotIndex != nil {
		t.Error("ill-conditioned 422 carries a pivot_index; that field is the singular 422's")
	}
	if got.Error == "" {
		t.Error("422 response carries no error message")
	}
}

// TestSolveEndpoint429Saturated: saturation (forced by an always-shedding
// injector) returns 429 with a Retry-After header.
func TestSolveEndpoint429Saturated(t *testing.T) {
	ts, _ := newTestServer(t, stream.Config{
		Shards:   1,
		Policy:   stream.Shed,
		Injector: &stream.Injector{ShedEvery: 1},
	})
	var got ErrorResponse
	resp := postSolve(t, ts, Request{A: [][]float64{{2}}, D: []float64{1}, W: 1}, &got)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want a positive whole-second hint", resp.Header.Get("Retry-After"))
	}
	if got.Error == "" {
		t.Error("429 response carries no error message")
	}
}

// TestSolveEndpoint504Deadline: an unmeetable deadline returns 504. The
// single shard is stalled to ~10ms per job and warmed once so its EWMA
// carries the stall; a 1ms budget is then predictably infeasible and
// admission sheds it with the typed deadline error.
func TestSolveEndpoint504Deadline(t *testing.T) {
	ts, _ := newTestServer(t, stream.Config{
		Shards:   1,
		Injector: &stream.Injector{StallShard: 0, StallDelay: 10 * time.Millisecond},
	})
	if resp := postSolve(t, ts, Request{A: [][]float64{{2}}, D: []float64{1}, W: 1}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d", resp.StatusCode)
	}
	var got ErrorResponse
	resp := postSolve(t, ts, Request{A: [][]float64{{2}}, D: []float64{1}, W: 1, TimeoutMS: 1}, &got)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if got.Error == "" {
		t.Error("504 response carries no error message")
	}
}

// TestWriteFailurePrecedence is the regression for the 429/504 ordering:
// an error wrapping BOTH stream sentinels (ErrSaturated wrapped with
// ErrDeadlineExceeded) must map to 504 — the deadline is spent, so a
// Retry-After hint would invite a doomed retry — while a plain saturation
// still maps to 429 with Retry-After.
func TestWriteFailurePrecedence(t *testing.T) {
	s := stream.New(stream.Config{Shards: 1})
	defer s.Close()
	srv := New(Config{Stream: s})
	gaveUp := fmt.Errorf("gave up: %w: %w", stream.ErrDeadlineExceeded, stream.ErrSaturated)
	rec := httptest.NewRecorder()
	srv.writeFailure(rec, gaveUp)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("double-wrapped give-up mapped to %d, want 504", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Error("504 must not carry a Retry-After hint")
	}
	rec = httptest.NewRecorder()
	srv.writeFailure(rec, stream.ErrSaturated)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("plain saturation mapped to %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 lost its Retry-After hint")
	}
	rec = httptest.NewRecorder()
	srv.writeFailure(rec, &stream.DeadlineError{Expired: true})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("plain deadline expiry mapped to %d, want 504", rec.Code)
	}
}

// TestSolveEndpoint400: malformed bodies — bad JSON, unknown fields,
// ragged or empty systems, mismatched d, bad engine/priority/w — all
// return 400 before any ticket is drawn.
func TestSolveEndpoint400(t *testing.T) {
	ts, s := newTestServer(t, stream.Config{Shards: 1})
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}
	cases := []Request{
		{A: nil, D: nil}, // empty system
		{A: [][]float64{{1, 2}, {3}}, D: []float64{1, 2}},                                        // ragged
		{A: [][]float64{{1, 2}}, D: []float64{1}},                                                // not square
		{A: [][]float64{{2}}, D: []float64{1, 2}},                                                // len(d) mismatch
		{A: [][]float64{{2}}, D: []float64{1}, W: -1},                                            // bad w
		{A: [][]float64{{2, 1}, {1, 2}}, D: []float64{1, 2}, W: MaxW + 1},                        // w over the cap
		{A: [][]float64{{2}}, D: []float64{1}, Engine: "quantum"},                                // bad engine
		{A: [][]float64{{2}}, D: []float64{1}, Priority: "urgent"},                               // bad priority
		{A: [][]float64{{2}}, D: []float64{1}, Pivot: "complete"},                                // bad pivot policy
		{A: [][]float64{{2}}, D: []float64{1}, Refine: &RefineRequest{MaxIters: 0}},              // empty refine budget
		{A: [][]float64{{2}}, D: []float64{1}, Refine: &RefineRequest{MaxIters: 2, Tol: -1e-12}}, // negative tolerance
	}
	for i, c := range cases {
		var got ErrorResponse
		if resp := postSolve(t, ts, c, &got); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		} else if got.Error == "" {
			t.Errorf("case %d: 400 response carries no error message", i)
		}
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Errorf("malformed requests reached the scheduler: %+v", st)
	}
}

// TestSolveEndpoint413: a body over MaxBodyBytes is refused with 413
// before any ticket is drawn.
func TestSolveEndpoint413(t *testing.T) {
	ts, s := newTestServer(t, stream.Config{Shards: 1})
	blob := append([]byte(`{"a":[[2]],"d":[1],"engine":"`), bytes.Repeat([]byte("x"), MaxBodyBytes)...)
	blob = append(blob, `"}`...)
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || got.Error == "" {
		t.Fatalf("status %d (%q), want 413 with a message", resp.StatusCode, got.Error)
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Errorf("an oversized request reached the scheduler: %+v", st)
	}
}

// TestSolveEndpoint405And503: wrong methods return 405 with an Allow
// header; a closed stream returns 503.
func TestSolveEndpoint405And503(t *testing.T) {
	ts, s := newTestServer(t, stream.Config{Shards: 1})
	resp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /solve: status %d Allow %q, want 405 with Allow: POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
	resp, err = http.Post(ts.URL+"/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats: status %d, want 405", resp.StatusCode)
	}

	s.Close()
	var got ErrorResponse
	if resp := postSolve(t, ts, Request{A: [][]float64{{2}}, D: []float64{1}, W: 1}, &got); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed stream: status %d, want 503", resp.StatusCode)
	}
}

// TestStatsEndpoint: /stats reports the shard count's worth of queue
// depths and counters consistent with the served traffic.
func TestStatsEndpoint(t *testing.T) {
	ts, s := newTestServer(t, stream.Config{Shards: 3})
	for i := 0; i < 4; i++ {
		if resp := postSolve(t, ts, Request{A: [][]float64{{2}}, D: []float64{1}, W: 1}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: status %d", resp.StatusCode)
	}
	var got StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.QueueDepths) != s.Shards() {
		t.Errorf("queue_depths has %d entries, want %d", len(got.QueueDepths), s.Shards())
	}
	if got.Stream.Submitted != 4 || got.Stream.Completed != 4 {
		t.Errorf("stream counters %+v, want 4 submitted and completed", got.Stream)
	}
	if got.Stream.Expired != 0 || got.Stream.Panics != 0 {
		t.Errorf("stream counters %+v, want 0 expired and panics on clean traffic", got.Stream)
	}
	if len(got.ServiceEWMAMS) != s.Shards() {
		t.Fatalf("service_ewma_ms has %d entries, want %d", len(got.ServiceEWMAMS), s.Shards())
	}
	warm := 0
	for i, ms := range got.ServiceEWMAMS {
		if ms < 0 {
			t.Errorf("shard %d EWMA %g ms is negative", i, ms)
		}
		if ms > 0 {
			warm++
		}
	}
	if warm == 0 {
		t.Error("no shard reports a warm service EWMA after 4 solves")
	}
}

// TestHealthzEndpoint: GET /healthz is a cheap 200 liveness probe
// reporting the shard count; other methods get 405.
func TestHealthzEndpoint(t *testing.T) {
	ts, s := newTestServer(t, stream.Config{Shards: 2})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: status %d, want 200", resp.StatusCode)
	}
	var got HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "ok" || got.Shards != s.Shards() {
		t.Errorf("health %+v, want ok with %d shards", got, s.Shards())
	}
	presp, err := http.Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed || presp.Header.Get("Allow") != http.MethodGet {
		t.Fatalf("POST /healthz: status %d Allow %q, want 405 with Allow: GET", presp.StatusCode, presp.Header.Get("Allow"))
	}
}

// TestSolveEndpointPriorityLow: a low-priority request sheds (429) at the
// first full queue instead of blocking — the facade forwards the admission
// class, it does not flatten it.
func TestSolveEndpointPriorityLow(t *testing.T) {
	ts, s := newTestServer(t, stream.Config{
		Shards:   1,
		Injector: &stream.Injector{ShedEvery: 1},
	})
	var got ErrorResponse
	resp := postSolve(t, ts, Request{A: [][]float64{{2}}, D: []float64{1}, W: 1, Priority: "low"}, &got)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if st := s.Stats(); st.ShedLow != 1 || st.ShedHigh != 0 {
		t.Errorf("stats %+v, want the shed accounted to the Low class", st)
	}
}
