// Package solved is the HTTP facade of solve-as-a-service: a thin JSON
// layer over the stream scheduler's solve tickets, turning the runtime's
// typed failure surface into status codes a load balancer or client
// library can act on without parsing bodies.
//
//	POST /solve   {"a": [[...],...], "d": [...], "w": 4, ...}  →  {"x": [...], "stats": {...}}
//	GET  /stats                                                →  queue depths + per-shard EWMA + stream counters
//	GET  /healthz                                              →  {"status":"ok","shards":N} liveness probe
//
// The mapping is exact: deadline failures — shed at admission, expired
// while queued, or a retry loop that ran out of deadline
// (stream.ErrDeadlineExceeded, checked before saturation because a retry
// give-up wraps both sentinels) — return 504, queue saturation
// (stream.ErrSaturated) returns 429 with a Retry-After header, a
// singular system (*solve.SingularError) returns 422 with the pivot index,
// an unconverged refinement (*solve.IllConditionedError) returns 422 with
// the condition report, a body over MaxBodyBytes returns 413, malformed
// requests (a w above MaxW among them) return 400, a closed stream
// returns 503, anything else (a recovered job panic, say) returns 500. The
// handler holds no state of its own beyond the scheduler: every request is
// one ticket, submitted with the request's QoS and redeemed before the
// response is written.
package solved

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/stream"
)

// MaxBodyBytes bounds a POST /solve body; a larger one returns 413 before
// it is decoded. 32 MiB holds a dense system of n ≈ 1000 in JSON.
const MaxBodyBytes = 32 << 20

// MaxW caps a request's array size w. A solve's scratch grows with w
// whatever n is, so an unbounded w lets a tiny body claim unbounded memory.
const MaxW = 1024

// Request is the POST /solve body: the system A·x = d plus optional
// execution knobs. Zero-value knobs take the server's defaults.
type Request struct {
	// A is the square system matrix, row-major.
	A [][]float64 `json:"a"`
	// D is the right-hand side; len(D) must equal len(A).
	D []float64 `json:"d"`
	// W is the simulated array size (0 means the server's default).
	W int `json:"w,omitempty"`
	// Engine selects the execution engine: "auto" (or empty), "compiled",
	// "oracle". Both engines return bit-identical solutions.
	Engine string `json:"engine,omitempty"`
	// TimeoutMS, when > 0, attaches a completion deadline now+TimeoutMS to
	// the ticket; an infeasible or expired deadline returns 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Priority selects the admission class: "high" (or empty) blocks for
	// queue space, "low" is shed first under pressure.
	Priority string `json:"priority,omitempty"`
	// Pivot selects the factorization's pivot policy: "none" (or empty)
	// requires nonsingular leading minors, "partial" row-pivots and solves
	// any nonsingular system.
	Pivot string `json:"pivot,omitempty"`
	// Refine, when present, runs iterative refinement after the direct
	// solve; a refinement that fails to converge returns 422 with the
	// condition report instead of an unconverged solution.
	Refine *RefineRequest `json:"refine,omitempty"`
}

// RefineRequest is the optional iterative-refinement block of a Request.
type RefineRequest struct {
	// MaxIters caps the refinement cycles (must be > 0 when the block is
	// present).
	MaxIters int `json:"max_iters"`
	// Tol, when > 0, is the absolute ‖A·x−d‖∞ convergence target; 0 takes
	// the solver's scaled machine-precision default.
	Tol float64 `json:"tol,omitempty"`
}

// Response is the 200 body of POST /solve.
type Response struct {
	// X solves A·x = d, bit-identical to the serial one-shot solver.
	X []float64 `json:"x"`
	// Stats is the solve's array-work accounting, residual included.
	Stats solve.SolveStats `json:"stats"`
}

// ErrorResponse is the body of every non-200 /solve response.
type ErrorResponse struct {
	// Error is the underlying typed error's message.
	Error string `json:"error"`
	// PivotIndex is the zero pivot's index on a 422 (singular system)
	// response, absent otherwise.
	PivotIndex *int `json:"pivot_index,omitempty"`
	// Condition is the refinement's condition report on a 422
	// (ill-conditioned system) response, absent otherwise.
	Condition *solve.ConditionReport `json:"condition,omitempty"`
}

// HealthResponse is the 200 body of GET /healthz.
type HealthResponse struct {
	// Status is "ok" while the facade is serving.
	Status string `json:"status"`
	// Shards is the scheduler's shard count.
	Shards int `json:"shards"`
}

// StatsResponse is the GET /stats body: the stream's admission/failure
// counters plus each shard's instantaneous queue depth — the signals the
// scheduler's own deadline admission works from, exposed for dashboards
// and load balancers.
type StatsResponse struct {
	// Stream snapshots the scheduler counters (submitted, completed,
	// sheds by priority, expiries, recovered panics).
	Stream stream.Stats `json:"stream"`
	// QueueDepths[i] is shard i's current queued-job count.
	QueueDepths []int `json:"queue_depths"`
	// ServiceEWMAMS[i] is shard i's exponentially-weighted moving average
	// service time in milliseconds — the signal deadline admission shedding
	// works from. 0 until the shard completes its first job.
	ServiceEWMAMS []float64 `json:"service_ewma_ms"`
}

// Config wires a Server. Stream is required; the rest defaults.
type Config struct {
	// Stream is the scheduler the facade submits to. The server does not
	// own it: Close it separately, after the HTTP server drains.
	Stream *stream.Scheduler
	// W is the array size used when a request omits w (values < 1 mean 4).
	W int
	// RetryAfter is the Retry-After hint on 429 responses, rounded up to
	// whole seconds (values <= 0 mean 1s).
	RetryAfter time.Duration
}

// Server is the facade handler; build one with New and mount it directly
// (it implements http.Handler, routing /solve and /stats internally).
type Server struct {
	s          *stream.Scheduler
	w          int
	retryAfter time.Duration
	mux        *http.ServeMux
}

// New builds a Server over cfg.Stream.
func New(cfg Config) *Server {
	if cfg.Stream == nil {
		panic("solved: Config.Stream is required")
	}
	srv := &Server{s: cfg.Stream, w: cfg.W, retryAfter: cfg.RetryAfter}
	if srv.w < 1 {
		srv.w = 4
	}
	if srv.retryAfter <= 0 {
		srv.retryAfter = time.Second
	}
	srv.mux = http.NewServeMux()
	srv.mux.HandleFunc("/solve", srv.handleSolve)
	srv.mux.HandleFunc("/stats", srv.handleStats)
	srv.mux.HandleFunc("/healthz", srv.handleHealthz)
	return srv
}

// ServeHTTP dispatches to the facade's routes.
func (srv *Server) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	srv.mux.ServeHTTP(rw, req)
}

// handleSolve is POST /solve: decode, validate, submit one solve ticket
// with the request's QoS, redeem it, map the outcome onto the status
// table in the package comment.
func (srv *Server) handleSolve(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		rw.Header().Set("Allow", http.MethodPost)
		writeError(rw, http.StatusMethodNotAllowed, fmt.Errorf("solved: %s not allowed on /solve, POST a system", req.Method))
		return
	}
	var body Request
	dec := json.NewDecoder(http.MaxBytesReader(rw, req.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(rw, http.StatusRequestEntityTooLarge, fmt.Errorf("solved: request body over %d bytes", MaxBodyBytes))
			return
		}
		writeError(rw, http.StatusBadRequest, fmt.Errorf("solved: bad request body: %w", err))
		return
	}
	n := len(body.A)
	if n == 0 {
		writeError(rw, http.StatusBadRequest, errors.New("solved: empty system"))
		return
	}
	for i, row := range body.A {
		if len(row) != n {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("solved: row %d has %d entries, want %d (square system)", i, len(row), n))
			return
		}
	}
	if len(body.D) != n {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("solved: len(d)=%d, want %d", len(body.D), n))
		return
	}
	w := body.W
	if w == 0 {
		w = srv.w
	}
	if w < 1 || w > MaxW {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("solved: invalid array size %d (want 1..%d)", w, MaxW))
		return
	}
	var eng core.Engine
	switch body.Engine {
	case "", "auto":
		eng = core.EngineAuto
	case "compiled":
		eng = core.EngineCompiled
	case "oracle":
		eng = core.EngineOracle
	default:
		writeError(rw, http.StatusBadRequest, fmt.Errorf("solved: unknown engine %q", body.Engine))
		return
	}
	var q stream.QoS
	switch body.Priority {
	case "", "high":
		q.Priority = stream.High
	case "low":
		q.Priority = stream.Low
	default:
		writeError(rw, http.StatusBadRequest, fmt.Errorf("solved: unknown priority %q", body.Priority))
		return
	}
	if body.TimeoutMS > 0 {
		q.Deadline = time.Now().Add(time.Duration(body.TimeoutMS) * time.Millisecond)
	}
	opts := solve.Options{Engine: eng}
	switch body.Pivot {
	case "", "none":
		opts.Pivot = solve.PivotNone
	case "partial":
		opts.Pivot = solve.PivotPartial
	default:
		writeError(rw, http.StatusBadRequest, fmt.Errorf("solved: unknown pivot policy %q", body.Pivot))
		return
	}
	if body.Refine != nil {
		if body.Refine.MaxIters < 1 {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("solved: refine.max_iters must be positive, got %d", body.Refine.MaxIters))
			return
		}
		if body.Refine.Tol < 0 {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("solved: refine.tol must be non-negative, got %g", body.Refine.Tol))
			return
		}
		opts.Refine = solve.RefineOptions{MaxIters: body.Refine.MaxIters, Tol: body.Refine.Tol}
	}

	tk, err := srv.s.SubmitSolveOpts(matrix.FromRows(body.A), body.D, w, opts, q)
	var x matrix.Vector
	var stats *solve.SolveStats
	if err == nil {
		x, stats, err = tk.Wait()
	}
	if err != nil {
		srv.writeFailure(rw, err)
		return
	}
	writeJSON(rw, http.StatusOK, Response{X: x, Stats: *stats})
}

// handleStats is GET /stats.
func (srv *Server) handleStats(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		rw.Header().Set("Allow", http.MethodGet)
		writeError(rw, http.StatusMethodNotAllowed, fmt.Errorf("solved: %s not allowed on /stats", req.Method))
		return
	}
	depths := make([]int, srv.s.Shards())
	ewma := make([]float64, srv.s.Shards())
	for i := range depths {
		depths[i] = srv.s.QueueDepth(i)
		ewma[i] = float64(srv.s.ServiceEWMA(i)) / float64(time.Millisecond)
	}
	writeJSON(rw, http.StatusOK, StatsResponse{Stream: srv.s.Stats(), QueueDepths: depths, ServiceEWMAMS: ewma})
}

// handleHealthz is GET /healthz: a cheap liveness probe for load
// balancers — it reads one scheduler accessor and never touches a queue.
func (srv *Server) handleHealthz(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		rw.Header().Set("Allow", http.MethodGet)
		writeError(rw, http.StatusMethodNotAllowed, fmt.Errorf("solved: %s not allowed on /healthz", req.Method))
		return
	}
	writeJSON(rw, http.StatusOK, HealthResponse{Status: "ok", Shards: srv.s.Shards()})
}

// writeFailure maps a submit or ticket error onto the facade's status
// table; see the package comment.
func (srv *Server) writeFailure(rw http.ResponseWriter, err error) {
	var serr *solve.SingularError
	var cerr *solve.IllConditionedError
	switch {
	// Deadline first: an error that wraps both sentinels (a saturation
	// wrapped with ErrDeadlineExceeded) means the request's deadline ran
	// out, which is a timeout, not a retryable 429 — Retry-After would
	// invite a retry the deadline already disallows.
	case errors.Is(err, stream.ErrDeadlineExceeded):
		writeError(rw, http.StatusGatewayTimeout, err)
	case errors.Is(err, stream.ErrSaturated):
		secs := int((srv.retryAfter + time.Second - 1) / time.Second)
		rw.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(rw, http.StatusTooManyRequests, err)
	case errors.As(err, &serr):
		idx := serr.Index
		writeJSON(rw, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error(), PivotIndex: &idx})
	case errors.As(err, &cerr):
		rep := cerr.Report
		writeJSON(rw, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error(), Condition: &rep})
	case errors.Is(err, stream.ErrClosed):
		writeError(rw, http.StatusServiceUnavailable, err)
	default:
		writeError(rw, http.StatusInternalServerError, err)
	}
}

// writeError writes a bare ErrorResponse with the given status.
func writeError(rw http.ResponseWriter, status int, err error) {
	writeJSON(rw, status, ErrorResponse{Error: err.Error()})
}

// writeJSON writes v with the given status.
func writeJSON(rw http.ResponseWriter, status int, v interface{}) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}
