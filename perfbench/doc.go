// Command perfbench is the repository's end-to-end benchmark. It drives
// two workloads through the public entry points of internal/stream, and a
// third, by name only, through internal/solved. It checks every result
// bit for bit against a serial answer computed in set-up and prints one
// JSON line of metrics.
//
// # Running
//
// From the root of the repository:
//
//	bash perfbench/run.sh --workload dense-solve --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh --workload dense-solve --seed 1 --seconds 50 --trace 1
//	bash perfbench/run.sh --steady 10 --seed 1 --seconds 50
//
// run.sh builds the command from source into .bench_build and runs it;
// the Go cache, the binary and the span files of traced runs all stay
// under .bench_build. The last line of standard output is
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 tracing is off and the metrics are the end-to-end ones.
// With --trace 1 the workload is replayed with spans around every public
// call the load makes, followed by a serial ladder through the layers
// below, and the metrics are the per-layer ones; the spans are written to
// .bench_build/spans/<workload>-seed<n>.jsonl, one JSON object per span
// with its op, name, parent, start and end. --steady runs each workload
// of BENCHMARK.json the given number of times, each run a process of its
// own with its own seed, interleaved, and prints each end-to-end metric's
// median, quartiles and spread: the figures the bounds were set from.
//
// The command exits non-zero on any wrong result, on any counter that
// disagrees (submitted != completed after Flush, attempts != submitted +
// shed, client status counts != GET /stats), when a workload did not
// exercise what its name says, or when preallocated storage overflowed.
//
// # Load
//
// Load comes from one process: two client goroutines in the closed loops,
// one generator and one collector goroutine in the open loop. Every
// scheduler is built with Shards: 2. Every rate, mix and size is a
// constant; nothing is calibrated to the speed of the machine, so a faster
// program receives the same load. Inputs are made from --seed; the seed
// changes values and order, never the amount of work. Latency samples go
// into storage preallocated outside the Go heap, so the harness allocates
// nothing per op (apart from http-solve's HTTP clients, which
// loadgen.alloc_bytes_per_op prices) and heap_peak_mb measures the
// program, not the harness.
//
// # Workloads
//
// dense-solve: closed loop, 2 clients, each calling SubmitSolveIntoOpts
// with n=128 on w=8, compiled engine, on a 2-shard scheduler, round-robin
// over 8 seeded diagonally dominant systems of one shape. Each op spends
// about 5 ms (9 ms in the host's slow periods) in the replay kernels
// (schedule), the BlockLU tiles (solve) and the triangular phases
// (trisolve); the stream ticket is under 1% and the HTTP facade takes
// nothing. Kernel and solver changes show here;
// ticket and HTTP changes should not move it.
//
// mixed-stream: open loop, one generator sending at a constant 17500 jobs/s
// and one collector redeeming tickets in send order, all on one 2-shard
// scheduler, every job with a 500 ms deadline and a quarter of them at
// Low priority. The mix, in exact shares shuffled by the seed, is 80%
// single-vector sparse stencil jobs (SubmitSparseMatVecIntoQoS), 12% k=16
// sparse batches on the same stencil (SubmitSparseBatchIntoQoS) and 8%
// n=32 w=4 solves (SubmitSolveIntoQoS). Jobs of about 1 µs and about
// 200 µs share the shards, so per-ticket overhead, queue wait and deadline
// admission decide the latency; sparse-kernel gains show in the batch
// share. Latency is measured from each job's scheduled send time, and the
// traced run reports how late the generator ran. The saturated throughput
// of this mix, measured with the same generator and collector and no
// deadline, was about 70000 jobs/s on a 2-core host (nproc 2, GOMAXPROCS
// 2, go1.24.0). At half of it (35000 jobs/s) p50 and p95 latency spread
// by 23% and 49% across five seeds, wider than any bound the benchmark
// may set, so the rate is a quarter of it. Each shard's queue bound holds
// every job that can be in flight, so a Low job never meets a full queue;
// at this rate no job was shed or expired in any measured run. One that
// is counts as failed and lowers ok_frac and slo_met_frac.
//
// http-solve, which runs by name but is not in BENCHMARK.json: closed
// loop, 2 clients over 2 keep-alive loopback connections to an httptest
// server wrapping solved.New on its own 2-shard scheduler. Requests are POST /solve with n=32, w=4, engine "compiled"
// and pivot "partial" on row-scrambled systems (partial pivoting must
// exchange rows); one request in eight also asks for refinement on a
// perturbed growth matrix that really needs a correction cycle. A round
// trip costs about 0.7 ms, of which the solve is about 0.2 ms: JSON,
// net/http, the handler and the ticket are the rest. Work on the HTTP edge
// and on the submission path shows here; kernel gains show only in part.
// Its closed loop passes every request through more goroutines than the
// host has cores, and across ten 30 s runs of the same code its latency_p50_ms spread by
// 42% (interquartile range over median) and ops_per_s by 18%, beyond the
// largest bound the benchmark may set; it is left out rather than let
// every later change be judged against that noise. The solved layer is
// still measured, by the traced runs' ladder, on both workloads.
//
// The oracle engines (linear, hex) serve no traffic, so no workload
// measures them.
//
// # End-to-end metrics (--trace 0)
//
//	setup_s             s      median of 7 cold set-ups, each from the start of set-up
//	                           (inputs, serial answers, scheduler or server, plan
//	                           compilation, a fixed count of warm-up ops) to the first
//	                           timed op; compiled plans are cached per process, so the
//	                           first set-up is the driven one and the other 6 run in
//	                           child processes after the timed phase
//	ops_per_s           1/s    correct completions per second (1 s windows, see below)
//	latency_p50_ms      ms     median per-op latency (1 s windows, see below)
//	latency_p95_ms      ms     95th-percentile per-op latency (1 s windows, see below);
//	                           the log states the samples per window and how many lie
//	                           beyond the p95
//	ok_frac             frac   1 - failed/attempted
//	slo_met_frac        frac   correct within the workload's limit (50 ms dense-solve,
//	                           20 ms http-solve, 5 ms mixed-stream) / attempted
//	heap_peak_mb        MB     peak of the in-use Go heap in the timed phase, sampled
//	                           every 10 ms
//	array_steps_per_op  steps  mean simulated-array steps (the paper's T) per correct op,
//	                           from the returned stats
//
// The timed phase is cut into 1 s windows. ops_per_s is the 90th
// percentile of the windows' completion rates and latency_p50_ms the 10th
// percentile of the windows' medians; latency_p95_ms is the median of the
// windows' 95th percentiles. On a shared 2-core host, other tenants slow
// every CPU-bound step by up to 1.7x for seconds to minutes at a time, and
// never speed it up. Whole-run figures and median windows then moved with
// the share of the run that fell in a slow period: over sets of five to
// ten runs of the same code, dense-solve's ops_per_s and latency_p50_ms
// spread by 11 to 45% (interquartile range over median). The faster
// windows estimate the program's own speed and spread by 4 to 17%. A
// window's 95th percentile already shows its slow moments, and its fast
// end only asks whether the run had any clean second at all (spreads of 7
// to 31%), so the tail is taken from the median window (6 to 19%).
//
// Failed ops are counted as ok_frac = 1 - fail_frac rather than as
// fail_frac, because every workload is built so that no op fails and a
// metric whose value is always 0 cannot carry a relative bound. A failure
// is a wrong result, an unexpected status, a shed, an expiry or an error;
// failed ops also count as SLO misses.
//
// # Per-layer metrics (--trace 1) and what they should move
//
// Timings are medians over the run. A layer's internals cannot be wrapped
// from outside, so after the traced phase the same seeded inputs are
// replayed serially through each layer's public entry point, a ladder:
// schedule exec -> sparse pass or solve workspace -> unloaded stream
// ticket -> solved handler -> HTTP round trip. Self time is the
// difference between adjacent rungs.
//
//	schedule  schedule.exec_us       SparseMatVec.ExecMany, k=16, on packed buffers
//	          schedule.compile_ms    cold SparseMatVecFor, or the first solve's excess
//	                                 over a warm one
//	          schedule.plan_bytes, schedule.macs_per_op
//	          moves: exec_us -> latency_p50_ms on mixed-stream;
//	                 compile_ms -> setup_s on all three
//	sparse    sparse.pass_us         MatVec.PassManyInto on an arena
//	          sparse.self_us         pass - exec
//	          sparse.utilization
//	          moves: latency_p50_ms and slo_met_frac on mixed-stream
//	solve     solve.blocklu_ms       Workspace.BlockLU
//	          solve.solve_ms         Workspace.Solve
//	          solve.row_swaps, solve.refine_iters (per op)
//	          moves: ops_per_s on dense-solve, and in part on http-solve
//	trisolve  trisolve.self_ms       solve_ms - blocklu_ms
//	          moves: ops_per_s on dense-solve
//	stream    stream.submit_us       inside Submit*
//	          stream.ticket_us       Submit to the return of Wait, under load
//	          stream.self_us         unloaded ticket - the rung below
//	          stream.wait_us         loaded - unloaded ticket
//	          stream.queue_depth, stream.service_ewma_us (sampled every 10 ms),
//	          stream.shed_frac, stream.expired_frac (from Stats)
//	          moves: self_us, submit_us -> latency_p50_ms on mixed-stream and
//	                 ops_per_s on http-solve; wait_us, queue_depth ->
//	                 latency_p95_ms on mixed-stream and dense-solve; shed_frac,
//	                 expired_frac, service_ewma_us -> slo_met_frac and ok_frac
//	                 on mixed-stream
//	solved    solved.handler_us      ServeHTTP, wrapped by the benchmark
//	          solved.self_us         unloaded ServeHTTP on a ResponseRecorder -
//	                                 unloaded ticket for the same system
//	          solved.transport_us    client round trip - handler
//	          solved.req_bytes, solved.resp_bytes
//	          moves: ops_per_s and latency_p50_ms on http-solve; nothing elsewhere
//	runtime   runtime.alloc_bytes_per_op, runtime.gc_per_kop, runtime.cpu_ms_per_op
//	loadgen   loadgen.lag_p95_ms, loadgen.alloc_bytes_per_op, trace.overhead_frac
//	          moves: alloc, gc -> heap_peak_mb and latency_p95_ms on http-solve
//	                 and mixed-stream; the rest check that the run is valid
//
// trace.overhead_frac compares latency_p50_ms of the traced half of the
// run with that of the untraced half; it is within the host's noise and
// can be negative. The ladder rungs run serially after the load, so a
// difference between two of them taken at different moments can also be
// negative when the host slowed in between.
//
// # Bounds and measured spreads
//
// BENCHMARK.json has room for the bounds only. They were set from ten
// runs of 50 s per workload (--steady 10 --seed 301 --seconds 50) on a
// 2-core host: nproc 2, GOMAXPROCS 2, go1.24.0. Spread is the
// interquartile range over the median, as dense-solve / mixed-stream:
//
//	metric              bound  spread
//	setup_s             0.25   0.28 / 0.12 (median of 7 set-ups per run)
//	ops_per_s           0.25   0.22 / 0.0002
//	latency_p50_ms      0.25   0.15 / 0.026
//	latency_p95_ms      0.25   0.19 / 0.11
//	ok_frac             0.01   0 / 0
//	slo_met_frac        0.05   0 / 0.0018
//	heap_peak_mb        0.15   0.0001 / 0.0043
//	array_steps_per_op  0.02   0 / 0
//
// The timing bounds are the largest a bound may be. dense-solve's timing
// spreads are above a third of them because the host's slow periods can
// outlast a whole run, when no window of the run is fast. In those runs
// mixed-stream shed and expired no job (ok_frac 1). A traced run of it
// sampled a mean queue depth of about 1.3 jobs and a service-time average
// of about 50 µs per shard, and its generator ran 0.9 ms late at the 95th
// percentile.
//
// # Changes from an earlier version of this benchmark
//
// An earlier version ran four workloads (http-solve, dense-solve,
// sparse-stencil, mixed-qos) and was too noisy: for identical code two
// sets of medians differed by up to 11%. This version keeps dense-solve
// and http-solve, folds sparse-stencil into mixed-stream's single-vector
// and batch jobs, replaces mixed-qos by mixed-stream at a constant rate
// with no run-time calibration, and reports p95 instead of p99: a plain
// solve loop's p99 ranged from 10.5 to 16.9 ms across runs of the same
// code. It moves cpu_ms_per_op from the end-to-end set to the per-layer
// set as runtime.cpu_ms_per_op, because it followed the host's speed
// rather than the program's.
package main
