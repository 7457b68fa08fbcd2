package schedule

import (
	"os"
	"sync"
)

// This file holds the shared replay kernels every compiled plan dispatches
// into (DESIGN §12). The plan compilers emit each row's gather as contiguous
// *runs* over the operand buffers — at most two per dense or sparse matvec
// band row, read straight out of the padded grid (the Ū→L̄ wrap is the only
// break), a clamped span per packed trisolve row, at most two per flattened
// matmul chain — so the hot loop is straight slice arithmetic instead of a
// per-MAC index gather. Two idioms keep the bounds checker out of the inner
// loops:
//
//   - re-slice every operand to its exact extent up front (`x = x[:len(a)]`,
//     `xu = xu[:8:8]`): after that, constant indices and `range`-bounded
//     accesses are provably in range;
//   - in the unrolled width specializations, give each row a compile-time
//     constant trip count so the loop body is branch-free straight-line code
//     with one scalar accumulator per row (arrays spill; variable trip
//     counts defeat the branch predictor and run *slower* than the gather
//     they replace).
//
// Accumulation order is load-bearing: per result element the terms must be
// added in exactly the array's cycle order (increasing diagonal for the
// linear array, increasing κ for the hexagonal array, descending diagonal
// for the triangular solver) or the float64 rounding trail diverges from
// the structural oracle. The kernels therefore never reassociate within a
// row — every `v += term` is a separate statement — but they freely
// interleave *independent* rows (the quad layouts below) because rows only
// depend on outputs at feedback distance ≥ w, which block boundaries
// respect. The matmul plan interleaves four
// flattened C-element chains (dotRun4, or a rotation body), which are
// independent by construction.
//
// To add a width specialization:
//
//  1. write the unrolled grid kernels (single and two-vector), add a kern
//     constant and extend kernelFor;
//  2. for the matmul plan, add the width to genrot.go's list, run
//     go generate ./internal/schedule and extend rotKernelFor with the new
//     rotKernels table;
//  3. extend the pinning tests in kernel_test.go that prove the new kernels
//     bit-identical to the generic ones on randomized data, and the
//     rotation census test's width list.

//go:generate go run genrot.go

// kern selects a replay kernel family at plan-compile time.
type kern uint8

const (
	kernGeneric kern = iota // any width: run-sliced loops
	kernW4                  // unrolled straight-line kernels for w = 4
	kernW8                  // unrolled straight-line kernels for w = 8
)

// rotKernel is the pair of straight-line bodies that replay a rotation
// group of the matmul plan (compileMatMul marks them). Every op of such a
// group is its E element plus one w-term dot product of the padded-A row
// at a₀−r and the transposed-B row at b₀−r, in κ order (r+t) mod w, where
// the rotation r is the group's second-run length n₁. The bodies are
// generated (genrot.go, kernel_rot.go), one per (w, r): constant indices,
// four interleaved chains, every term a separate statement in κ order.
type rotKernel struct {
	// stripe replays a stripe whose B step is 0, B-stationary: it loads
	// the stripe's w B̂ values into locals once, then streams its quads of
	// A rows past them.
	stripe func(a, bt, e, c []float64, st *matmulStripe)
	// loose replays the whole quads of ops, loading each op's B̂ row; the
	// caller replays the len(ops) mod 4 left over.
	loose func(a, bt, e, c []float64, ops []matmulOp)
}

// rotKernelFor returns the rotation bodies of width w and rotation r, or
// nil when w has none.
func rotKernelFor(w, r int) *rotKernel {
	switch w {
	case 4:
		return &rotKernels4[r]
	case 8:
		return &rotKernels8[r]
	}
	return nil
}

// genericKernelsOnly pins every plan to the generic kernels (CI's
// kernel-generic job sets REPRO_GENERIC_KERNELS so the fallback path cannot
// rot). genericKernels reads the variable once, on the first plan compile:
// plans are cached globally, so flipping it mid-process would race with
// cached plans compiled under the other setting. The read is lazy rather
// than a package-level initializer so that it happens while a test binary
// logs its environment reads, and go test's result cache keys on it.
var (
	genericKernelsOnly bool
	genericKernelsOnce sync.Once
)

// genericKernels reports whether REPRO_GENERIC_KERNELS pins every plan to
// the generic kernels.
func genericKernels() bool {
	genericKernelsOnce.Do(func() {
		genericKernelsOnly = os.Getenv("REPRO_GENERIC_KERNELS") != ""
	})
	return genericKernelsOnly
}

// kernelFor picks the kernel family for an array width.
func kernelFor(w int) kern {
	if genericKernels() {
		return kernGeneric
	}
	switch w {
	case 4:
		return kernW4
	case 8:
		return kernW8
	}
	return kernGeneric
}

// dotRun accumulates v += a[d]·x[d] for d increasing — the generic forward
// run kernel. The re-slice of x lets the compiler drop both bounds checks.
func dotRun(v float64, a, x []float64) float64 {
	x = x[:len(a)]
	for d, c := range a {
		v += c * x[d]
	}
	return v
}

// dotRunRev accumulates v += a[n−1−t]·x[t] for t increasing — the terms of
// a reversed run, i.e. descending-diagonal order over a coefficient span
// stored diagonal-ascending (the trisolve band layout).
func dotRunRev(v float64, a, x []float64) float64 {
	x = x[:len(a)]
	for t := range x {
		v += a[len(a)-1-t] * x[t]
	}
	return v
}

// dotRunRev3 is dotRunRev unrolled for a 3-term span (w = 4 trisolve rows).
func dotRunRev3(v float64, a, x []float64) float64 {
	a = a[:3]
	x = x[:3]
	v += a[2] * x[0]
	v += a[1] * x[1]
	v += a[0] * x[2]
	return v
}

// dotRunRev7 is dotRunRev unrolled for a 7-term span (w = 8 trisolve rows).
func dotRunRev7(v float64, a, x []float64) float64 {
	a = a[:7]
	x = x[:7]
	v += a[6] * x[0]
	v += a[5] * x[1]
	v += a[4] * x[2]
	v += a[3] * x[3]
	v += a[2] * x[4]
	v += a[1] * x[5]
	v += a[0] * x[6]
	return v
}

// gridBlockGeneric replays one w-row block straight off the padded grid:
// row a starts from ini[a], adds its Ū run u[a·s+c]·xu[c] for c = a..w−1
// (diagonals 0..w−1−a), then its L̄ run lo[a·s+c]·xl[c] for c = 0..a−1
// (diagonals w−a..w−1). s is the padded row stride. Row 0 has no L̄ run —
// the empty-run case the compiler never materializes.
func gridBlockGeneric(out, ini, u, lo, xu, xl []float64, s, w int) {
	for a := 0; a < w; a++ {
		v := dotRun(ini[a], u[a*s+a:a*s+w], xu[a:])
		out[a] = dotRun(v, lo[a*s:a*s+a], xl)
	}
}

// gridBlock4 is gridBlockGeneric unrolled for w = 4, diagonal-major: at
// diagonal d, row a reads u[a·s+a+d]·xu[a+d] while a+d < 4 and wraps to
// lo[a·s+a+d−4]·xl[a+d−4] after. Each row's terms stay in increasing-d
// order; the four independent accumulator chains interleave for ILP.
func gridBlock4(out, ini, u, lo, xu, xl []float64, s int) {
	xu = xu[:4:4]
	xl = xl[:4:4]
	ini = ini[:4]
	v0, v1, v2, v3 := ini[0], ini[1], ini[2], ini[3]
	// d = 0
	v0 += u[0] * xu[0]
	v1 += u[s+1] * xu[1]
	v2 += u[2*s+2] * xu[2]
	v3 += u[3*s+3] * xu[3]
	// d = 1
	v0 += u[1] * xu[1]
	v1 += u[s+2] * xu[2]
	v2 += u[2*s+3] * xu[3]
	v3 += lo[3*s] * xl[0]
	// d = 2
	v0 += u[2] * xu[2]
	v1 += u[s+3] * xu[3]
	v2 += lo[2*s] * xl[0]
	v3 += lo[3*s+1] * xl[1]
	// d = 3
	v0 += u[3] * xu[3]
	v1 += lo[s] * xl[0]
	v2 += lo[2*s+1] * xl[1]
	v3 += lo[3*s+2] * xl[2]
	out = out[:4]
	out[0] = v0
	out[1] = v1
	out[2] = v2
	out[3] = v3
}

// gridBlock4x2 replays one w = 4 block for two independent right-hand-side
// vectors in a single pass — the batched-replay kernel behind ExecMany. Each
// coefficient is loaded once and feeds both vectors' accumulator chains,
// doubling the independent add chains per load: the single-vector kernel's
// four chains leave the adder latency-bound, eight keep it busy. Per vector
// every row's terms stay in gridBlock4's increasing-diagonal order (the two
// vectors are independent problems; interleaving them never reassociates
// within a row), so each output is bit-identical to two separate calls.
func gridBlock4x2(out0, out1, ini0, ini1, u, lo, xu0, xl0, xu1, xl1 []float64, s int) {
	xu0 = xu0[:4:4]
	xl0 = xl0[:4:4]
	xu1 = xu1[:4:4]
	xl1 = xl1[:4:4]
	ini0 = ini0[:4]
	ini1 = ini1[:4]
	p0, p1, p2, p3 := ini0[0], ini0[1], ini0[2], ini0[3]
	q0, q1, q2, q3 := ini1[0], ini1[1], ini1[2], ini1[3]
	// d = 0
	c := u[0]
	p0 += c * xu0[0]
	q0 += c * xu1[0]
	c = u[s+1]
	p1 += c * xu0[1]
	q1 += c * xu1[1]
	c = u[2*s+2]
	p2 += c * xu0[2]
	q2 += c * xu1[2]
	c = u[3*s+3]
	p3 += c * xu0[3]
	q3 += c * xu1[3]
	// d = 1
	c = u[1]
	p0 += c * xu0[1]
	q0 += c * xu1[1]
	c = u[s+2]
	p1 += c * xu0[2]
	q1 += c * xu1[2]
	c = u[2*s+3]
	p2 += c * xu0[3]
	q2 += c * xu1[3]
	c = lo[3*s]
	p3 += c * xl0[0]
	q3 += c * xl1[0]
	// d = 2
	c = u[2]
	p0 += c * xu0[2]
	q0 += c * xu1[2]
	c = u[s+3]
	p1 += c * xu0[3]
	q1 += c * xu1[3]
	c = lo[2*s]
	p2 += c * xl0[0]
	q2 += c * xl1[0]
	c = lo[3*s+1]
	p3 += c * xl0[1]
	q3 += c * xl1[1]
	// d = 3
	c = u[3]
	p0 += c * xu0[3]
	q0 += c * xu1[3]
	c = lo[s]
	p1 += c * xl0[0]
	q1 += c * xl1[0]
	c = lo[2*s+1]
	p2 += c * xl0[1]
	q2 += c * xl1[1]
	c = lo[3*s+2]
	p3 += c * xl0[2]
	q3 += c * xl1[2]
	out0 = out0[:4]
	out0[0] = p0
	out0[1] = p1
	out0[2] = p2
	out0[3] = p3
	out1 = out1[:4]
	out1[0] = q0
	out1[1] = q1
	out1[2] = q2
	out1[3] = q3
}

// gridBlock8x2 is the two-vector batched kernel for w = 8: two diagonal-major
// quads of rows, each quad carrying both vectors' accumulators (eight live
// chains per quad — the same load-once/feed-both structure as gridBlock4x2).
func gridBlock8x2(out0, out1, ini0, ini1, u, lo, xu0, xl0, xu1, xl1 []float64, s int) {
	xu0 = xu0[:8:8]
	xl0 = xl0[:8:8]
	xu1 = xu1[:8:8]
	xl1 = xl1[:8:8]
	ini0 = ini0[:8]
	ini1 = ini1[:8]
	out0 = out0[:8]
	out1 = out1[:8]
	{
		p0, p1, p2, p3 := ini0[0], ini0[1], ini0[2], ini0[3]
		q0, q1, q2, q3 := ini1[0], ini1[1], ini1[2], ini1[3]
		// d = 0
		c := u[0]
		p0 += c * xu0[0]
		q0 += c * xu1[0]
		c = u[s+1]
		p1 += c * xu0[1]
		q1 += c * xu1[1]
		c = u[2*s+2]
		p2 += c * xu0[2]
		q2 += c * xu1[2]
		c = u[3*s+3]
		p3 += c * xu0[3]
		q3 += c * xu1[3]
		// d = 1
		c = u[1]
		p0 += c * xu0[1]
		q0 += c * xu1[1]
		c = u[s+2]
		p1 += c * xu0[2]
		q1 += c * xu1[2]
		c = u[2*s+3]
		p2 += c * xu0[3]
		q2 += c * xu1[3]
		c = u[3*s+4]
		p3 += c * xu0[4]
		q3 += c * xu1[4]
		// d = 2
		c = u[2]
		p0 += c * xu0[2]
		q0 += c * xu1[2]
		c = u[s+3]
		p1 += c * xu0[3]
		q1 += c * xu1[3]
		c = u[2*s+4]
		p2 += c * xu0[4]
		q2 += c * xu1[4]
		c = u[3*s+5]
		p3 += c * xu0[5]
		q3 += c * xu1[5]
		// d = 3
		c = u[3]
		p0 += c * xu0[3]
		q0 += c * xu1[3]
		c = u[s+4]
		p1 += c * xu0[4]
		q1 += c * xu1[4]
		c = u[2*s+5]
		p2 += c * xu0[5]
		q2 += c * xu1[5]
		c = u[3*s+6]
		p3 += c * xu0[6]
		q3 += c * xu1[6]
		// d = 4
		c = u[4]
		p0 += c * xu0[4]
		q0 += c * xu1[4]
		c = u[s+5]
		p1 += c * xu0[5]
		q1 += c * xu1[5]
		c = u[2*s+6]
		p2 += c * xu0[6]
		q2 += c * xu1[6]
		c = u[3*s+7]
		p3 += c * xu0[7]
		q3 += c * xu1[7]
		// d = 5
		c = u[5]
		p0 += c * xu0[5]
		q0 += c * xu1[5]
		c = u[s+6]
		p1 += c * xu0[6]
		q1 += c * xu1[6]
		c = u[2*s+7]
		p2 += c * xu0[7]
		q2 += c * xu1[7]
		c = lo[3*s]
		p3 += c * xl0[0]
		q3 += c * xl1[0]
		// d = 6
		c = u[6]
		p0 += c * xu0[6]
		q0 += c * xu1[6]
		c = u[s+7]
		p1 += c * xu0[7]
		q1 += c * xu1[7]
		c = lo[2*s]
		p2 += c * xl0[0]
		q2 += c * xl1[0]
		c = lo[3*s+1]
		p3 += c * xl0[1]
		q3 += c * xl1[1]
		// d = 7
		c = u[7]
		p0 += c * xu0[7]
		q0 += c * xu1[7]
		c = lo[s]
		p1 += c * xl0[0]
		q1 += c * xl1[0]
		c = lo[2*s+1]
		p2 += c * xl0[1]
		q2 += c * xl1[1]
		c = lo[3*s+2]
		p3 += c * xl0[2]
		q3 += c * xl1[2]
		out0[0] = p0
		out0[1] = p1
		out0[2] = p2
		out0[3] = p3
		out1[0] = q0
		out1[1] = q1
		out1[2] = q2
		out1[3] = q3
	}
	{
		p4, p5, p6, p7 := ini0[4], ini0[5], ini0[6], ini0[7]
		q4, q5, q6, q7 := ini1[4], ini1[5], ini1[6], ini1[7]
		// d = 0
		c := u[4*s+4]
		p4 += c * xu0[4]
		q4 += c * xu1[4]
		c = u[5*s+5]
		p5 += c * xu0[5]
		q5 += c * xu1[5]
		c = u[6*s+6]
		p6 += c * xu0[6]
		q6 += c * xu1[6]
		c = u[7*s+7]
		p7 += c * xu0[7]
		q7 += c * xu1[7]
		// d = 1
		c = u[4*s+5]
		p4 += c * xu0[5]
		q4 += c * xu1[5]
		c = u[5*s+6]
		p5 += c * xu0[6]
		q5 += c * xu1[6]
		c = u[6*s+7]
		p6 += c * xu0[7]
		q6 += c * xu1[7]
		c = lo[7*s]
		p7 += c * xl0[0]
		q7 += c * xl1[0]
		// d = 2
		c = u[4*s+6]
		p4 += c * xu0[6]
		q4 += c * xu1[6]
		c = u[5*s+7]
		p5 += c * xu0[7]
		q5 += c * xu1[7]
		c = lo[6*s]
		p6 += c * xl0[0]
		q6 += c * xl1[0]
		c = lo[7*s+1]
		p7 += c * xl0[1]
		q7 += c * xl1[1]
		// d = 3
		c = u[4*s+7]
		p4 += c * xu0[7]
		q4 += c * xu1[7]
		c = lo[5*s]
		p5 += c * xl0[0]
		q5 += c * xl1[0]
		c = lo[6*s+1]
		p6 += c * xl0[1]
		q6 += c * xl1[1]
		c = lo[7*s+2]
		p7 += c * xl0[2]
		q7 += c * xl1[2]
		// d = 4
		c = lo[4*s]
		p4 += c * xl0[0]
		q4 += c * xl1[0]
		c = lo[5*s+1]
		p5 += c * xl0[1]
		q5 += c * xl1[1]
		c = lo[6*s+2]
		p6 += c * xl0[2]
		q6 += c * xl1[2]
		c = lo[7*s+3]
		p7 += c * xl0[3]
		q7 += c * xl1[3]
		// d = 5
		c = lo[4*s+1]
		p4 += c * xl0[1]
		q4 += c * xl1[1]
		c = lo[5*s+2]
		p5 += c * xl0[2]
		q5 += c * xl1[2]
		c = lo[6*s+3]
		p6 += c * xl0[3]
		q6 += c * xl1[3]
		c = lo[7*s+4]
		p7 += c * xl0[4]
		q7 += c * xl1[4]
		// d = 6
		c = lo[4*s+2]
		p4 += c * xl0[2]
		q4 += c * xl1[2]
		c = lo[5*s+3]
		p5 += c * xl0[3]
		q5 += c * xl1[3]
		c = lo[6*s+4]
		p6 += c * xl0[4]
		q6 += c * xl1[4]
		c = lo[7*s+5]
		p7 += c * xl0[5]
		q7 += c * xl1[5]
		// d = 7
		c = lo[4*s+3]
		p4 += c * xl0[3]
		q4 += c * xl1[3]
		c = lo[5*s+4]
		p5 += c * xl0[4]
		q5 += c * xl1[4]
		c = lo[6*s+5]
		p6 += c * xl0[5]
		q6 += c * xl1[5]
		c = lo[7*s+6]
		p7 += c * xl0[6]
		q7 += c * xl1[6]
		out0[4] = p4
		out0[5] = p5
		out0[6] = p6
		out0[7] = p7
		out1[4] = q4
		out1[5] = q5
		out1[6] = q6
		out1[7] = q7
	}
}

// gridBlock8 is gridBlockGeneric unrolled for w = 8: two diagonal-major
// quads of rows (eight live accumulators would spill).
func gridBlock8(out, ini, u, lo, xu, xl []float64, s int) {
	xu = xu[:8:8]
	xl = xl[:8:8]
	ini = ini[:8]
	out = out[:8]
	{
		v0, v1, v2, v3 := ini[0], ini[1], ini[2], ini[3]
		// d = 0
		v0 += u[0] * xu[0]
		v1 += u[s+1] * xu[1]
		v2 += u[2*s+2] * xu[2]
		v3 += u[3*s+3] * xu[3]
		// d = 1
		v0 += u[1] * xu[1]
		v1 += u[s+2] * xu[2]
		v2 += u[2*s+3] * xu[3]
		v3 += u[3*s+4] * xu[4]
		// d = 2
		v0 += u[2] * xu[2]
		v1 += u[s+3] * xu[3]
		v2 += u[2*s+4] * xu[4]
		v3 += u[3*s+5] * xu[5]
		// d = 3
		v0 += u[3] * xu[3]
		v1 += u[s+4] * xu[4]
		v2 += u[2*s+5] * xu[5]
		v3 += u[3*s+6] * xu[6]
		// d = 4
		v0 += u[4] * xu[4]
		v1 += u[s+5] * xu[5]
		v2 += u[2*s+6] * xu[6]
		v3 += u[3*s+7] * xu[7]
		// d = 5
		v0 += u[5] * xu[5]
		v1 += u[s+6] * xu[6]
		v2 += u[2*s+7] * xu[7]
		v3 += lo[3*s] * xl[0]
		// d = 6
		v0 += u[6] * xu[6]
		v1 += u[s+7] * xu[7]
		v2 += lo[2*s] * xl[0]
		v3 += lo[3*s+1] * xl[1]
		// d = 7
		v0 += u[7] * xu[7]
		v1 += lo[s] * xl[0]
		v2 += lo[2*s+1] * xl[1]
		v3 += lo[3*s+2] * xl[2]
		out[0] = v0
		out[1] = v1
		out[2] = v2
		out[3] = v3
	}
	{
		v4, v5, v6, v7 := ini[4], ini[5], ini[6], ini[7]
		// d = 0
		v4 += u[4*s+4] * xu[4]
		v5 += u[5*s+5] * xu[5]
		v6 += u[6*s+6] * xu[6]
		v7 += u[7*s+7] * xu[7]
		// d = 1
		v4 += u[4*s+5] * xu[5]
		v5 += u[5*s+6] * xu[6]
		v6 += u[6*s+7] * xu[7]
		v7 += lo[7*s] * xl[0]
		// d = 2
		v4 += u[4*s+6] * xu[6]
		v5 += u[5*s+7] * xu[7]
		v6 += lo[6*s] * xl[0]
		v7 += lo[7*s+1] * xl[1]
		// d = 3
		v4 += u[4*s+7] * xu[7]
		v5 += lo[5*s] * xl[0]
		v6 += lo[6*s+1] * xl[1]
		v7 += lo[7*s+2] * xl[2]
		// d = 4
		v4 += lo[4*s] * xl[0]
		v5 += lo[5*s+1] * xl[1]
		v6 += lo[6*s+2] * xl[2]
		v7 += lo[7*s+3] * xl[3]
		// d = 5
		v4 += lo[4*s+1] * xl[1]
		v5 += lo[5*s+2] * xl[2]
		v6 += lo[6*s+3] * xl[3]
		v7 += lo[7*s+4] * xl[4]
		// d = 6
		v4 += lo[4*s+2] * xl[2]
		v5 += lo[5*s+3] * xl[3]
		v6 += lo[6*s+4] * xl[4]
		v7 += lo[7*s+5] * xl[5]
		// d = 7
		v4 += lo[4*s+3] * xl[3]
		v5 += lo[5*s+4] * xl[4]
		v6 += lo[6*s+5] * xl[5]
		v7 += lo[7*s+6] * xl[6]
		out[4] = v4
		out[5] = v5
		out[6] = v6
		out[7] = v7
	}
}

// dotRun4 is dotRun over four runs of length n at once — the a runs at
// a0..a3 paired with the bt runs at b0..b3 — one accumulator each: the
// statements of a chain stay in order, the four chains interleave.
func dotRun4(v0, v1, v2, v3 float64, a, bt []float64, n, a0, a1, a2, a3, b0, b1, b2, b3 int) (float64, float64, float64, float64) {
	x0, y0 := a[a0:][:n], bt[b0:][:n]
	x1, y1 := a[a1:][:n], bt[b1:][:n]
	x2, y2 := a[a2:][:n], bt[b2:][:n]
	x3, y3 := a[a3:][:n], bt[b3:][:n]
	y0, x1, y1 = y0[:len(x0)], x1[:len(x0)], y1[:len(x0)]
	x2, y2, x3, y3 = x2[:len(x0)], y2[:len(x0)], x3[:len(x0)], y3[:len(x0)]
	for k, x := range x0 {
		v0 += x * y0[k]
		v1 += x1[k] * y1[k]
		v2 += x2[k] * y2[k]
		v3 += x3[k] * y3[k]
	}
	return v0, v1, v2, v3
}
