// Code generated by genrot.go; DO NOT EDIT.

package schedule

// rotKernels4 holds the rotation bodies of w = 4, indexed by rotation.
var rotKernels4 = [4]rotKernel{
	{rotStripe4r0, rotLoose4r0},
	{rotStripe4r1, rotLoose4r1},
	{rotStripe4r2, rotLoose4r2},
	{rotStripe4r3, rotLoose4r3},
}

// rotStripe4r0 replays a stripe of rotation 0 at w = 4 with its 4 B̂
// values held in locals.
func rotStripe4r0(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b0:][:4:4]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a0)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a0)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:4:4]
		x1 := a[ab+dA:][:4:4]
		x2 := a[ab+2*dA:][:4:4]
		x3 := a[ab+3*dA:][:4:4]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose4r0 replays the whole quads of ops, loose ops of rotation 0 at
// w = 4, loading each op's B̂ row.
func rotLoose4r0(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a0:][:4:4], bt[p[0].b0:][:4:4]
		x1, y1 := a[p[1].a0:][:4:4], bt[p[1].b0:][:4:4]
		x2, y2 := a[p[2].a0:][:4:4], bt[p[2].b0:][:4:4]
		x3, y3 := a[p[3].a0:][:4:4], bt[p[3].b0:][:4:4]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}

// rotStripe4r1 replays a stripe of rotation 1 at w = 4 with its 4 B̂
// values held in locals.
func rotStripe4r1(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b1:][:4:4]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a1)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a1)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:4:4]
		x1 := a[ab+dA:][:4:4]
		x2 := a[ab+2*dA:][:4:4]
		x3 := a[ab+3*dA:][:4:4]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose4r1 replays the whole quads of ops, loose ops of rotation 1 at
// w = 4, loading each op's B̂ row.
func rotLoose4r1(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a1:][:4:4], bt[p[0].b1:][:4:4]
		x1, y1 := a[p[1].a1:][:4:4], bt[p[1].b1:][:4:4]
		x2, y2 := a[p[2].a1:][:4:4], bt[p[2].b1:][:4:4]
		x3, y3 := a[p[3].a1:][:4:4], bt[p[3].b1:][:4:4]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}

// rotStripe4r2 replays a stripe of rotation 2 at w = 4 with its 4 B̂
// values held in locals.
func rotStripe4r2(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b1:][:4:4]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a1)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a1)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:4:4]
		x1 := a[ab+dA:][:4:4]
		x2 := a[ab+2*dA:][:4:4]
		x3 := a[ab+3*dA:][:4:4]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose4r2 replays the whole quads of ops, loose ops of rotation 2 at
// w = 4, loading each op's B̂ row.
func rotLoose4r2(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a1:][:4:4], bt[p[0].b1:][:4:4]
		x1, y1 := a[p[1].a1:][:4:4], bt[p[1].b1:][:4:4]
		x2, y2 := a[p[2].a1:][:4:4], bt[p[2].b1:][:4:4]
		x3, y3 := a[p[3].a1:][:4:4], bt[p[3].b1:][:4:4]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}

// rotStripe4r3 replays a stripe of rotation 3 at w = 4 with its 4 B̂
// values held in locals.
func rotStripe4r3(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b1:][:4:4]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a1)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a1)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:4:4]
		x1 := a[ab+dA:][:4:4]
		x2 := a[ab+2*dA:][:4:4]
		x3 := a[ab+3*dA:][:4:4]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose4r3 replays the whole quads of ops, loose ops of rotation 3 at
// w = 4, loading each op's B̂ row.
func rotLoose4r3(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a1:][:4:4], bt[p[0].b1:][:4:4]
		x1, y1 := a[p[1].a1:][:4:4], bt[p[1].b1:][:4:4]
		x2, y2 := a[p[2].a1:][:4:4], bt[p[2].b1:][:4:4]
		x3, y3 := a[p[3].a1:][:4:4], bt[p[3].b1:][:4:4]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}

// rotKernels8 holds the rotation bodies of w = 8, indexed by rotation.
var rotKernels8 = [8]rotKernel{
	{rotStripe8r0, rotLoose8r0},
	{rotStripe8r1, rotLoose8r1},
	{rotStripe8r2, rotLoose8r2},
	{rotStripe8r3, rotLoose8r3},
	{rotStripe8r4, rotLoose8r4},
	{rotStripe8r5, rotLoose8r5},
	{rotStripe8r6, rotLoose8r6},
	{rotStripe8r7, rotLoose8r7},
}

// rotStripe8r0 replays a stripe of rotation 0 at w = 8 with its 8 B̂
// values held in locals.
func rotStripe8r0(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b0:][:8:8]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	y4 := y[4]
	y5 := y[5]
	y6 := y[6]
	y7 := y[7]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a0)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a0)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:8:8]
		x1 := a[ab+dA:][:8:8]
		x2 := a[ab+2*dA:][:8:8]
		x3 := a[ab+3*dA:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		v0 += x0[4] * y4
		v1 += x1[4] * y4
		v2 += x2[4] * y4
		v3 += x3[4] * y4
		v0 += x0[5] * y5
		v1 += x1[5] * y5
		v2 += x2[5] * y5
		v3 += x3[5] * y5
		v0 += x0[6] * y6
		v1 += x1[6] * y6
		v2 += x2[6] * y6
		v3 += x3[6] * y6
		v0 += x0[7] * y7
		v1 += x1[7] * y7
		v2 += x2[7] * y7
		v3 += x3[7] * y7
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose8r0 replays the whole quads of ops, loose ops of rotation 0 at
// w = 8, loading each op's B̂ row.
func rotLoose8r0(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a0:][:8:8], bt[p[0].b0:][:8:8]
		x1, y1 := a[p[1].a0:][:8:8], bt[p[1].b0:][:8:8]
		x2, y2 := a[p[2].a0:][:8:8], bt[p[2].b0:][:8:8]
		x3, y3 := a[p[3].a0:][:8:8], bt[p[3].b0:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		v0 += x0[4] * y0[4]
		v1 += x1[4] * y1[4]
		v2 += x2[4] * y2[4]
		v3 += x3[4] * y3[4]
		v0 += x0[5] * y0[5]
		v1 += x1[5] * y1[5]
		v2 += x2[5] * y2[5]
		v3 += x3[5] * y3[5]
		v0 += x0[6] * y0[6]
		v1 += x1[6] * y1[6]
		v2 += x2[6] * y2[6]
		v3 += x3[6] * y3[6]
		v0 += x0[7] * y0[7]
		v1 += x1[7] * y1[7]
		v2 += x2[7] * y2[7]
		v3 += x3[7] * y3[7]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}

// rotStripe8r1 replays a stripe of rotation 1 at w = 8 with its 8 B̂
// values held in locals.
func rotStripe8r1(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b1:][:8:8]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	y4 := y[4]
	y5 := y[5]
	y6 := y[6]
	y7 := y[7]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a1)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a1)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:8:8]
		x1 := a[ab+dA:][:8:8]
		x2 := a[ab+2*dA:][:8:8]
		x3 := a[ab+3*dA:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		v0 += x0[4] * y4
		v1 += x1[4] * y4
		v2 += x2[4] * y4
		v3 += x3[4] * y4
		v0 += x0[5] * y5
		v1 += x1[5] * y5
		v2 += x2[5] * y5
		v3 += x3[5] * y5
		v0 += x0[6] * y6
		v1 += x1[6] * y6
		v2 += x2[6] * y6
		v3 += x3[6] * y6
		v0 += x0[7] * y7
		v1 += x1[7] * y7
		v2 += x2[7] * y7
		v3 += x3[7] * y7
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose8r1 replays the whole quads of ops, loose ops of rotation 1 at
// w = 8, loading each op's B̂ row.
func rotLoose8r1(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a1:][:8:8], bt[p[0].b1:][:8:8]
		x1, y1 := a[p[1].a1:][:8:8], bt[p[1].b1:][:8:8]
		x2, y2 := a[p[2].a1:][:8:8], bt[p[2].b1:][:8:8]
		x3, y3 := a[p[3].a1:][:8:8], bt[p[3].b1:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		v0 += x0[4] * y0[4]
		v1 += x1[4] * y1[4]
		v2 += x2[4] * y2[4]
		v3 += x3[4] * y3[4]
		v0 += x0[5] * y0[5]
		v1 += x1[5] * y1[5]
		v2 += x2[5] * y2[5]
		v3 += x3[5] * y3[5]
		v0 += x0[6] * y0[6]
		v1 += x1[6] * y1[6]
		v2 += x2[6] * y2[6]
		v3 += x3[6] * y3[6]
		v0 += x0[7] * y0[7]
		v1 += x1[7] * y1[7]
		v2 += x2[7] * y2[7]
		v3 += x3[7] * y3[7]
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}

// rotStripe8r2 replays a stripe of rotation 2 at w = 8 with its 8 B̂
// values held in locals.
func rotStripe8r2(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b1:][:8:8]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	y4 := y[4]
	y5 := y[5]
	y6 := y[6]
	y7 := y[7]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a1)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a1)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:8:8]
		x1 := a[ab+dA:][:8:8]
		x2 := a[ab+2*dA:][:8:8]
		x3 := a[ab+3*dA:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		v0 += x0[4] * y4
		v1 += x1[4] * y4
		v2 += x2[4] * y4
		v3 += x3[4] * y4
		v0 += x0[5] * y5
		v1 += x1[5] * y5
		v2 += x2[5] * y5
		v3 += x3[5] * y5
		v0 += x0[6] * y6
		v1 += x1[6] * y6
		v2 += x2[6] * y6
		v3 += x3[6] * y6
		v0 += x0[7] * y7
		v1 += x1[7] * y7
		v2 += x2[7] * y7
		v3 += x3[7] * y7
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose8r2 replays the whole quads of ops, loose ops of rotation 2 at
// w = 8, loading each op's B̂ row.
func rotLoose8r2(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a1:][:8:8], bt[p[0].b1:][:8:8]
		x1, y1 := a[p[1].a1:][:8:8], bt[p[1].b1:][:8:8]
		x2, y2 := a[p[2].a1:][:8:8], bt[p[2].b1:][:8:8]
		x3, y3 := a[p[3].a1:][:8:8], bt[p[3].b1:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		v0 += x0[4] * y0[4]
		v1 += x1[4] * y1[4]
		v2 += x2[4] * y2[4]
		v3 += x3[4] * y3[4]
		v0 += x0[5] * y0[5]
		v1 += x1[5] * y1[5]
		v2 += x2[5] * y2[5]
		v3 += x3[5] * y3[5]
		v0 += x0[6] * y0[6]
		v1 += x1[6] * y1[6]
		v2 += x2[6] * y2[6]
		v3 += x3[6] * y3[6]
		v0 += x0[7] * y0[7]
		v1 += x1[7] * y1[7]
		v2 += x2[7] * y2[7]
		v3 += x3[7] * y3[7]
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}

// rotStripe8r3 replays a stripe of rotation 3 at w = 8 with its 8 B̂
// values held in locals.
func rotStripe8r3(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b1:][:8:8]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	y4 := y[4]
	y5 := y[5]
	y6 := y[6]
	y7 := y[7]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a1)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a1)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:8:8]
		x1 := a[ab+dA:][:8:8]
		x2 := a[ab+2*dA:][:8:8]
		x3 := a[ab+3*dA:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		v0 += x0[4] * y4
		v1 += x1[4] * y4
		v2 += x2[4] * y4
		v3 += x3[4] * y4
		v0 += x0[5] * y5
		v1 += x1[5] * y5
		v2 += x2[5] * y5
		v3 += x3[5] * y5
		v0 += x0[6] * y6
		v1 += x1[6] * y6
		v2 += x2[6] * y6
		v3 += x3[6] * y6
		v0 += x0[7] * y7
		v1 += x1[7] * y7
		v2 += x2[7] * y7
		v3 += x3[7] * y7
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose8r3 replays the whole quads of ops, loose ops of rotation 3 at
// w = 8, loading each op's B̂ row.
func rotLoose8r3(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a1:][:8:8], bt[p[0].b1:][:8:8]
		x1, y1 := a[p[1].a1:][:8:8], bt[p[1].b1:][:8:8]
		x2, y2 := a[p[2].a1:][:8:8], bt[p[2].b1:][:8:8]
		x3, y3 := a[p[3].a1:][:8:8], bt[p[3].b1:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		v0 += x0[4] * y0[4]
		v1 += x1[4] * y1[4]
		v2 += x2[4] * y2[4]
		v3 += x3[4] * y3[4]
		v0 += x0[5] * y0[5]
		v1 += x1[5] * y1[5]
		v2 += x2[5] * y2[5]
		v3 += x3[5] * y3[5]
		v0 += x0[6] * y0[6]
		v1 += x1[6] * y1[6]
		v2 += x2[6] * y2[6]
		v3 += x3[6] * y3[6]
		v0 += x0[7] * y0[7]
		v1 += x1[7] * y1[7]
		v2 += x2[7] * y2[7]
		v3 += x3[7] * y3[7]
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}

// rotStripe8r4 replays a stripe of rotation 4 at w = 8 with its 8 B̂
// values held in locals.
func rotStripe8r4(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b1:][:8:8]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	y4 := y[4]
	y5 := y[5]
	y6 := y[6]
	y7 := y[7]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a1)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a1)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:8:8]
		x1 := a[ab+dA:][:8:8]
		x2 := a[ab+2*dA:][:8:8]
		x3 := a[ab+3*dA:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[4] * y4
		v1 += x1[4] * y4
		v2 += x2[4] * y4
		v3 += x3[4] * y4
		v0 += x0[5] * y5
		v1 += x1[5] * y5
		v2 += x2[5] * y5
		v3 += x3[5] * y5
		v0 += x0[6] * y6
		v1 += x1[6] * y6
		v2 += x2[6] * y6
		v3 += x3[6] * y6
		v0 += x0[7] * y7
		v1 += x1[7] * y7
		v2 += x2[7] * y7
		v3 += x3[7] * y7
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose8r4 replays the whole quads of ops, loose ops of rotation 4 at
// w = 8, loading each op's B̂ row.
func rotLoose8r4(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a1:][:8:8], bt[p[0].b1:][:8:8]
		x1, y1 := a[p[1].a1:][:8:8], bt[p[1].b1:][:8:8]
		x2, y2 := a[p[2].a1:][:8:8], bt[p[2].b1:][:8:8]
		x3, y3 := a[p[3].a1:][:8:8], bt[p[3].b1:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[4] * y0[4]
		v1 += x1[4] * y1[4]
		v2 += x2[4] * y2[4]
		v3 += x3[4] * y3[4]
		v0 += x0[5] * y0[5]
		v1 += x1[5] * y1[5]
		v2 += x2[5] * y2[5]
		v3 += x3[5] * y3[5]
		v0 += x0[6] * y0[6]
		v1 += x1[6] * y1[6]
		v2 += x2[6] * y2[6]
		v3 += x3[6] * y3[6]
		v0 += x0[7] * y0[7]
		v1 += x1[7] * y1[7]
		v2 += x2[7] * y2[7]
		v3 += x3[7] * y3[7]
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}

// rotStripe8r5 replays a stripe of rotation 5 at w = 8 with its 8 B̂
// values held in locals.
func rotStripe8r5(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b1:][:8:8]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	y4 := y[4]
	y5 := y[5]
	y6 := y[6]
	y7 := y[7]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a1)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a1)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:8:8]
		x1 := a[ab+dA:][:8:8]
		x2 := a[ab+2*dA:][:8:8]
		x3 := a[ab+3*dA:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[5] * y5
		v1 += x1[5] * y5
		v2 += x2[5] * y5
		v3 += x3[5] * y5
		v0 += x0[6] * y6
		v1 += x1[6] * y6
		v2 += x2[6] * y6
		v3 += x3[6] * y6
		v0 += x0[7] * y7
		v1 += x1[7] * y7
		v2 += x2[7] * y7
		v3 += x3[7] * y7
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		v0 += x0[4] * y4
		v1 += x1[4] * y4
		v2 += x2[4] * y4
		v3 += x3[4] * y4
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose8r5 replays the whole quads of ops, loose ops of rotation 5 at
// w = 8, loading each op's B̂ row.
func rotLoose8r5(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a1:][:8:8], bt[p[0].b1:][:8:8]
		x1, y1 := a[p[1].a1:][:8:8], bt[p[1].b1:][:8:8]
		x2, y2 := a[p[2].a1:][:8:8], bt[p[2].b1:][:8:8]
		x3, y3 := a[p[3].a1:][:8:8], bt[p[3].b1:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[5] * y0[5]
		v1 += x1[5] * y1[5]
		v2 += x2[5] * y2[5]
		v3 += x3[5] * y3[5]
		v0 += x0[6] * y0[6]
		v1 += x1[6] * y1[6]
		v2 += x2[6] * y2[6]
		v3 += x3[6] * y3[6]
		v0 += x0[7] * y0[7]
		v1 += x1[7] * y1[7]
		v2 += x2[7] * y2[7]
		v3 += x3[7] * y3[7]
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		v0 += x0[4] * y0[4]
		v1 += x1[4] * y1[4]
		v2 += x2[4] * y2[4]
		v3 += x3[4] * y3[4]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}

// rotStripe8r6 replays a stripe of rotation 6 at w = 8 with its 8 B̂
// values held in locals.
func rotStripe8r6(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b1:][:8:8]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	y4 := y[4]
	y5 := y[5]
	y6 := y[6]
	y7 := y[7]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a1)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a1)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:8:8]
		x1 := a[ab+dA:][:8:8]
		x2 := a[ab+2*dA:][:8:8]
		x3 := a[ab+3*dA:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[6] * y6
		v1 += x1[6] * y6
		v2 += x2[6] * y6
		v3 += x3[6] * y6
		v0 += x0[7] * y7
		v1 += x1[7] * y7
		v2 += x2[7] * y7
		v3 += x3[7] * y7
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		v0 += x0[4] * y4
		v1 += x1[4] * y4
		v2 += x2[4] * y4
		v3 += x3[4] * y4
		v0 += x0[5] * y5
		v1 += x1[5] * y5
		v2 += x2[5] * y5
		v3 += x3[5] * y5
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose8r6 replays the whole quads of ops, loose ops of rotation 6 at
// w = 8, loading each op's B̂ row.
func rotLoose8r6(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a1:][:8:8], bt[p[0].b1:][:8:8]
		x1, y1 := a[p[1].a1:][:8:8], bt[p[1].b1:][:8:8]
		x2, y2 := a[p[2].a1:][:8:8], bt[p[2].b1:][:8:8]
		x3, y3 := a[p[3].a1:][:8:8], bt[p[3].b1:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[6] * y0[6]
		v1 += x1[6] * y1[6]
		v2 += x2[6] * y2[6]
		v3 += x3[6] * y3[6]
		v0 += x0[7] * y0[7]
		v1 += x1[7] * y1[7]
		v2 += x2[7] * y2[7]
		v3 += x3[7] * y3[7]
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		v0 += x0[4] * y0[4]
		v1 += x1[4] * y1[4]
		v2 += x2[4] * y2[4]
		v3 += x3[4] * y3[4]
		v0 += x0[5] * y0[5]
		v1 += x1[5] * y1[5]
		v2 += x2[5] * y2[5]
		v3 += x3[5] * y3[5]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}

// rotStripe8r7 replays a stripe of rotation 7 at w = 8 with its 8 B̂
// values held in locals.
func rotStripe8r7(a, bt, e, c []float64, st *matmulStripe) {
	y := bt[st.op.b1:][:8:8]
	y0 := y[0]
	y1 := y[1]
	y2 := y[2]
	y3 := y[3]
	y4 := y[4]
	y5 := y[5]
	y6 := y[6]
	y7 := y[7]
	out, init, ab := int(st.op.out), int(st.op.init), int(st.op.a1)
	dOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.a1)
	for n := st.count; n > 0; n -= 4 {
		x0 := a[ab:][:8:8]
		x1 := a[ab+dA:][:8:8]
		x2 := a[ab+2*dA:][:8:8]
		x3 := a[ab+3*dA:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]
		}
		v0 += x0[7] * y7
		v1 += x1[7] * y7
		v2 += x2[7] * y7
		v3 += x3[7] * y7
		v0 += x0[0] * y0
		v1 += x1[0] * y0
		v2 += x2[0] * y0
		v3 += x3[0] * y0
		v0 += x0[1] * y1
		v1 += x1[1] * y1
		v2 += x2[1] * y1
		v3 += x3[1] * y1
		v0 += x0[2] * y2
		v1 += x1[2] * y2
		v2 += x2[2] * y2
		v3 += x3[2] * y2
		v0 += x0[3] * y3
		v1 += x1[3] * y3
		v2 += x2[3] * y3
		v3 += x3[3] * y3
		v0 += x0[4] * y4
		v1 += x1[4] * y4
		v2 += x2[4] * y4
		v3 += x3[4] * y4
		v0 += x0[5] * y5
		v1 += x1[5] * y5
		v2 += x2[5] * y5
		v3 += x3[5] * y5
		v0 += x0[6] * y6
		v1 += x1[6] * y6
		v2 += x2[6] * y6
		v3 += x3[6] * y6
		c[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3
		out, init, ab = out+4*dOut, init+4*dInit, ab+4*dA
	}
}

// rotLoose8r7 replays the whole quads of ops, loose ops of rotation 7 at
// w = 8, loading each op's B̂ row.
func rotLoose8r7(a, bt, e, c []float64, ops []matmulOp) {
	for ; len(ops) >= 4; ops = ops[4:] {
		p := ops[:4:4]
		x0, y0 := a[p[0].a1:][:8:8], bt[p[0].b1:][:8:8]
		x1, y1 := a[p[1].a1:][:8:8], bt[p[1].b1:][:8:8]
		x2, y2 := a[p[2].a1:][:8:8], bt[p[2].b1:][:8:8]
		x3, y3 := a[p[3].a1:][:8:8], bt[p[3].b1:][:8:8]
		var v0, v1, v2, v3 float64
		if e != nil {
			v0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]
		}
		v0 += x0[7] * y0[7]
		v1 += x1[7] * y1[7]
		v2 += x2[7] * y2[7]
		v3 += x3[7] * y3[7]
		v0 += x0[0] * y0[0]
		v1 += x1[0] * y1[0]
		v2 += x2[0] * y2[0]
		v3 += x3[0] * y3[0]
		v0 += x0[1] * y0[1]
		v1 += x1[1] * y1[1]
		v2 += x2[1] * y2[1]
		v3 += x3[1] * y3[1]
		v0 += x0[2] * y0[2]
		v1 += x1[2] * y1[2]
		v2 += x2[2] * y2[2]
		v3 += x3[2] * y3[2]
		v0 += x0[3] * y0[3]
		v1 += x1[3] * y1[3]
		v2 += x2[3] * y2[3]
		v3 += x3[3] * y3[3]
		v0 += x0[4] * y0[4]
		v1 += x1[4] * y1[4]
		v2 += x2[4] * y2[4]
		v3 += x3[4] * y3[4]
		v0 += x0[5] * y0[5]
		v1 += x1[5] * y1[5]
		v2 += x2[5] * y2[5]
		v3 += x3[5] * y3[5]
		v0 += x0[6] * y0[6]
		v1 += x1[6] * y1[6]
		v2 += x2[6] * y2[6]
		v3 += x3[6] * y3[6]
		c[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3
	}
}
