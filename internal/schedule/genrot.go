//go:build ignore

// Command genrot writes kernel_rot.go, the straight-line rotation replay
// bodies of the matmul plan (see rotKernel in kernel.go): for each width
// w ∈ {4, 8} and rotation r ∈ 0..w−1, one B-stationary stripe body and one
// loose-quad body, each adding its ops' w terms in κ order (r+t) mod w.
// It uses only the standard library. Run it through go generate:
//
//	go generate ./internal/schedule
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
)

func main() {
	var b bytes.Buffer
	b.WriteString(`// Code generated by genrot.go; DO NOT EDIT.

package schedule

`)
	for _, w := range []int{4, 8} {
		fmt.Fprintf(&b, "// rotKernels%d holds the rotation bodies of w = %d, indexed by rotation.\n", w, w)
		fmt.Fprintf(&b, "var rotKernels%d = [%d]rotKernel{\n", w, w)
		for r := 0; r < w; r++ {
			fmt.Fprintf(&b, "\t{rotStripe%dr%d, rotLoose%dr%d},\n", w, r, w, r)
		}
		b.WriteString("}\n\n")
		for r := 0; r < w; r++ {
			stripe(&b, w, r)
			loose(&b, w, r)
		}
	}
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("kernel_rot.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// base names the op fields holding the row bases of rotation r: the
// second run's offsets (a₀−r, b₀−r) when r > 0, the only run's otherwise.
func base(r int) (a, b string) {
	if r == 0 {
		return "a0", "b0"
	}
	return "a1", "b1"
}

// order returns the κ order of rotation r: r, r+1, …, w−1, 0, …, r−1.
func order(w, r int) []int {
	ks := make([]int, w)
	for t := range ks {
		ks[t] = (r + t) % w
	}
	return ks
}

// ops writes the four interleaved chains' terms, one statement per term,
// each chain's terms in κ order. term formats chain j's k-th term.
func ops(b *bytes.Buffer, w, r int, term func(j, k int) string) {
	for _, k := range order(w, r) {
		for j := 0; j < 4; j++ {
			fmt.Fprintf(b, "\t\tv%d += %s\n", j, term(j, k))
		}
	}
}

func stripe(b *bytes.Buffer, w, r int) {
	fa, fb := base(r)
	fmt.Fprintf(b, "// rotStripe%dr%d replays a stripe of rotation %d at w = %d with its %d B̂\n// values held in locals.\n", w, r, r, w, w)
	fmt.Fprintf(b, "func rotStripe%dr%d(a, bt, e, c []float64, st *matmulStripe) {\n", w, r)
	fmt.Fprintf(b, "\ty := bt[st.op.%s:][:%d:%d]\n", fb, w, w)
	for k := 0; k < w; k++ {
		fmt.Fprintf(b, "\ty%d := y[%d]\n", k, k)
	}
	fmt.Fprintf(b, "\tout, init, ab := int(st.op.out), int(st.op.init), int(st.op.%s)\n", fa)
	fmt.Fprintf(b, "\tdOut, dInit, dA := int(st.step.out), int(st.step.init), int(st.step.%s)\n", fa)
	b.WriteString("\tfor n := st.count; n > 0; n -= 4 {\n")
	for j := 0; j < 4; j++ {
		off := [...]string{"ab", "ab+dA", "ab+2*dA", "ab+3*dA"}[j]
		fmt.Fprintf(b, "\t\tx%d := a[%s:][:%d:%d]\n", j, off, w, w)
	}
	b.WriteString("\t\tvar v0, v1, v2, v3 float64\n\t\tif e != nil {\n")
	b.WriteString("\t\t\tv0, v1, v2, v3 = e[init], e[init+dInit], e[init+2*dInit], e[init+3*dInit]\n\t\t}\n")
	ops(b, w, r, func(j, k int) string { return fmt.Sprintf("x%d[%d] * y%d", j, k, k) })
	b.WriteString("\t\tc[out], c[out+dOut], c[out+2*dOut], c[out+3*dOut] = v0, v1, v2, v3\n")
	b.WriteString("\t\tout, init, ab = out+4*dOut, init+4*dInit, ab+4*dA\n\t}\n}\n\n")
}

func loose(b *bytes.Buffer, w, r int) {
	fa, fb := base(r)
	fmt.Fprintf(b, "// rotLoose%dr%d replays the whole quads of ops, loose ops of rotation %d at\n// w = %d, loading each op's B̂ row.\n", w, r, r, w)
	fmt.Fprintf(b, "func rotLoose%dr%d(a, bt, e, c []float64, ops []matmulOp) {\n", w, r)
	b.WriteString("\tfor ; len(ops) >= 4; ops = ops[4:] {\n\t\tp := ops[:4:4]\n")
	for j := 0; j < 4; j++ {
		fmt.Fprintf(b, "\t\tx%d, y%d := a[p[%d].%s:][:%d:%d], bt[p[%d].%s:][:%d:%d]\n", j, j, j, fa, w, w, j, fb, w, w)
	}
	b.WriteString("\t\tvar v0, v1, v2, v3 float64\n\t\tif e != nil {\n")
	b.WriteString("\t\t\tv0, v1, v2, v3 = e[p[0].init], e[p[1].init], e[p[2].init], e[p[3].init]\n\t\t}\n")
	ops(b, w, r, func(j, k int) string { return fmt.Sprintf("x%d[%d] * y%d[%d]", j, k, j, k) })
	b.WriteString("\t\tc[p[0].out], c[p[1].out], c[p[2].out], c[p[3].out] = v0, v1, v2, v3\n\t}\n}\n\n")
}
