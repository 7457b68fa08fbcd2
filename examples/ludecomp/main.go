// Ludecomp: the remaining §4 applications — block LU factorization, dense
// inversion and triangular system solution, all with the O(n³)/O(n²) work
// inside fixed-size systolic arrays. A small circuit-analysis-style linear
// system (diagonally dominant conductance matrix) is factored, solved via
// the triangular-solver array, and inverted, with every trailing update and
// panel product running as array passes.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/trisolve"
)

func main() {
	const (
		arrayW = 4
		n      = 18 // unknowns — unrelated to the array size
	)
	rng := rand.New(rand.NewSource(11))

	// A conductance-like system: off-diagonal couplings, dominant diagonal.
	a := matrix.RandomDense(rng, n, n, 3)
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				if a.At(i, j) > 0 {
					row += a.At(i, j)
				} else {
					row -= a.At(i, j)
				}
			}
		}
		a.Set(i, i, row+2)
	}
	want := matrix.RandomVector(rng, n, 4)
	d := a.MulVec(want, nil)

	// 1. Factor A = L·U with trailing updates on the hexagonal array.
	l, u, luStats, err := solve.BlockLU(a, arrayW, solve.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BlockLU of %d×%d on a %d×%d hexagonal array:\n", n, n, arrayW, arrayW)
	fmt.Printf("  L·U = A to %.1e; %d array passes, %d array steps, %d host ops (diag blocks only)\n",
		l.Mul(u).MaxAbsDiff(a), luStats.ArrayPasses, luStats.ArraySteps, luStats.HostOps)

	// 2. Solve L·(U·x) = d with both triangular systems on arrays: the
	// dedicated triangular-solver array handles the diagonal blocks, the
	// matvec array the off-diagonal panels.
	ts := trisolve.NewWorkspace(arrayW)
	y, x := make(matrix.Vector, n), make(matrix.Vector, n)
	fw, err := ts.SolveLowerInto(y, l, d, core.EngineAuto)
	if err != nil {
		log.Fatal(err)
	}
	bw, err := ts.SolveUpperInto(x, u, y, core.EngineAuto)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangular solves on the %d-PE solver array:\n", arrayW)
	fmt.Printf("  forward:  %d tri passes (%d steps) + %d matvec passes (%d steps)\n",
		fw.TriPasses, fw.TriSteps, fw.MatVecPasses, fw.MatVecSteps)
	fmt.Printf("  backward: %d tri passes (%d steps) + %d matvec passes (%d steps)\n",
		bw.TriPasses, bw.TriSteps, bw.MatVecPasses, bw.MatVecSteps)
	fmt.Printf("  solution error vs truth: %.1e\n", x.MaxAbsDiff(want))

	// 3. Full inverse (U⁻¹·L⁻¹), §4's last list item.
	inv, invStats, err := solve.Inverse(a, arrayW, solve.Options{})
	if err != nil {
		log.Fatal(err)
	}
	id := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	fmt.Printf("dense inverse via the arrays: ‖A·A⁻¹ − I‖∞ = %.1e (%d array passes)\n",
		a.Mul(inv).MaxAbsDiff(id), invStats.ArrayPasses)
}
