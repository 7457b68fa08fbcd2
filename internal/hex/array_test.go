package hex

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// randBands builds a full upper band Ā and lower band B̄ of dimension dim.
func randBands(rng *rand.Rand, dim, w int) (*matrix.Band, *matrix.Band) {
	a := matrix.NewBand(dim, dim, 0, w-1)
	b := matrix.NewBand(dim, dim, -(w - 1), 0)
	for i := 0; i < dim; i++ {
		for d := 0; d < w; d++ {
			if j := i + d; j < dim {
				a.Set(i, j, float64(rng.Intn(9)-4))
			}
			if j := i - d; j >= 0 {
				b.Set(i, j, float64(rng.Intn(9)-4))
			}
		}
	}
	return a, b
}

func plainProgram(a, b *matrix.Band, e func(rho, gamma int) float64) *Program {
	return &Program{
		Dim: a.Rows(),
		AAt: a.At,
		BAt: b.At,
		CInitFor: func(rho, gamma int) CInit {
			if e == nil {
				return CInit{}
			}
			return CInit{Value: e(rho, gamma)}
		},
	}
}

// TestBandProductExact: the hexagonal array computes exactly the reference
// band product for a range of sizes.
func TestBandProductExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, w := range []int{1, 2, 3, 4} {
		for _, dim := range []int{1, 2, w, 2 * w, 3*w + 1} {
			a, b := randBands(rng, dim, w)
			res := New(w).Run(plainProgram(a, b, nil))
			want := a.Mul(b)
			for i := 0; i < dim; i++ {
				for f := -(w - 1); f <= w-1; f++ {
					j := i + f
					if j < 0 || j >= dim {
						continue
					}
					if got := res.Progs[0].At(i, j); got != want.At(i, j) {
						t.Fatalf("w=%d dim=%d: O[%d][%d]=%g, want %g", w, dim, i, j, got, want.At(i, j))
					}
				}
			}
		}
	}
}

// TestBandProductWithE: c-stream initialization adds element-wise.
func TestBandProductWithE(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	w, dim := 3, 10
	a, b := randBands(rng, dim, w)
	e := matrix.RandomDense(rng, dim, dim, 4)
	res := New(w).Run(plainProgram(a, b, e.At))
	want := a.Mul(b)
	for i := 0; i < dim; i++ {
		for f := -(w - 1); f <= w-1; f++ {
			j := i + f
			if j < 0 || j >= dim {
				continue
			}
			if got := res.Progs[0].At(i, j); got != want.At(i, j)+e.At(i, j) {
				t.Fatalf("O[%d][%d]=%g, want %g", i, j, got, want.At(i, j)+e.At(i, j))
			}
		}
	}
}

// TestStepCount: the measured span is 3(dim−1)+w+1 steps.
func TestStepCount(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, w := range []int{1, 2, 3, 5} {
		for _, dim := range []int{1, w + 1, 3 * w} {
			a, b := randBands(rng, dim, w)
			res := New(w).Run(plainProgram(a, b, nil))
			if got, want := res.T, 3*(dim-1)+w+1; got != want {
				t.Errorf("w=%d dim=%d: T=%d, want %d", w, dim, got, want)
			}
		}
	}
}

// TestEmitCycleModel: O[ρ][γ] becomes available at ρ+γ+min(ρ,γ)+w.
func TestEmitCycleModel(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	w, dim := 3, 9
	a, b := randBands(rng, dim, w)
	res := New(w).Run(plainProgram(a, b, nil))
	for i := 0; i < dim; i++ {
		for f := -(w - 1); f <= w-1; f++ {
			j := i + f
			if j < 0 || j >= dim {
				continue
			}
			min := i
			if j < min {
				min = j
			}
			if got, want := res.Progs[0].EmitCycle(i, j), i+j+min+w; got != want {
				t.Errorf("emit(%d,%d)=%d, want %d", i, j, got, want)
			}
		}
	}
}

// TestPEDuty: a PE fires at most once every three cycles (the hexagonal
// array's inherent ⅓ duty), and total MACs equal the band product's
// multiply count.
func TestPEDuty(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	w, dim := 3, 12
	a, b := randBands(rng, dim, w)
	res := New(w).Run(plainProgram(a, b, nil))
	// MAC count: Σ_κ (#band rows meeting col κ)·(#band cols meeting row κ).
	want := 0
	for k := 0; k < dim; k++ {
		ra := 0
		for i := k - w + 1; i <= k; i++ {
			if i >= 0 {
				ra++
			}
		}
		cb := 0
		for j := k - w + 1; j <= k; j++ {
			if j >= 0 {
				cb++
			}
		}
		want += ra * cb
	}
	if got := res.Activity.Total(); got != want {
		t.Errorf("MACs=%d, want %d", got, want)
	}
	for pe, m := range res.Activity.MACs {
		if 3*m > res.T+2 {
			t.Errorf("PE %d fired %d times in %d cycles (duty > 1/3)", pe, m, res.T)
		}
	}
}

// TestSelfFeedbackDiagonal: feeding O[ρ−w][γ−w] into (ρ, γ) on the main
// diagonal is causal and has measured delay exactly 2w (the paper's 2w
// memory elements for the auto-fed main diagonal).
func TestSelfFeedbackDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, w := range []int{2, 3, 4} {
		dim := 4 * w
		a, b := randBands(rng, dim, w)
		p := plainProgram(a, b, nil)
		p.CInitFor = func(rho, gamma int) CInit {
			if rho == gamma && rho >= w {
				return CInit{Feedback: true, SrcRow: rho - w, SrcCol: gamma - w}
			}
			return CInit{}
		}
		res := New(w).Run(p)
		if len(res.Feedback()) != dim-w {
			t.Fatalf("w=%d: %d feedback edges, want %d", w, len(res.Feedback()), dim-w)
		}
		for _, f := range res.Feedback() {
			if f.Delay() != 2*w {
				t.Errorf("w=%d: main-diagonal feedback delay %d, want %d", w, f.Delay(), 2*w)
			}
		}
		// Value check: the diagonal accumulates prefix sums of diagonal products.
		prod := a.Mul(b)
		wantDiag := make([]float64, dim)
		for i := 0; i < dim; i++ {
			wantDiag[i] = prod.At(i, i)
			if i >= w {
				wantDiag[i] += wantDiag[i-w]
			}
			if got := res.Progs[0].At(i, i); got != wantDiag[i] {
				t.Errorf("w=%d: O[%d][%d]=%g, want %g", w, i, i, got, wantDiag[i])
			}
		}
	}
}

// TestAcausalFeedbackDetected: requesting feedback from a position that has
// not been emitted yet must panic.
func TestAcausalFeedbackDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	w, dim := 3, 9
	a, b := randBands(rng, dim, w)
	p := plainProgram(a, b, nil)
	p.CInitFor = func(rho, gamma int) CInit {
		if rho == 0 && gamma == 0 {
			return CInit{Feedback: true, SrcRow: dim - 1, SrcCol: dim - 1}
		}
		return CInit{}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected acausality panic")
		}
	}()
	New(w).Run(p)
}

func TestRunValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(0) },
		func() { New(2).Run(&Program{Dim: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
