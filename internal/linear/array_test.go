package linear

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/systolic"
)

// bandProgram wraps a plain band matrix (no feedback) as a Program.
func bandProgram(b *matrix.Band, x matrix.Vector, yinit matrix.Vector, offset int) *Program {
	return &Program{
		Rows:   b.Rows(),
		X:      x,
		Offset: offset,
		BandAt: func(i, j int) float64 { return b.At(i, j) },
		YInit: func(i int) YInit {
			if yinit == nil {
				return YInit{}
			}
			return YInit{Value: yinit[i]}
		},
	}
}

func randBand(rng *rand.Rand, rows, w int) *matrix.Band {
	b := matrix.NewBand(rows, rows+w-1, 0, w-1)
	for i := 0; i < rows; i++ {
		for d := 0; d < w; d++ {
			b.Set(i, i+d, float64(rng.Intn(9)-4))
		}
	}
	return b
}

// TestBandMatVecExact: the array computes exactly the reference band
// product for a variety of sizes.
func TestBandMatVecExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, w := range []int{1, 2, 3, 5, 8} {
		for _, rows := range []int{1, 2, w, 3 * w, 17} {
			b := randBand(rng, rows, w)
			x := matrix.RandomVector(rng, b.Cols(), 4)
			c := matrix.RandomVector(rng, rows, 4)
			res := New(w).Run(bandProgram(b, x, c, 0))
			want := b.MulVec(x, c)
			if !matrix.Vector(res.Y[0]).Equal(want, 0) {
				t.Errorf("w=%d rows=%d: array result wrong", w, rows)
			}
		}
	}
}

// TestEmitCycleMatchesModel: ȳ_i leaves PE 0 at cycle 2i+2w−1 (available).
func TestEmitCycleMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w, rows := 4, 12
	b := randBand(rng, rows, w)
	x := matrix.RandomVector(rng, b.Cols(), 4)
	res := New(w).Run(bandProgram(b, x, nil, 0))
	for i := 0; i < rows; i++ {
		if got, want := res.EmitCycle[0][i], 2*i+2*w-1; got != want {
			t.Errorf("row %d emitted at %d, want %d", i, got, want)
		}
	}
}

// TestStepCountBare: a bare band problem of R rows spans 2R+2w−3 cycles.
func TestStepCountBare(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, w := range []int{1, 2, 3, 6} {
		for _, rows := range []int{1, 5, 3 * w} {
			b := randBand(rng, rows, w)
			x := matrix.RandomVector(rng, b.Cols(), 4)
			res := New(w).Run(bandProgram(b, x, nil, 0))
			if got, want := res.T, 2*rows+2*w-3; got != want {
				t.Errorf("w=%d rows=%d: T=%d, want %d", w, rows, got, want)
			}
		}
	}
}

// TestMACCount: every band position is one MAC; nothing else fires.
func TestMACCount(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w, rows := 3, 9
	b := randBand(rng, rows, w)
	x := matrix.RandomVector(rng, b.Cols(), 4)
	res := New(w).Run(bandProgram(b, x, nil, 0))
	if got, want := res.Activity.Total(), rows*w; got != want {
		t.Errorf("MACs=%d, want %d", got, want)
	}
	// Diagonal d is wired to PE w−1−d: each PE sees exactly rows MACs.
	for k, m := range res.Activity.MACs {
		if m != rows {
			t.Errorf("PE %d executed %d MACs, want %d", k, m, rows)
		}
	}
}

// TestAdjacentPEParity: PEs k and k+1 are never active in the same cycle,
// which is what makes the paper's "grouping every 2 PEs in 1" sound. We
// verify via the timing model: PE k fires only on cycles with parity
// (k+w−1) mod 2, so adjacent PEs alternate.
func TestAdjacentPEParity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	w, rows := 5, 10
	b := randBand(rng, rows, w)
	x := matrix.RandomVector(rng, b.Cols(), 4)
	arr := New(w)
	arr.RecordTrace = true
	res := arr.Run(bandProgram(b, x, nil, 0))
	// Coefficient injections happen exactly at the PE's firing cycles.
	for _, e := range portEvents(res.Trace, systolic.PortA) {
		i, d := e.Index/w, e.Index%w
		k := w - 1 - d
		if (e.Cycle-(k+w-1))%2 != 0 {
			t.Errorf("PE %d fired at cycle %d: wrong parity", k, e.Cycle)
		}
		if e.Cycle != 2*i+d+w-1 {
			t.Errorf("a[%d][%d] consumed at %d, want %d", i, i+d, e.Cycle, 2*i+d+w-1)
		}
	}
}

// TestFeedbackDelayIsW: a self-feedback program (row i initialized with row
// i−w's output) has every measured feedback delay equal to w.
func TestFeedbackDelayIsW(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, w := range []int{1, 2, 3, 5} {
		rows := 4 * w
		b := randBand(rng, rows, w)
		x := matrix.RandomVector(rng, b.Cols(), 4)
		prog := bandProgram(b, x, nil, 0)
		prog.YInit = func(i int) YInit {
			if i >= w {
				return YInit{Feedback: true, SrcRow: i - w}
			}
			return YInit{}
		}
		res := New(w).Run(prog)
		if len(res.Feedback) != rows-w {
			t.Fatalf("w=%d: %d feedback edges, want %d", w, len(res.Feedback), rows-w)
		}
		for _, f := range res.Feedback {
			if f.Delay() != w {
				t.Errorf("w=%d: feedback %d→%d delay %d, want %d", w, f.SrcIndex, f.DstIndex, f.Delay(), w)
			}
		}
	}
}

// TestOverlapTwoProblems: two independent problems offset by one cycle both
// compute correctly, and the total span is one cycle more than a single run.
func TestOverlapTwoProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w, rows := 3, 9
	b1, b2 := randBand(rng, rows, w), randBand(rng, rows, w)
	x1 := matrix.RandomVector(rng, b1.Cols(), 4)
	x2 := matrix.RandomVector(rng, b2.Cols(), 4)
	res := New(w).Run(bandProgram(b1, x1, nil, 0), bandProgram(b2, x2, nil, 1))
	if !matrix.Vector(res.Y[0]).Equal(b1.MulVec(x1, nil), 0) {
		t.Error("program 0 wrong under overlap")
	}
	if !matrix.Vector(res.Y[1]).Equal(b2.MulVec(x2, nil), 0) {
		t.Error("program 1 wrong under overlap")
	}
	if got, want := res.T, 2*rows+2*w-3+1; got != want {
		t.Errorf("overlapped T=%d, want %d", got, want)
	}
	// Full utilization: 2·rows·w MACs over w PEs.
	if got, want := res.Activity.Total(), 2*rows*w; got != want {
		t.Errorf("MACs=%d, want %d", got, want)
	}
}

// TestOverlapCollisionDetected: same-offset duplicate programs must collide.
func TestOverlapCollisionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	w, rows := 3, 6
	b := randBand(rng, rows, w)
	x := matrix.RandomVector(rng, b.Cols(), 4)
	defer func() {
		if recover() == nil {
			t.Error("expected collision panic")
		}
	}()
	New(w).Run(bandProgram(b, x, nil, 0), bandProgram(b, x, nil, 0))
}

// TestAcausalFeedbackDetected: feedback from a row that has not been
// emitted yet must panic rather than silently inject a stale value.
func TestAcausalFeedbackDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	w, rows := 3, 6
	b := randBand(rng, rows, w)
	x := matrix.RandomVector(rng, b.Cols(), 4)
	prog := bandProgram(b, x, nil, 0)
	prog.YInit = func(i int) YInit {
		if i == 1 {
			return YInit{Feedback: true, SrcRow: 5} // row 5 emits long after row 1 starts
		}
		return YInit{}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected acausality panic")
		}
	}()
	New(w).Run(prog)
}

// TestTraceXStream: x̄_j enters PE 0 at cycle 2j exactly.
func TestTraceXStream(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	w, rows := 3, 6
	b := randBand(rng, rows, w)
	x := matrix.RandomVector(rng, b.Cols(), 4)
	arr := New(w)
	arr.RecordTrace = true
	res := arr.Run(bandProgram(b, x, nil, 0))
	events := portEvents(res.Trace, systolic.PortX)
	for _, e := range events {
		if e.Cycle != 2*e.Index {
			t.Errorf("x̄_%d entered at cycle %d, want %d", e.Index, e.Cycle, 2*e.Index)
		}
	}
}

func TestRunValidation(t *testing.T) {
	arr := New(2)
	for _, f := range []func(){
		func() { arr.Run() },
		func() { arr.Run(&Program{Rows: 0, X: []float64{1, 2}}) },
		func() { arr.Run(&Program{Rows: 5, X: []float64{1}}) },
		func() { New(0) },
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

// portEvents returns the events tr recorded at port p, in recording (cycle)
// order.
func portEvents(tr *systolic.Trace, p systolic.Port) []systolic.Event {
	var out []systolic.Event
	for _, e := range tr.Events {
		if e.Port == p {
			out = append(out, e)
		}
	}
	return out
}
