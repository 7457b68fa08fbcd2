package schedule

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// These tests pin the contract that makes a data-keyed plan cache safe: the
// digest half of the sparse key is lossy, so every hit must verify the full
// retained-block pattern, and colliding patterns must both compute correct
// results (by recompiling) rather than replaying each other's schedule.

// sparseRef computes the reference y = A·x + b for a block pattern over a
// padded matrix, with the same zero-block semantics as the sparse path.
func sparseRef(a *matrix.Dense, retained [][]int, x, b []float64, w int) []float64 {
	nbar := len(retained)
	y := make([]float64, nbar*w)
	copy(y, b)
	for r, cols := range retained {
		for _, s := range cols {
			for i := 0; i < w; i++ {
				for j := 0; j < w; j++ {
					y[r*w+i] += a.At(r*w+i, s*w+j) * x[s*w+j]
				}
			}
		}
	}
	return y
}

// execSparse replays a plan over one problem and returns y.
func execSparse(t *testing.T, s *SparseMatVec, a *matrix.Dense, x, b []float64) []float64 {
	t.Helper()
	y := make([]float64, s.NBar*s.W)
	ybar := make([]float64, s.MaxBandRows)
	s.Exec(a.Raw(), x, b, y, ybar)
	return y
}

// TestSparsePlanCollision forces two distinct patterns onto one digest
// bucket (by swapping the digest function for a constant) and requires both
// to return correct results: the first pattern wins the cache slot, the
// second is detected by the full-pattern equality check and recompiled.
func TestSparsePlanCollision(t *testing.T) {
	saved := patternDigest
	patternDigest = func([][]int) uint64 { return 7 }
	defer func() { patternDigest = saved }()

	rng := rand.New(rand.NewSource(3))
	const w, nbar, mbar = 2, 2, 3
	a := matrix.RandomDense(rng, nbar*w, mbar*w, 5)
	x := make([]float64, mbar*w)
	b := make([]float64, nbar*w)
	for i := range x {
		x[i] = float64(rng.Intn(9) - 4)
	}
	for i := range b {
		b[i] = float64(rng.Intn(9) - 4)
	}

	p1 := [][]int{{0, 2}, {1}}
	p2 := [][]int{{1}, {0, 2}}
	s1, err := SparseMatVecFor(w, nbar, mbar, p1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SparseMatVecFor(w, nbar, mbar, p2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("colliding patterns must not share a plan")
	}
	if !s1.MatchesPattern(p1) || !s2.MatchesPattern(p2) {
		t.Fatal("plans compiled for the wrong pattern under collision")
	}
	for _, c := range []struct {
		s   *SparseMatVec
		pat [][]int
	}{{s1, p1}, {s2, p2}} {
		got := execSparse(t, c.s, a, x, b)
		want := sparseRef(a, c.pat, x, b, w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("collision corrupted results for pattern %v: got %v want %v", c.pat, got, want)
			}
		}
	}

	// The memo must apply the same policy: its bucket holds one pattern at a
	// time, and a colliding lookup re-verifies and recompiles.
	pm := NewPlanMemo()
	m1, err := pm.SparseMatVecFor(w, nbar, mbar, p1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := pm.SparseMatVecFor(w, nbar, mbar, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !m1.MatchesPattern(p1) || !m2.MatchesPattern(p2) {
		t.Fatal("memo served a colliding pattern's plan")
	}
	again, err := pm.SparseMatVecFor(w, nbar, mbar, p2)
	if err != nil {
		t.Fatal(err)
	}
	if again != m2 {
		t.Fatal("memo failed to hit on the latest pattern in the bucket")
	}
}

// TestSparsePlanMemoSharesPlans: without collisions the memo returns the
// same immutable plan instance as the global cache and hits its private map
// on repeats.
func TestSparsePlanMemoSharesPlans(t *testing.T) {
	pm := NewPlanMemo()
	pat := [][]int{{0, 1}, {}, {2}}
	first, err := pm.SparseMatVecFor(3, 3, 3, pat)
	if err != nil {
		t.Fatal(err)
	}
	global, err := SparseMatVecFor(3, 3, 3, pat)
	if err != nil {
		t.Fatal(err)
	}
	if first != global {
		t.Error("memo and global cache disagree on the plan instance")
	}
	again, err := pm.SparseMatVecFor(3, 3, 3, pat)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("memo failed to hit on a repeated pattern")
	}
}

// TestSparsePlanValidation: malformed hand-built patterns are rejected with
// errors, never cached, and never panic.
func TestSparsePlanValidation(t *testing.T) {
	cases := []struct {
		name          string
		w, nbar, mbar int
		pat           [][]int
	}{
		{"band count mismatch", 2, 3, 2, [][]int{{0}}},
		{"column out of range", 2, 1, 2, [][]int{{2}}},
		{"negative column", 2, 1, 2, [][]int{{-1}}},
		{"not increasing", 2, 1, 3, [][]int{{1, 0}}},
		{"duplicate column", 2, 1, 3, [][]int{{1, 1}}},
		{"bad shape", 0, 1, 1, [][]int{{0}}},
	}
	for _, c := range cases {
		if _, err := SparseMatVecFor(c.w, c.nbar, c.mbar, c.pat); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestSparsePlanStepFormula: the compiled T telescopes from the per-band
// step counts exactly as the package doc's formula says, including the
// empty-schedule case.
func TestSparsePlanStepFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		w := 1 + rng.Intn(4)
		nbar := 1 + rng.Intn(5)
		mbar := 1 + rng.Intn(5)
		pat := make([][]int, nbar)
		for r := range pat {
			for s := 0; s < mbar; s++ {
				if rng.Intn(2) == 0 {
					pat[r] = append(pat[r], s)
				}
			}
		}
		s, err := SparseMatVecFor(w, nbar, mbar, pat)
		if err != nil {
			t.Fatal(err)
		}
		// Band r's program spans 2w·q_r steps; n̄₊ bands are active.
		total, active := 0, 0
		for _, cols := range pat {
			total += 2 * w * len(cols)
			if len(cols) > 0 {
				active++
			}
		}
		want := 0
		if active > 0 {
			want = total + (active-1)*(2*w-2) + 2*w - 3
		}
		if s.T != want {
			t.Fatalf("w=%d pattern %v: T=%d, per-band formula gives %d", w, pat, s.T, want)
		}
		if s.Q == 0 && (s.T != 0 || s.MACs != 0 || s.Utilization() != 0) {
			t.Fatalf("empty schedule costs cycles: %+v", s)
		}
	}
}

// TestSparseOverlapStepFormula pins the overlapped schedule's step count
// against an independent pairwise walk of the active-band spans: pairs sit
// at offsets (o, o+1), advance by the larger span, and the schedule ends one
// cycle after the last MAC. TOverlap never exceeds T, matches it whenever
// there is at most one active band (nothing to pair), and is zero for the
// empty schedule.
func TestSparseOverlapStepFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 80; trial++ {
		w := 1 + rng.Intn(4)
		nbar := 1 + rng.Intn(6)
		mbar := 1 + rng.Intn(5)
		pat := make([][]int, nbar)
		for r := range pat {
			for s := 0; s < mbar; s++ {
				if rng.Intn(2) == 0 {
					pat[r] = append(pat[r], s)
				}
			}
		}
		s, err := SparseMatVecFor(w, nbar, mbar, pat)
		if err != nil {
			t.Fatal(err)
		}
		var spans []int
		for _, cols := range pat {
			if len(cols) > 0 {
				spans = append(spans, 2*w*len(cols)+2*w-2)
			}
		}
		offset, want := 0, 0
		for p := 0; p < len(spans); p += 2 {
			end := offset + spans[p] - 1
			adv := spans[p]
			if p+1 < len(spans) {
				if e := offset + 1 + spans[p+1] - 1; e > end {
					end = e
				}
				if spans[p+1] > adv {
					adv = spans[p+1]
				}
			}
			if end > want {
				want = end
			}
			offset += adv
		}
		if s.TOverlap != want {
			t.Fatalf("w=%d pattern %v: TOverlap=%d, pairwise walk gives %d", w, pat, s.TOverlap, want)
		}
		if s.TOverlap > s.T {
			t.Fatalf("w=%d pattern %v: TOverlap=%d exceeds T=%d", w, pat, s.TOverlap, s.T)
		}
		if len(spans) <= 1 && s.TOverlap != s.T {
			t.Fatalf("w=%d pattern %v: single program must not change span: TOverlap=%d T=%d", w, pat, s.TOverlap, s.T)
		}
		if s.Q == 0 && (s.TOverlap != 0 || s.OverlapUtilization() != 0) {
			t.Fatalf("empty schedule has an overlap span: %+v", s)
		}
		if s.Q > 0 && s.OverlapUtilization() != float64(s.MACs)/(float64(w)*float64(s.TOverlap)) {
			t.Fatalf("OverlapUtilization disagrees with its formula")
		}
	}
}

// TestSparseExecManyBitIdentity: batched replay over k vectors returns
// bit-identical results to k sequential Exec calls, for every kernel width
// class and including empty bands and k=1.
func TestSparseExecManyBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		w := 1 + rng.Intn(8)
		nbar := 1 + rng.Intn(5)
		mbar := 1 + rng.Intn(5)
		k := 1 + rng.Intn(6)
		pat := make([][]int, nbar)
		for r := range pat {
			for s := 0; s < mbar; s++ {
				if rng.Intn(3) > 0 {
					pat[r] = append(pat[r], s)
				}
			}
		}
		s, err := SparseMatVecFor(w, nbar, mbar, pat)
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.RandomDense(rng, nbar*w, mbar*w, 5)
		xs, ys := mbar*w, nbar*w
		xp := make([]float64, k*xs)
		bp := make([]float64, k*ys)
		for i := range xp {
			xp[i] = rng.NormFloat64()
		}
		for i := range bp {
			bp[i] = rng.NormFloat64()
		}
		got := make([]float64, k*ys)
		ybar := make([]float64, k*s.MaxBandRows)
		if s.MaxBandRows == 0 {
			ybar = make([]float64, k) // ExecMany length check wants ≥ k·MaxBandRows
		}
		s.ExecMany(a.Raw(), xp, bp, got, ybar, k)
		one := make([]float64, ys)
		oneBar := make([]float64, s.MaxBandRows)
		for v := 0; v < k; v++ {
			s.Exec(a.Raw(), xp[v*xs:(v+1)*xs], bp[v*ys:(v+1)*ys], one, oneBar)
			for i := range one {
				if got[v*ys+i] != one[i] {
					t.Fatalf("w=%d k=%d pattern %v: vector %d diverges at %d: batched %v serial %v",
						w, k, pat, v, i, got[v*ys+i], one[i])
				}
			}
		}
	}
}

// TestSparsePlanEvictionWhileInUse pushes the bounded sparse cache past its
// cap (forcing the drop-and-rebuild rotation) while other goroutines keep
// replaying a plan resolved before the rotation — the same immutability
// guarantee concurrent_test.go pins for the shape-keyed caches.
func TestSparsePlanEvictionWhileInUse(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the plan cache past its bound")
	}
	rng := rand.New(rand.NewSource(11))
	const w, nbar, mbar = 2, 3, 3
	pat := [][]int{{0, 1}, {}, {1, 2}}
	held, err := SparseMatVecFor(w, nbar, mbar, pat)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.RandomDense(rng, nbar*w, mbar*w, 5)
	x := make([]float64, mbar*w)
	b := make([]float64, nbar*w)
	for i := range x {
		x[i] = float64(rng.Intn(9) - 4)
	}
	want := sparseRef(a, pat, x, b, w)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := execSparse(t, held, a, x, b)
				for i := range want {
					if got[i] != want[i] {
						t.Error("held plan replayed wrong during cache rotation")
						return
					}
				}
				re, err := SparseMatVecFor(w, nbar, mbar, pat)
				if err != nil || re.T != held.T || re.Q != held.Q {
					t.Error("re-resolved plan disagrees with the held one")
					return
				}
			}
		}()
	}
	// Rotate the cache at least twice over with distinct single-block
	// patterns (the key varies by m̄, so every compile is tiny).
	for n := 1; n < 2*maxCached+10; n++ {
		if _, err := SparseMatVecFor(w, 1, n, [][]int{{n - 1}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	got := execSparse(t, held, a, x, b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("held plan changed behavior after eviction")
		}
	}
}
