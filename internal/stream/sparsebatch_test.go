package stream

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// batchVectors builds k deterministic right-hand-side pairs for a
// transformation, with nil b entries sprinkled in.
func batchVectors(tr *sparse.MatVec, k int) (xs, bs []matrix.Vector) {
	xs = make([]matrix.Vector, k)
	bs = make([]matrix.Vector, k)
	for v := range xs {
		xs[v] = make(matrix.Vector, tr.M)
		for i := range xs[v] {
			xs[v][i] = float64((v+2*i)%7 - 3)
		}
		if v%3 != 2 {
			bs[v] = make(matrix.Vector, tr.N)
			for i := range bs[v] {
				bs[v][i] = float64((3*v+i)%5 - 2)
			}
		}
	}
	return xs, bs
}

// TestSparseBatchMatchesSerial pins the batched ticket's determinism
// contract across engines × shard counts × admission policies: every dst
// of a SubmitSparseBatchIntoQoS ticket, and its step count, equals the
// corresponding single-vector serial call — one ticket per batch.
func TestSparseBatchMatchesSerial(t *testing.T) {
	w := 3
	tr := sparse.NewMatVec(sparseStencil(5, w), w)
	const k = 4
	xs, bs := batchVectors(tr, k)
	for _, eng := range []core.Engine{core.EngineOracle, core.EngineCompiled, core.EngineAuto} {
		serial := make([]*sparse.Result, k)
		for v := range xs {
			res, err := tr.SolveEngine(xs[v], bs[v], eng)
			if err != nil {
				t.Fatal(err)
			}
			serial[v] = res
		}
		for _, shards := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			for _, pol := range []Policy{Block, Shed} {
				s := New(Config{Shards: shards, Policy: pol})
				dsts := make([]matrix.Vector, k)
				for v := range dsts {
					dsts[v] = make(matrix.Vector, tr.N)
				}
				ptk, err := s.SubmitSparseBatchIntoQoS(dsts, tr, xs, bs, eng, QoS{})
				if err != nil {
					t.Fatalf("eng=%v shards=%d policy=%v: %v", eng, shards, pol, err)
				}
				steps, err := ptk.Wait()
				if err != nil {
					t.Fatalf("eng=%v shards=%d policy=%v: %v", eng, shards, pol, err)
				}
				for v := range dsts {
					if steps != serial[v].T || !dsts[v].Equal(serial[v].Y, 0) {
						t.Fatalf("eng=%v shards=%d policy=%v: Into batch vector %d diverges (steps=%d want %d)",
							eng, shards, pol, v, steps, serial[v].T)
					}
				}
				s.Close()
			}
		}
	}
}

// TestSparseBatchValidation: malformed batches fail at submit with typed
// errors (nothing enqueued), and a malformed per-vector operand inside an
// accepted batch resolves the one batch ticket with a validation error —
// never a panic through the fleet.
func TestSparseBatchValidation(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	w := 2
	tr := sparse.NewMatVec(sparseStencil(3, w), w)
	xs, bs := batchVectors(tr, 2)
	dsts := []matrix.Vector{make(matrix.Vector, tr.N), make(matrix.Vector, tr.N)}
	if _, err := s.SubmitSparseBatchIntoQoS(nil, tr, nil, nil, core.EngineAuto, QoS{}); err == nil {
		t.Error("empty batch should fail at submit")
	}
	if _, err := s.SubmitSparseBatchIntoQoS(dsts, tr, xs, bs[:1], core.EngineAuto, QoS{}); err == nil {
		t.Error("mismatched x/b batch lengths should fail at submit")
	}
	if _, err := s.SubmitSparseBatchIntoQoS(dsts[:1], tr, xs, bs, core.EngineAuto, QoS{}); err == nil {
		t.Error("mismatched dst batch length should fail at submit")
	}
	if _, err := s.SubmitSparseBatchIntoQoS([]matrix.Vector{dsts[0], dsts[1][:1]}, tr, xs, bs, core.EngineAuto, QoS{}); err == nil {
		t.Error("short dst should fail at submit")
	}
	// A short x inside the batch passes submit (per-vector operands are the
	// job's to validate) and must come back as an error on the ticket.
	badXs := []matrix.Vector{xs[0], xs[1][:1]}
	tk, err := s.SubmitSparseBatchIntoQoS(dsts, tr, badXs, bs, core.EngineCompiled, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err == nil {
		t.Error("short x inside the batch should resolve the ticket with an error")
	}
	stats := s.Stats()
	if stats.Panics != 0 {
		t.Errorf("validation failures recorded %d panics, want 0", stats.Panics)
	}
}

// TestSparseBatchQoS: one deadline covers the whole batch — an expired
// batch resolves its single ticket with the typed expiry error and writes
// nothing.
func TestSparseBatchQoS(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	w := 2
	tr := sparse.NewMatVec(sparseStencil(3, w), w)
	xs, bs := batchVectors(tr, 3)
	dsts := make([]matrix.Vector, 3)
	for v := range dsts {
		dsts[v] = make(matrix.Vector, tr.N)
	}
	if _, err := s.SubmitSparseBatchIntoQoS(dsts, tr, xs, bs, core.EngineAuto, QoS{Deadline: time.Now().Add(-time.Millisecond)}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired batch admission returned %v, want ErrDeadlineExceeded", err)
	}
	for v := range dsts {
		for _, y := range dsts[v] {
			if y != 0 {
				t.Fatal("expired batch touched a caller buffer")
			}
		}
	}
	// A live deadline admits and completes normally.
	tk, err := s.SubmitSparseBatchIntoQoS(dsts, tr, xs, bs, core.EngineAuto, QoS{Deadline: time.Now().Add(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatalf("live batch: %v", err)
	}
	for v := range dsts {
		want, err := tr.SolveEngine(xs[v], bs[v], core.EngineAuto)
		if err != nil {
			t.Fatal(err)
		}
		if !dsts[v].Equal(want.Y, 0) {
			t.Fatalf("live batch vector %d wrong", v)
		}
	}
}

// TestSparseBatchZeroAlloc pins the batch acceptance criterion: once the
// pattern-affinity shard is warm, a compiled batched Into job — submit,
// execute, redeem — allocates nothing even though it carries k vectors.
func TestSparseBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	s := New(Config{Shards: 2})
	defer s.Close()
	w := 4
	tr := sparse.NewMatVec(sparseStencil(6, w), w)
	const k = 4
	xs, bs := batchVectors(tr, k)
	dsts := make([]matrix.Vector, k)
	for v := range dsts {
		dsts[v] = make(matrix.Vector, tr.N)
	}
	roundTrip := func() {
		tk, err := s.SubmitSparseBatchInto(dsts, tr, xs, bs, core.EngineCompiled)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every shard on the pattern (stealing can land early jobs
	// anywhere) before the measured steady state.
	for i := 0; i < 32; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs != 0 {
		t.Errorf("steady-state sparse batch job allocates %v objects/op, want 0", allocs)
	}
	for v := range dsts {
		want, err := tr.SolveEngine(xs[v], bs[v], core.EngineCompiled)
		if err != nil {
			t.Fatal(err)
		}
		if !dsts[v].Equal(want.Y, 0) {
			t.Fatalf("warm batch vector %d wrong", v)
		}
	}
}
