package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// TestPanicHammer is the panic-isolation acceptance test: a stream with an
// injector forcing panics keeps all of its shards serving — every ticket
// redeems, panicked jobs carry structured *core.PanicError values with
// stacks, non-panicked jobs return results DeepEqual to the serial path,
// and every accepted job completes exactly once. Runs at shard counts
// {1, 2, NumCPU}.
func TestPanicHammer(t *testing.T) {
	const n = 80
	for _, shards := range shardLadder() {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(600 + shards)))
			cases := randomCases(t, rng, n)
			s := New(Config{Shards: shards, Injector: &Injector{Seed: 42, PanicEvery: 5}})
			defer s.Close()

			mvT := make([]MatVecTicket, n)
			mmT := make([]MatMulTicket, n)
			for i, c := range cases {
				var err error
				if c.mv != nil {
					mvT[i], err = s.SubmitMatVecQoS(c.w, *c.mv, QoS{})
				} else {
					mmT[i], err = s.SubmitMatMulQoS(c.w, *c.mm, QoS{})
				}
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}

			panics := 0
			for i, c := range cases {
				var err error
				if c.mv != nil {
					var res *core.MatVecResult
					res, err = mvT[i].Wait()
					if err == nil && !reflect.DeepEqual(res, c.wantMV) {
						t.Errorf("job %d result diverged from serial", i)
					}
				} else {
					var res *core.MatMulResult
					res, err = mmT[i].Wait()
					if err == nil && !reflect.DeepEqual(res, c.wantMM) {
						t.Errorf("job %d result diverged from serial", i)
					}
				}
				if err != nil {
					if !errors.Is(err, core.ErrPanicked) {
						t.Fatalf("job %d failed with %v, want a recovered panic", i, err)
					}
					var perr *core.PanicError
					if !errors.As(err, &perr) || len(perr.Stack) == 0 {
						t.Fatalf("job %d panic error %#v lacks a stack", i, err)
					}
					panics++
				}
			}
			if panics == 0 {
				t.Fatal("injector fired no panics — the hammer tested nothing")
			}
			st := s.Stats()
			if st.Submitted != n || st.Completed != n {
				t.Errorf("stats %+v, want %d submitted and completed", st, n)
			}
			if st.Panics != uint64(panics) {
				t.Errorf("Stats.Panics = %d, observed %d panic errors", st.Panics, panics)
			}
		})
	}
}

// TestForcedShedInjection: injected admission sheds surface as ErrSaturated
// even on an empty scheduler, are deterministic, are counted in Stats, and
// never touch the jobs that were admitted.
func TestForcedShedInjection(t *testing.T) {
	const n = 60
	p, want := qosProblem(t)
	s := New(Config{Shards: 2, Injector: &Injector{Seed: 7, ShedEvery: 4}})
	defer s.Close()

	shedCount := 0
	for i := 0; i < n; i++ {
		tk, err := s.SubmitMatVecQoS(2, p, QoS{})
		if err != nil {
			if !errors.Is(err, ErrSaturated) {
				t.Fatalf("submit %d: %v, want ErrSaturated", i, err)
			}
			shedCount++
			continue
		}
		if res, err := tk.Wait(); err != nil || !res.Y.Equal(want, 0) {
			t.Fatalf("admitted job %d: %v %v", i, res, err)
		}
	}
	if shedCount == 0 {
		t.Fatal("injector shed nothing")
	}
	st := s.Stats()
	if st.Shed != uint64(shedCount) {
		t.Errorf("Stats.Shed = %d, observed %d forced sheds", st.Shed, shedCount)
	}
	if st.Submitted != uint64(n-shedCount) || st.Completed != st.Submitted {
		t.Errorf("stats %+v, want %d submitted and completed", st, n-shedCount)
	}
}

// TestInjectorDeterminism: the same seed and submission order fail the
// same jobs — the property the chaos soak's replays rely on.
func TestInjectorDeterminism(t *testing.T) {
	p, _ := qosProblem(t)
	failures := func(seed int64) []int {
		s := New(Config{Shards: 2, Injector: &Injector{Seed: seed, ShedEvery: 3, PanicEvery: 4}})
		defer s.Close()
		var failed []int
		tks := make([]MatVecTicket, 0, 40)
		idx := make([]int, 0, 40)
		for i := 0; i < 40; i++ {
			tk, err := s.SubmitMatVecQoS(2, p, QoS{})
			if err != nil {
				failed = append(failed, i) // admission shed
				continue
			}
			tks = append(tks, tk)
			idx = append(idx, i)
		}
		for k, tk := range tks {
			if _, err := tk.Wait(); err != nil {
				failed = append(failed, idx[k]) // recovered panic
			}
		}
		return failed
	}
	a, b := failures(99), failures(99)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed failed different jobs: %v vs %v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("seed 99 injected nothing — determinism untested")
	}
}

// TestStalledShardDelay: the stalled-shard fault slows its victim without
// corrupting results, and the slowdown lands in the shard's EWMA so
// deadline admission can see it.
func TestStalledShardDelay(t *testing.T) {
	p, want := qosProblem(t)
	s := New(Config{Shards: 1, Injector: &Injector{StallShard: 0, StallDelay: 5 * time.Millisecond}})
	defer s.Close()
	tk, err := s.SubmitMatVecQoS(2, p, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tk.Wait(); err != nil || !res.Y.Equal(want, 0) {
		t.Fatalf("stalled job: %v %v", res, err)
	}
	if got := time.Duration(s.ewma[0].Load()); got < 5*time.Millisecond {
		t.Errorf("shard EWMA %v did not absorb the %v stall", got, 5*time.Millisecond)
	}
}
