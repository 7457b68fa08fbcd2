package stream

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// shardLadder returns the shard counts the equivalence suite runs at:
// {1, 2, NumCPU}, deduplicated.
func shardLadder() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// streamCase is one mixed-shape problem with its serial reference.
type streamCase struct {
	mv     *MatVecProblem
	mm     *MatMulProblem
	w      int
	wantMV *core.MatVecResult
	wantMM *core.MatMulResult
}

// randomCases draws a mixed-shape case set with deliberate shape repeats
// (the affinity path) and both engines, solving each serially for the
// reference.
func randomCases(t *testing.T, rng *rand.Rand, n int) []streamCase {
	t.Helper()
	shapes := [][2]int{{4, 8}, {8, 4}, {6, 6}} // recycled → affinity hits
	var cases []streamCase
	for i := 0; i < n; i++ {
		w := 2 + rng.Intn(3)
		eng := core.EngineCompiled
		if i%3 == 0 {
			eng = core.EngineOracle
		}
		c := streamCase{w: w}
		if i%2 == 0 {
			sh := shapes[i%len(shapes)]
			p := &MatVecProblem{
				A:    matrix.RandomDense(rng, sh[0], sh[1], 5),
				X:    matrix.RandomVector(rng, sh[1], 5),
				B:    matrix.RandomVector(rng, sh[0], 5),
				Opts: core.MatVecOptions{Engine: eng},
			}
			want, err := core.NewMatVecSolver(w).Solve(p.A, p.X, p.B, p.Opts)
			if err != nil {
				t.Fatal(err)
			}
			c.mv, c.wantMV = p, want
		} else {
			d := 2 + rng.Intn(2)*w
			p := &MatMulProblem{
				A:    matrix.RandomDense(rng, d, d, 4),
				B:    matrix.RandomDense(rng, d, d, 4),
				Opts: core.MatMulOptions{Engine: eng},
			}
			want, err := core.NewMatMulSolver(w).Solve(p.A, p.B, p.Opts)
			if err != nil {
				t.Fatal(err)
			}
			c.mm, c.wantMM = p, want
		}
		cases = append(cases, c)
	}
	return cases
}

// TestStreamMatchesSerial is the cross-runtime equivalence suite: a mixed-
// shape stream of matvec and matmul jobs on both engines must return
// results and per-run stats DeepEqual to the serial path at every shard
// count, under both admission policies.
func TestStreamMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	cases := randomCases(t, rng, 48)
	for _, shards := range shardLadder() {
		for _, policy := range []Policy{Block, Shed} {
			s := New(Config{Shards: shards, QueueBound: len(cases), Policy: policy})
			mvTickets := make(map[int]MatVecTicket)
			mmTickets := make(map[int]MatMulTicket)
			for i, c := range cases {
				var err error
				if c.mv != nil {
					mvTickets[i], err = s.SubmitMatVecQoS(c.w, *c.mv, QoS{})
				} else {
					mmTickets[i], err = s.SubmitMatMulQoS(c.w, *c.mm, QoS{})
				}
				if err != nil {
					t.Fatalf("shards=%d policy=%v case %d: %v", shards, policy, i, err)
				}
			}
			s.Flush()
			for i, c := range cases {
				if c.mv != nil {
					got, err := mvTickets[i].Wait()
					if err != nil {
						t.Fatalf("shards=%d case %d: %v", shards, i, err)
					}
					if !reflect.DeepEqual(got, c.wantMV) {
						t.Errorf("shards=%d policy=%v case %d: stream matvec differs from serial", shards, policy, i)
					}
				} else {
					got, err := mmTickets[i].Wait()
					if err != nil {
						t.Fatalf("shards=%d case %d: %v", shards, i, err)
					}
					if !reflect.DeepEqual(got, c.wantMM) {
						t.Errorf("shards=%d policy=%v case %d: stream matmul differs from serial", shards, policy, i)
					}
				}
			}
			st := s.Stats()
			if st.Submitted != uint64(len(cases)) || st.Completed != uint64(len(cases)) || st.Shed != 0 {
				t.Errorf("shards=%d policy=%v: stats %+v, want %d submitted+completed, 0 shed",
					shards, policy, st, len(cases))
			}
			s.Close()
		}
	}
}

// TestStreamIntoMatchesSerial: the zero-alloc matvec Into path writes
// exactly what the arena pass API (and hence the serial engine) produces,
// at every shard count.
func TestStreamIntoMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	w := 3
	type intoCase struct {
		a    *matrix.Dense
		x, b matrix.Vector
	}
	var cases []intoCase
	for i := 0; i < 24; i++ {
		n, m := 1+rng.Intn(3*w), 1+rng.Intn(3*w)
		cases = append(cases, intoCase{
			a: matrix.RandomDense(rng, n, m, 5),
			x: matrix.RandomVector(rng, m, 5),
			b: matrix.RandomVector(rng, n, 5),
		})
	}
	for _, shards := range shardLadder() {
		s := New(Config{Shards: shards})
		for i, c := range cases {
			dst := make(matrix.Vector, c.a.Rows())
			tv, err := s.SubmitMatVecIntoQoS(dst, c.a, c.x, c.b, w, core.EngineCompiled, QoS{})
			if err != nil {
				t.Fatal(err)
			}
			steps, err := tv.Wait()
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.NewMatVecSolver(w).Solve(c.a, c.x, c.b, core.MatVecOptions{Engine: core.EngineCompiled})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dst, want.Y) || steps != want.Stats.T {
				t.Errorf("shards=%d case %d: matvec Into differs from serial", shards, i)
			}
		}
		s.Close()
	}
}
