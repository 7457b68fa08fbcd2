package solve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/trisolve"
)

// goldenDigest is the SHA-256 of every bit TestGoldenBits observes. A
// change to it means some result, statistic or error of the direct solvers
// changed: a reordered sum, a new pivot rule or a different pass sequence.
const goldenDigest = "7b445553e88f5c5654b1ec51e617e0dec18a327686d29902faa8e8fc7a7c2c44"

// TestGoldenBits hashes the exact output of BlockLU, Workspace.Solve and
// the dense triangular solves over a fixed seeded corpus — w 1..8 and
// n 1..40, ragged sizes included — and compares it with goldenDigest. The
// inputs are diagonally dominant floats, {−1,0,1} integers (which hit
// exact zero pivots) or dominant matrices with a zeroed row, under both
// pivot policies, on the compiled engine for every case and on the oracle
// for every tenth. Everything is hashed: the float64 bits of x, L and U,
// every stats field and every error string.
func TestGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden digest is pinned on amd64; other architectures may fuse multiply-adds (ROADMAP item 6)")
	}
	rng := rand.New(rand.NewSource(29))
	dg := goldenHasher{h: sha256.New()}
	engines := []core.Engine{core.EngineCompiled, core.EngineOracle}
	var sws [2]*Workspace
	var tws [2]*trisolve.Workspace
	c := 0
	for w := 1; w <= 8; w++ {
		for e := range engines {
			sws[e], tws[e] = NewWorkspace(w), trisolve.NewWorkspace(w)
		}
		for n := 1; n <= 40; n++ {
			a, d := goldenCase(rng, n, c%3)
			refine := RefineOptions{}
			if c%4 == 3 {
				refine.MaxIters = 3
			}
			for e, eng := range engines {
				if eng == core.EngineOracle && c%10 != 0 {
					continue
				}
				for _, pivot := range []PivotPolicy{PivotNone, PivotPartial} {
					opts := Options{Engine: eng, Pivot: pivot, Refine: refine}
					l, u, lus, err := sws[e].BlockLU(a, opts)
					if dg.err(err) {
						dg.dense(l)
						dg.dense(u)
						dg.lu(lus)
					}
					x, st, err := sws[e].Solve(a, d, opts)
					if dg.err(err) {
						dg.vec(x)
						dg.lu(&st.LU)
						dg.ints(st.TriSteps, st.TriPasses, st.MatVecSteps, st.MatVecPasses)
						dg.float(st.Residual)
						dg.ints(st.Refine.Iters)
						dg.float(st.Refine.ResidualNorm)
						dg.bool(st.Refine.Converged)
					}
				}
				x := make(matrix.Vector, n)
				for _, upper := range []bool{false, true} {
					tri := triangle(a, upper)
					var ps trisolve.PassStats
					var err error
					if upper {
						ps, err = tws[e].SolveUpperInto(x, tri, d, eng)
					} else {
						ps, err = tws[e].SolveLowerInto(x, tri, d, eng)
					}
					if dg.err(err) {
						dg.vec(x)
						dg.ints(ps.TriSteps, ps.TriPasses, ps.MatVecSteps, ps.MatVecPasses)
					}
				}
			}
			c++
		}
	}
	if got := hex.EncodeToString(dg.h.Sum(nil)); got != goldenDigest {
		t.Errorf("golden digest = %s, want %s", got, goldenDigest)
	}
}

// goldenCase returns case kind 0 (diagonally dominant floats), 1 ({−1,0,1}
// integers) or 2 (diagonally dominant with one zeroed row) and a float
// right-hand side.
func goldenCase(rng *rand.Rand, n, kind int) (*matrix.Dense, matrix.Vector) {
	a := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		row := a.RawRow(i)
		sum := 0.0
		for j := range row {
			if kind == 1 {
				row[j] = float64(rng.Intn(3) - 1)
			} else {
				row[j] = 2*rng.Float64() - 1
				sum += math.Abs(row[j])
			}
		}
		if kind != 1 {
			row[i] = sum + 1 + rng.Float64()
		}
	}
	if kind == 2 {
		clear(a.RawRow(rng.Intn(n)))
	}
	d := make(matrix.Vector, n)
	for i := range d {
		d[i] = 4*rng.Float64() - 2
	}
	return a, d
}

// triangle returns the lower (or upper) triangle of a, diagonal included.
func triangle(a *matrix.Dense, upper bool) *matrix.Dense {
	n := a.Rows()
	t := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (j <= i) != upper || i == j {
				t.Set(i, j, a.At(i, j))
			}
		}
	}
	return t
}

// goldenHasher feeds values into the digest in a fixed binary encoding.
type goldenHasher struct {
	h   hash.Hash
	buf [8]byte
}

func (g *goldenHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], v)
	g.h.Write(g.buf[:])
}

func (g *goldenHasher) float(v float64) { g.u64(math.Float64bits(v)) }

func (g *goldenHasher) ints(vs ...int) {
	for _, v := range vs {
		g.u64(uint64(v))
	}
}

func (g *goldenHasher) bool(v bool) {
	if v {
		g.u64(1)
	} else {
		g.u64(0)
	}
}

func (g *goldenHasher) vec(v matrix.Vector) {
	g.ints(len(v))
	for _, x := range v {
		g.float(x)
	}
}

func (g *goldenHasher) dense(m *matrix.Dense) {
	g.ints(m.Rows(), m.Cols())
	for _, x := range m.Raw() {
		g.float(x)
	}
}

func (g *goldenHasher) lu(s *LUStats) {
	g.ints(s.ArraySteps, s.ArrayPasses, s.HostOps, s.RowSwaps, len(s.Perm))
	g.ints(s.Perm...)
}

// err hashes err's message (or a marker for success) and reports whether
// the call succeeded.
func (g *goldenHasher) err(err error) bool {
	if err == nil {
		g.ints(0)
		return true
	}
	msg := err.Error()
	g.ints(1, len(msg))
	g.h.Write([]byte(msg))
	return false
}
