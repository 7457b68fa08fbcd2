package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zeroed vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Pad returns a copy of v extended with zeros to length n.
func (v Vector) Pad(n int) Vector {
	if n < len(v) {
		panic(fmt.Sprintf("matrix: cannot pad vector of len %d down to %d", len(v), n))
	}
	c := make(Vector, n)
	copy(c, v)
	return c
}

// Equal reports element-wise equality within tol (and equal lengths).
func (v Vector) Equal(other Vector, tol float64) bool {
	if len(v) != len(other) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-other[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func (v Vector) MaxAbsDiff(other Vector) float64 {
	if len(v) != len(other) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range v {
		if a := math.Abs(v[i] - other[i]); a > d {
			d = a
		}
	}
	return d
}

// Block returns the k-th length-w sub-vector (a copy); the final block may be
// shorter if len(v) is not a multiple of w.
func (v Vector) Block(k, w int) Vector {
	lo := k * w
	hi := lo + w
	if hi > len(v) {
		hi = len(v)
	}
	if lo < 0 || lo > len(v) {
		panic(fmt.Sprintf("matrix: block %d (w=%d) out of range for len %d", k, w, len(v)))
	}
	return v[lo:hi].Clone()
}

// ReuseVec returns a length-n vector backed by v's storage when its
// capacity allows, and a fresh vector otherwise. The contents are
// arbitrary (not zeroed) — the vector counterpart of Reuse, for
// workspaces that fully overwrite before reading.
func ReuseVec(v Vector, n int) Vector {
	if cap(v) < n {
		return make(Vector, n)
	}
	return v[:n]
}

// ReuseSlice returns a zero-valued length-n slice backed by s's storage
// when its capacity allows, and a fresh slice otherwise. Unlike ReuseVec
// the result is cleared — it exists for the per-pass stat and error slots
// the solver workspaces reduce after each barrier.
func ReuseSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// RandomDense fills a rows×cols matrix with small integers in [-bound,bound],
// drawn from rng. Small integers keep float64 arithmetic exact, so simulator
// output can be compared bit-for-bit with the reference computation.
func RandomDense(rng *rand.Rand, rows, cols, bound int) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, float64(rng.Intn(2*bound+1)-bound))
		}
	}
	return m
}

// RandomVector fills a length-n vector with small integers in [-bound,bound].
func RandomVector(rng *rand.Rand, n, bound int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = float64(rng.Intn(2*bound+1) - bound)
	}
	return v
}
