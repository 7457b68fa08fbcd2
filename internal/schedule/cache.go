package schedule

import "repro/internal/dbt"

// One shape-keyed plan cache per workload (see plan.go for the bounding and
// concurrency story).

type matvecKey struct {
	w, nbar, mbar int
	variant       uint8 // 0 = by-rows, 1 = by-columns
	overlap       bool
}

type matmulKey struct {
	w, nbar, pbar, mbar int
	ldc                 int // row stride of E and C
}

type trisolveKey struct {
	w, n int
}

// sparseKey is the pattern-keyed variant: the shape plus a digest of the
// retained-block pattern. Unlike the shape keys it is lossy — two patterns
// can collide on one digest — so every cache and memo hit re-verifies the
// full pattern (SparseMatVec.MatchesPattern) and recompiles on a mismatch.
type sparseKey struct {
	w, nbar, mbar int
	digest        uint64
}

var (
	matvecCache   = newPlanCache[matvecKey, *MatVec]()
	matmulCache   = newPlanCache[matmulKey, *MatMul]()
	trisolveCache = newPlanCache[trisolveKey, *TriSolve]()
	sparseCache   = newPlanCache[sparseKey, *SparseMatVec]()
)

// patternDigest is the digest function behind PatternDigest, a variable so
// the collision tests can force distinct patterns onto one bucket and pin
// the equality check on cache hits.
var patternDigest = defaultPatternDigest

// defaultPatternDigest hashes a retained-block pattern FNV-1a style with a
// per-band length separator, so [[0,1],[]] and [[0],[1]] digest differently.
func defaultPatternDigest(retained [][]int) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, cols := range retained {
		mix(uint64(len(cols)) | 1<<63)
		for _, c := range cols {
			mix(uint64(c))
		}
	}
	return h
}

// PatternDigest returns the canonical 64-bit digest of a retained-block
// pattern — the data half of the sparse plan key. Callers routing by
// pattern affinity (the stream scheduler) use it as a stable hash; it is
// never trusted alone for plan identity (see SparseMatVecFor).
func PatternDigest(retained [][]int) uint64 { return patternDigest(retained) }

// SparseMatVecFor returns the compiled sparse matvec schedule for the shape
// (w, n̄, m̄) and retained-block pattern, reusing a cached plan when the
// exact pattern has been seen before. The cache key is (shape, pattern
// digest); a hit is verified against the full canonical pattern, and a
// digest collision compiles a fresh uncached plan — first pattern in wins
// the bucket, colliding patterns pay a recompile, results are never wrong.
func SparseMatVecFor(w, nbar, mbar int, retained [][]int) (*SparseMatVec, error) {
	key := sparseKey{w: w, nbar: nbar, mbar: mbar, digest: patternDigest(retained)}
	s, err := sparseCache.get(key, func() (*SparseMatVec, error) {
		return compileSparseMatVec(w, nbar, mbar, retained)
	})
	if err != nil {
		return nil, err
	}
	if !s.MatchesPattern(retained) {
		return compileSparseMatVec(w, nbar, mbar, retained)
	}
	return s, nil
}

// MatVecFor returns the compiled schedule for the shape of t (with or
// without the overlap split), reusing a cached schedule when the shape has
// been seen before. Unknown Transform implementations are compiled but not
// cached (their BSource topology is not identified by the key). The error
// mirrors the structural path's: §2 validation failure or an unsplittable
// overlap.
func MatVecFor(t dbt.Transform, overlap bool) (*MatVec, error) {
	var variant uint8
	switch t.(type) {
	case *dbt.MatVec:
		variant = 0
	case *dbt.MatVecByColumns:
		variant = 1
	default:
		return compileMatVec(t, overlap)
	}
	w, nbar, mbar := t.Shape()
	key := matvecKey{w: w, nbar: nbar, mbar: mbar, variant: variant, overlap: overlap}
	return matvecCache.get(key, func() (*MatVec, error) { return compileMatVec(t, overlap) })
}

// MatMulFor returns the compiled schedule for the block shape
// (w, n̄, p̄, m̄) — A n̄w × p̄w, B p̄w × m̄w after padding — with E and C
// rows ldc ≥ m̄w apart, reusing a cached schedule when possible. ldc = m̄w
// is the plan of a standalone padded C; a wider ldc updates a block of a
// larger matrix in place.
func MatMulFor(w, nbar, pbar, mbar, ldc int) *MatMul {
	key := matmulKey{w: w, nbar: nbar, pbar: pbar, mbar: mbar, ldc: ldc}
	s, _ := matmulCache.get(key, func() (*MatMul, error) {
		return compileMatMul(dbt.NewMatMulShape(w, nbar, pbar, mbar), ldc), nil
	})
	return s
}

// TriSolveFor returns the compiled schedule of a band triangular solve of
// dimension n on a w-PE solver array, reusing a cached schedule when
// possible.
func TriSolveFor(n, w int) *TriSolve {
	key := trisolveKey{w: w, n: n}
	s, _ := trisolveCache.get(key, func() (*TriSolve, error) { return compileTriSolve(n, w), nil })
	return s
}
