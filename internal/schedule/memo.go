package schedule

import "repro/internal/dbt"

// PlanMemo is a single-goroutine memo of resolved plans, layered in front
// of the process-wide caches. The global caches are concurrency-safe but
// their sync.Map lookups box the key on every call — a per-call allocation
// the zero-alloc solver path cannot afford. A PlanMemo remembers every
// (shape → plan) pair its owner has resolved in plain Go maps (struct keys,
// no boxing, no allocation on the steady-state hit path), so a scratch
// arena replaying many same-shape passes touches the global caches once per
// shape. Plans are immutable and shared freely, so memoizing them is safe;
// the memo itself must not be shared between goroutines — each arena owns
// one.
type PlanMemo struct {
	mv  map[matvecKey]*MatVec
	mm  map[matmulKey]*MatMul
	tri map[trisolveKey]*TriSolve
	sp  map[sparseKey]*SparseMatVec
}

// NewPlanMemo returns an empty memo.
func NewPlanMemo() *PlanMemo {
	return &PlanMemo{
		mv:  make(map[matvecKey]*MatVec),
		mm:  make(map[matmulKey]*MatMul),
		tri: make(map[trisolveKey]*TriSolve),
		sp:  make(map[sparseKey]*SparseMatVec),
	}
}

// MatVecFor is MatVecFor through the memo: the owner's previously resolved
// plan when the shape has been seen, the shared cache otherwise.
func (pm *PlanMemo) MatVecFor(t *dbt.MatVec, overlap bool) (*MatVec, error) {
	key := matvecKey{w: t.W, nbar: t.NBar, mbar: t.MBar, variant: 0, overlap: overlap}
	if s, ok := pm.mv[key]; ok {
		return s, nil
	}
	s, err := MatVecFor(t, overlap)
	if err != nil {
		return nil, err
	}
	pm.mv[key] = s
	return s, nil
}

// MatMulFor is MatMulFor through the memo.
func (pm *PlanMemo) MatMulFor(w, nbar, pbar, mbar, ldc int) *MatMul {
	key := matmulKey{w: w, nbar: nbar, pbar: pbar, mbar: mbar, ldc: ldc}
	if s, ok := pm.mm[key]; ok {
		return s
	}
	s := MatMulFor(w, nbar, pbar, mbar, ldc)
	pm.mm[key] = s
	return s
}

// TriSolveFor is TriSolveFor through the memo.
func (pm *PlanMemo) TriSolveFor(n, w int) *TriSolve {
	key := trisolveKey{w: w, n: n}
	if s, ok := pm.tri[key]; ok {
		return s
	}
	s := TriSolveFor(n, w)
	pm.tri[key] = s
	return s
}

// SparseMatVecFor is SparseMatVecFor through the memo. The memo key is the
// same lossy (shape, digest) pair as the global cache's, so a hit is
// verified against the full pattern before it is trusted; a collision falls
// through to the global cache and the latest pattern takes the bucket. The
// steady-state hit path — digest, map load, pattern compare — allocates
// nothing, which is what lets the stream's sparse Into jobs run warm at
// 0 allocs/op.
func (pm *PlanMemo) SparseMatVecFor(w, nbar, mbar int, retained [][]int) (*SparseMatVec, error) {
	key := sparseKey{w: w, nbar: nbar, mbar: mbar, digest: patternDigest(retained)}
	if s, ok := pm.sp[key]; ok && s.MatchesPattern(retained) {
		return s, nil
	}
	s, err := SparseMatVecFor(w, nbar, mbar, retained)
	if err != nil {
		return nil, err
	}
	pm.sp[key] = s
	return s, nil
}
