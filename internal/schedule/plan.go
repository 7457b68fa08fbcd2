package schedule

import (
	"sync"
	"sync/atomic"
)

// This file is the workload-agnostic half of the engine: the plan/replay
// contract every compiled workload follows and the shape-keyed plan
// caches.
//
// A *plan* is the complete event schedule of one workload at one shape —
// everything the structural simulator would discover cycle by cycle
// (initialization sources, accumulation orders, emit/inject stamps,
// feedback topology, activity counts), precomputed as dense index arrays.
// A plan is immutable after compilation and shared freely across
// goroutines; *replay* (the plan's Exec or ExecGrid method) walks those
// arrays over one problem's data in O(work) with zero allocations. Four workloads compile
// today — matvec (linear array), matmul (hexagonal array), trisolve
// (triangular solver array), and the sparse matvec (linear array, one
// program per retained row band) — and cache.go holds one cache per
// workload, all built on the generic planCache below. Three are shape-keyed;
// the sparse matvec's schedule depends on the retained-block pattern (data,
// not shape), so its cache is keyed by (shape, pattern digest) with full
// pattern verification on every hit (see sparse.go).

// planCache is a process-wide concurrency-safe map from shape key to
// compiled plan. Schedules depend only on problem shape, and the
// sweep/soak/bench harnesses resolve the same shapes thousands of times —
// the steady state is one map load per solve. The cache is bounded:
// distinct shapes are few in practice, but a pathological workload cycling
// through unbounded shapes would otherwise grow it forever, so past
// maxCached entries the map is dropped and rebuilt (a full re-compile is
// cheap relative to the workload that caused it).
type planCache[K comparable, P any] struct {
	m     atomic.Pointer[sync.Map] // K → P
	count atomic.Int64
}

const maxCached = 4096

// newPlanCache returns an empty cache.
func newPlanCache[K comparable, P any]() *planCache[K, P] {
	c := &planCache[K, P]{}
	c.m.Store(&sync.Map{})
	return c
}

// get returns the cached plan for key, compiling and inserting it on a
// miss. Compilation errors are not cached (the next caller retries).
func (c *planCache[K, P]) get(key K, compile func() (P, error)) (P, error) {
	cache := c.m.Load()
	if p, ok := cache.Load(key); ok {
		return p.(P), nil
	}
	p, err := compile()
	if err != nil {
		var zero P
		return zero, err
	}
	if _, loaded := cache.LoadOrStore(key, p); !loaded {
		if c.count.Add(1) > maxCached {
			c.m.Store(&sync.Map{})
			c.count.Store(0)
		}
	}
	return p, nil
}
