//go:build !race

package trisolve

// raceEnabled reports whether the race detector instruments this build
// (it changes allocation behavior, so the zero-alloc assertions skip).
const raceEnabled = false
