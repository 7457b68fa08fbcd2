package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/stream"
)

// window is the length of the slices a timed phase is cut into. Rates and
// latency percentiles are computed per window. Other tenants of a shared
// host slow the program by up to 1.7x for seconds to minutes at a time and
// never speed it up, so a run reports ops_per_s and latency_p50_ms from
// the windows at the fast end, the fastShare quantile from it: those
// estimate the program's own speed, while the median window moves with
// the share of the run that fell in a slow period. latency_p95_ms is the
// median window's: a window's tail already shows its slow moments, and the
// fast end would only ask whether the run had any clean second at all.
const (
	window    = time.Second
	fastShare = 0.1
)

// maxLatency clamps a stored latency; anything slower misses every SLO.
const maxLatency = math.MaxUint32 * time.Nanosecond

// recorder holds one load goroutine's per-op samples in storage
// preallocated at set-up, so recording allocates nothing in the timed
// phase. Only its owning goroutine touches it until the phase has ended.
type recorder struct {
	lat  []uint32 // latency, ns, from the op's due time
	done []uint32 // completion time, µs since the phase started
	lag  []uint32 // how late the op was sent, ns

	attempted, failed, wrong int
	steps                    int64
	full                     bool // capacity ran out: the run is invalid
}

func newRecorder(capacity int) (*recorder, error) {
	buf, err := offHeap[uint32](3 * capacity)
	if err != nil {
		return nil, err
	}
	c := capacity
	return &recorder{lat: buf[:0:c], done: buf[c : c : 2*c], lag: buf[2*c : 2*c : 3*c]}, nil
}

// offHeap returns n zero values of T in anonymous memory outside the Go
// heap; T must hold no pointers. Recorder and span
// storage grows with the run length and the load's rate; on the heap it
// would count toward heap_peak_mb and raise the collector's target, so
// that metric would measure the harness. Pages are only backed once
// written, so a generous capacity costs nothing. The memory is never
// freed: a run is one process.
func offHeap[T any](n int) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes of sample storage: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

func (r *recorder) reset() {
	r.lat, r.done, r.lag = r.lat[:0], r.done[:0], r.lag[:0]
	r.attempted, r.failed, r.wrong, r.steps, r.full = 0, 0, 0, 0, false
}

func clampNS(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > maxLatency {
		return math.MaxUint32
	}
	return uint32(d)
}

// ok records a correct completion: lat from the op's due time, done since
// the phase started, lag between due time and the actual send.
func (r *recorder) ok(lat, done, lag time.Duration, steps int) {
	r.attempted++
	if len(r.lat) == cap(r.lat) {
		r.full = true
		return
	}
	r.lat = append(r.lat, clampNS(lat))
	r.done = append(r.done, uint32(done/time.Microsecond))
	r.lag = append(r.lag, clampNS(lag))
	r.steps += int64(steps)
}

// fail records a failed op; wrong marks a result that disagreed with the
// serial answer.
func (r *recorder) fail(wrong bool) {
	r.attempted++
	r.failed++
	if wrong {
		r.wrong++
	}
}

// summary is the end-to-end view of one timed phase.
type summary struct {
	attempted, failed, wrong, ok int
	full                         bool
	opsPerS                      float64 // fast-end quantile of per-window completion rates
	p50MS                        float64 // fast-end quantile of per-window medians
	p95MS                        float64 // median of per-window 95th percentiles
	p95Beyond                    int     // samples above the p95 in the median window
	sloFrac                      float64 // correct within the SLO / attempted
	stepsPerOp                   float64
	lagP95MS                     float64
}

// summarize merges the recorders of one phase of the given length.
func summarize(recs []*recorder, phase, slo time.Duration) summary {
	var s summary
	nw := int(phase / window)
	perWindow := make([][]uint32, nw)
	var lags []uint32
	var steps int64
	within := 0
	for _, r := range recs {
		s.attempted += r.attempted
		s.failed += r.failed
		s.wrong += r.wrong
		s.full = s.full || r.full
		steps += r.steps
		lags = append(lags, r.lag...)
		for i, l := range r.lat {
			if time.Duration(l) <= slo {
				within++
			}
			if w := int(time.Duration(r.done[i]) * time.Microsecond / window); w < nw {
				perWindow[w] = append(perWindow[w], l)
			}
		}
		s.ok += len(r.lat)
	}
	if s.ok > 0 {
		s.stepsPerOp = float64(steps) / float64(s.ok)
	}
	if s.attempted > 0 {
		s.sloFrac = float64(within) / float64(s.attempted)
	}
	rates := make([]float64, nw)
	p50s := make([]float64, nw)
	p95s := make([]float64, nw)
	beyond := make([]float64, nw)
	for w, lat := range perWindow {
		sortU32(lat)
		rates[w] = float64(len(lat)) / window.Seconds()
		p50s[w] = float64(quantileU32(lat, 0.50)) / 1e6
		p95s[w] = float64(quantileU32(lat, 0.95)) / 1e6
		beyond[w] = float64(len(lat) - int(math.Ceil(0.95*float64(len(lat)))))
	}
	s.opsPerS = quantile(rates, 1-fastShare)
	s.p50MS = quantile(p50s, fastShare)
	s.p95MS = median(p95s)
	s.p95Beyond = int(median(beyond))
	sortU32(lags)
	s.lagP95MS = float64(quantileU32(lags, 0.95)) / 1e6
	return s
}

func sortU32(v []uint32) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// quantileU32 is the nearest-rank q-quantile of sorted v (0 when empty).
func quantileU32(v []uint32, q float64) uint32 {
	if len(v) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

// median returns the median of v (0 when empty); v is reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (0 when empty); v is reordered.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (v[i+1]-v[i])*(pos-float64(i))
}

// durMedian returns the median of ds in the given unit.
func durMedian(ds []time.Duration, unit time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / float64(unit)
	}
	return median(v)
}

// sampler polls the heap (and, for traced runs, the scheduler's queue
// depths and service-time averages) on its own goroutine during a timed
// phase. runtime/metrics reads do not stop the world.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	heapPeak  uint64
	depthSum  float64 // Σ over samples of the shards' total queue depth
	ewmaSum   float64 // Σ over samples of the shards' mean EWMA, µs
	samples   int
	scheduler *stream.Scheduler
}

const sampleEvery = 10 * time.Millisecond

// startSampler starts polling; s may be nil when no scheduler is watched.
func startSampler(s *stream.Scheduler) *sampler {
	sm := &sampler{stop: make(chan struct{}), scheduler: s}
	sm.wg.Add(1)
	go sm.loop()
	return sm
}

func (sm *sampler) loop() {
	defer sm.wg.Done()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > sm.heapPeak {
			sm.heapPeak = v
		}
		if s := sm.scheduler; s != nil {
			depth, ewma := 0, time.Duration(0)
			for i := 0; i < s.Shards(); i++ {
				depth += s.QueueDepth(i)
				ewma += s.ServiceEWMA(i)
			}
			sm.depthSum += float64(depth)
			sm.ewmaSum += float64(ewma) / float64(s.Shards()) / 1e3
			sm.samples++
		}
		select {
		case <-sm.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the sampler and waits for it to exit.
func (sm *sampler) finish() {
	close(sm.stop)
	sm.wg.Wait()
}

// proc is a snapshot of process-wide counters: cumulative heap
// allocation, completed GC cycles and CPU time.
type proc struct {
	alloc, gcs uint64
	cpu        time.Duration
}

func readProc() (proc, error) {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(sample)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return proc{}, fmt.Errorf("getrusage: %w", err)
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return proc{alloc: sample[0].Value.Uint64(), gcs: sample[1].Value.Uint64(), cpu: cpu}, nil
}
