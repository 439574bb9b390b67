package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"eventopt/internal/event"
	"eventopt/internal/telemetry"
)

// windowLen is the length of one measurement window. Every timing is
// taken per window: on a shared host, neighbours' cache pressure slows
// whole seconds of a run by up to 2x, so each end-to-end timing is the
// better-quartile window (upper quartile of rates, lower quartile of
// latency percentiles), the steadiest estimate of the program's own
// speed. Whole-run medians are printed beside them.
const windowLen = 500 * time.Millisecond

// windowSamples caps the latency samples kept per window (a uniform
// reservoir beyond it), so a window's p99 rests on at least 160 samples
// above it and the buffer stays 64 KiB.
const windowSamples = 1 << 14

// heapEvery is how often the measured loop samples HeapInuse between
// operation batches.
const heapEvery = 20 * time.Millisecond

// window is the outcome of one measurement window.
type window struct {
	rate     float64 // operations per second
	p50, p99 float64 // latency percentiles in ns
	samples  int     // latency samples the percentiles rest on
	heap     uint64  // largest HeapInuse sampled
}

// meter records one measured phase: per-operation latency and outcome,
// and per-window rates, latency percentiles and heap peaks.
type meter struct {
	d       time.Duration
	cur     []uint32 // latency samples of the current window in ns (reservoir)
	curSeen int64    // operations recorded in the current window
	rng     uint64
	heap    uint64 // largest HeapInuse of the current window
	ops     int64
	failed  int64

	start, winStart time.Time
	winOps          int64
	windows         []window
}

func newMeter(d time.Duration, seed uint64) *meter {
	return &meter{d: d, cur: make([]uint32, 0, windowSamples), rng: seed | 1}
}

// record accounts one operation that took ns nanoseconds.
func (m *meter) record(ns int64, ok bool) {
	m.ops++
	if !ok {
		m.failed++
	}
	m.curSeen++
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	if len(m.cur) < cap(m.cur) {
		m.cur = append(m.cur, uint32(ns))
		return
	}
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	if j := m.rng % uint64(m.curSeen); j < uint64(len(m.cur)) {
		m.cur[j] = uint32(ns)
	}
}

// fail accounts n operations that failed without a latency sample.
func (m *meter) fail(n int64) {
	m.ops += n
	m.failed += n
}

func (m *meter) begin() {
	m.start = time.Now()
	m.winStart = m.start
}

// tick closes the current window once it has run windowLen, and reports
// whether the phase is over.
func (m *meter) tick(now time.Time, heap uint64) bool {
	m.heap = max(m.heap, heap)
	over := now.Sub(m.start) >= m.d
	if el := now.Sub(m.winStart); el >= windowLen || over {
		w := window{rate: float64(m.ops-m.winOps) / el.Seconds(), samples: len(m.cur), heap: m.heap}
		if len(m.cur) > 0 {
			slices.Sort(m.cur)
			w.p50 = float64(m.cur[(len(m.cur)-1)/2])
			w.p99 = float64(m.cur[(len(m.cur)-1)*99/100])
		}
		m.windows = append(m.windows, w)
		m.winStart, m.winOps = now, m.ops
		m.cur, m.curSeen, m.heap = m.cur[:0], 0, 0
	}
	return over
}

// stat returns quantile q of one per-window quantity.
func (m *meter) stat(q float64, f func(window) float64) float64 {
	xs := make([]float64, 0, len(m.windows))
	for _, w := range m.windows {
		if w.rate > 0 {
			xs = append(xs, f(w))
		}
	}
	return quantile(xs, q)
}

func (m *meter) opsPerSec() float64 { return m.stat(0.75, func(w window) float64 { return w.rate }) }

// quantile interpolates quantile q of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// counts is a snapshot of the program's cumulative counters, read
// through its public API: named scalars plus the merged queue-delay
// histogram of the telemetry layer.
type counts struct {
	v      map[string]float64
	qdelay telemetry.HistSnapshot
}

func newCounts() counts { return counts{v: map[string]float64{}} }

// sub returns c - o, field by field.
func (c counts) sub(o counts) counts {
	d := newCounts()
	for k, x := range c.v {
		d.v[k] = x - o.v[k]
	}
	d.qdelay = c.qdelay
	d.qdelay.Count -= o.qdelay.Count
	d.qdelay.Sum -= o.qdelay.Sum
	for i := range d.qdelay.Buckets {
		d.qdelay.Buckets[i] -= o.qdelay.Buckets[i]
	}
	return d
}

// addStats accumulates one system's dispatch counters.
func (c counts) addStats(st event.StatsSnapshot) {
	c.v["raises"] += float64(st.Raises)
	c.v["async_raises"] += float64(st.AsyncRaises)
	c.v["generic"] += float64(st.Generic)
	c.v["fast_runs"] += float64(st.FastRuns)
	c.v["fallbacks"] += float64(st.Fallbacks)
	c.v["seg_fallbacks"] += float64(st.SegFallbacks)
	c.v["indirect"] += float64(st.Indirect)
	c.v["marshals"] += float64(st.Marshals)
	c.v["arg_resolves"] += float64(st.ArgResolves)
	c.v["locks"] += float64(st.Locks)
	c.v["handlers_run"] += float64(st.HandlersRun)
	c.v["coalesced"] += float64(st.Coalesced)
	c.v["coalesce_fallbacks"] += float64(st.CoalesceFallbacks)
	c.v["xdomain_handoffs"] += float64(st.XDomainHandoffs)
	c.v["xdomain_fallbacks"] += float64(st.XDomainFallbacks)
	c.v["panics"] += float64(st.PanicsRecovered)
	c.v["dead_letters"] += float64(st.DeadLetters)
	c.v["queue_drops"] += float64(st.QueueDrops)
}

// addTelemetry accumulates one system's telemetry histograms: sampled
// activation count and the queue-delay histogram.
func (c *counts) addTelemetry(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	for _, r := range tel.Events() {
		c.v["tel_samples"] += float64(r.Latency.Count)
		c.qdelay.Merge(r.QueueDelay)
	}
}

// droppedWork is the number of activations the runtime lost: panics,
// dead letters and queue drops. Any of them fails the run.
func (c counts) droppedWork() float64 {
	return c.v["panics"] + c.v["dead_letters"] + c.v["queue_drops"]
}

// phase is the outcome of one measured phase.
type phase struct {
	m       *meter
	delta   counts
	mallocs uint64
	tracer  *tracer
}

// measure runs w's closed loop for d, sampling HeapInuse between
// batches and the program's counters and malloc count around the loop.
func measure(w workload, d time.Duration, tr *tracer, seed uint64) (*phase, error) {
	m := newMeter(d, seed)
	runtime.GC()
	c0 := w.counts()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	m.begin()
	nextHeap := m.start.Add(heapEvery)
	for {
		if runBatch(w, m, tr) {
			break
		}
		now := time.Now()
		var heap uint64
		if now.After(nextHeap) {
			runtime.ReadMemStats(&ms)
			heap = ms.HeapInuse
			nextHeap = now.Add(heapEvery)
		}
		if m.tick(now, heap) {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	p := &phase{m: m, mallocs: ms.Mallocs - mallocs0, tracer: tr}
	p.delta = w.counts().sub(c0)
	if m.ops == 0 {
		return nil, errors.New("measured phase completed no operation")
	}
	return p, nil
}

// runBatch runs one batch of w, counting a panic out of the program as
// one failed operation; it reports whether one happened, after which the
// program's state is unknown and the phase ends.
func runBatch(w workload, m *meter, tr *tracer) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Printf("operation panicked: %v\n", r)
			m.fail(1)
			panicked = true
		}
	}()
	w.batch(m, tr)
	return false
}

// splitmix is the seeded generator of every input the workloads make.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// shuffle permutes n items in place through swap (Fisher-Yates).
func (r *splitmix) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

func (r *splitmix) fill(b []byte) {
	for i := range b {
		if i%8 == 0 {
			v := r.next()
			for j := 0; j < 8 && i+j < len(b); j++ {
				b[i+j] = byte(v >> (8 * j))
			}
		}
	}
}
