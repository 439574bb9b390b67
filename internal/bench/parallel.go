package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eventopt/internal/event"
)

// parallelWork is the spin count of the benchmark handler: enough real
// work (~a few hundred ns) that throughput is handler-bound, as in a real
// service, rather than bound on the shared statistics counters.
const parallelWork = 400

var parallelSink atomic.Int64

func spinWork(n int) int64 {
	s := int64(0)
	for i := 0; i < n; i++ {
		s += int64(i*i) ^ (s >> 3)
	}
	return s
}

// parallelSystem builds a D-domain system with one event per goroutine.
// With pin0, every event is pinned to domain 0 — all raisers contend on
// one atomicity lock; otherwise each event is pinned to goroutine%D, the
// sharded configuration.
func parallelSystem(domains, goroutines int, pin0 bool) (*event.System, []event.ID) {
	s := event.New(event.WithDomains(domains))
	evs := make([]event.ID, goroutines)
	for g := range evs {
		evs[g] = s.Define(fmt.Sprintf("work%d", g))
		s.Bind(evs[g], "spin", func(*event.Ctx) { parallelSink.Store(spinWork(parallelWork)) })
		dom := g % domains
		if pin0 {
			dom = 0
		}
		if err := s.PinEvent(evs[g], dom); err != nil {
			panic(err)
		}
	}
	return s, evs
}

// raisesPerSec drives total synchronous raises split over the goroutines
// (goroutine g raises only evs[g]) and returns the best throughput of
// three passes.
func raisesPerSec(s *event.System, evs []event.ID, total int) float64 {
	per := total / len(evs)
	if per < 1 {
		per = 1
	}
	pass := func() float64 {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := range evs {
			wg.Add(1)
			go func(ev event.ID) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					_ = s.Raise(ev)
				}
			}(evs[g])
		}
		wg.Wait()
		return float64(per*len(evs)) / time.Since(t0).Seconds()
	}
	pass() // warm-up
	best := 0.0
	for i := 0; i < 3; i++ {
		runtime.GC()
		if r := pass(); r > best {
			best = r
		}
	}
	return best
}

// sampleParallel measures multi-domain dispatch throughput: raises/sec
// at 1, 2, 4 and 8 domains, with all events contending on one domain
// versus sharded across all of them. raises is the per-row raise count
// (split over the goroutines). The goroutine count of every row equals
// the domain count, so contended vs sharded isolates lock sharding from
// offered parallelism.
func sampleParallel(w io.Writer, raises int) (Metrics, error) {
	header(w, fmt.Sprintf("Parallel dispatch throughput (handler spin %d, %d CPUs)", parallelWork, runtime.NumCPU()))
	fmt.Fprintf(w, "%-8s %-11s %14s %14s %9s\n", "Domains", "Goroutines", "Contended r/s", "Sharded r/s", "Speedup")
	m := Metrics{}
	for _, d := range []int{1, 2, 4, 8} {
		sc, evc := parallelSystem(d, d, true)
		contended := raisesPerSec(sc, evc, raises)
		ss, evss := parallelSystem(d, d, false)
		sharded := raisesPerSec(ss, evss, raises)
		key := fmt.Sprintf("d%d.", d)
		m[key+"contended_rps"], m[key+"sharded_rps"], m[key+"speedup"] = contended, sharded, sharded/contended
		fmt.Fprintf(w, "%-8d %-11d %14.0f %14.0f %8.2fx\n", d, d, contended, sharded, sharded/contended)
	}
	return m, nil
}
