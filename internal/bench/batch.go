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

// BatchGateSpeedup is the CI budget: at eight domains the batched drain
// must move the backlog at least this much faster than the unbatched
// loop, and the async-merged pipeline must not lose to enqueue-per-raise.
const BatchGateSpeedup = 1.2

// batchK is the drain batch size the batched arm pins.
const batchK = 64

// batchWork is the handler spin of the drain benchmark: light enough
// that per-activation scheduling overhead — the thing batching removes —
// stays a visible share of the cost, heavy enough that each activation
// still does real work.
const batchWork = 40

// batchEventsPerSec pre-fills each domain's queue with its share of
// total asynchronous raises, then starts the run loops and measures how
// fast they move the backlog — the pure drain throughput that batching
// amortizes, free of producer-scheduling noise. k <= 1 is the unbatched
// baseline.
func batchEventsPerSec(domains, k, total int) float64 {
	opts := []event.Option{event.WithDomains(domains)}
	if k > 1 {
		opts = append(opts, event.WithBatchDrain(k))
	}
	s := event.New(opts...)
	var consumed atomic.Int64
	evs := make([]event.ID, domains)
	for d := range evs {
		evs[d] = s.Define(fmt.Sprintf("work%d", d))
		s.Bind(evs[d], "spin", func(*event.Ctx) {
			parallelSink.Store(spinWork(batchWork))
			consumed.Add(1)
		})
		if err := s.PinEvent(evs[d], d); err != nil {
			panic(err)
		}
	}
	per := total / domains
	if per < 1 {
		per = 1
	}
	goal := int64(per * domains)

	var wg sync.WaitGroup
	for d := range evs {
		wg.Add(1)
		go func(ev event.ID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.RaiseAsync(ev)
			}
		}(evs[d])
	}
	wg.Wait()
	runtime.GC()

	stop := make(chan struct{})
	done := make(chan struct{})
	t0 := time.Now()
	go func() { s.Run(stop); close(done) }()
	for consumed.Load() < goal {
		time.Sleep(20 * time.Microsecond)
	}
	elapsed := time.Since(t0)
	close(stop)
	<-done
	return float64(goal) / elapsed.Seconds()
}

// pipelineOp builds the two-stage async pipeline head ~> tail on one
// domain and returns its per-op driver (one sync raise of head plus a
// drain of the interior raise) and the system for stats inspection. With
// merged, the installed super-handler covers tail as an async-entry
// segment, so the interior raise coalesces instead of enqueueing.
func pipelineOp(merged bool) (func(), *event.System) {
	s := event.New()
	head := s.Define("head")
	tail := s.Define("tail")
	headFn := func(ctx *event.Ctx) { ctx.RaiseAsync(tail) }
	tailFn := func(*event.Ctx) { parallelSink.Add(1) }
	s.Bind(head, "hh", headFn)
	s.Bind(tail, "ht", tailFn)
	if merged {
		sh := &event.SuperHandler{
			Entry: head,
			Segments: []event.Segment{
				{Event: head, EventName: "head", Version: s.Version(head),
					Steps: []event.Step{{Event: head, EventName: "head", Handler: "hh", Fn: headFn}}},
				{Event: tail, EventName: "tail", Version: s.Version(tail), AsyncEntry: true,
					Steps: []event.Step{{Event: tail, EventName: "tail", Handler: "ht", Fn: tailFn}}},
			},
		}
		if err := s.InstallFastPath(sh); err != nil {
			panic(err)
		}
	}
	return func() {
		_ = s.Raise(head)
		s.Drain()
	}, s
}

// sampleBatch measures the batched-drain and async-chain-merging layer:
// the drain-throughput table at 1/2/4/8 domains (unbatched vs batch K),
// and the single-domain pipeline where the merged chain's interior raise
// coalesces. The batch gate bounds the eight-domain speedup and the
// pipeline comparison; a merged pipeline that never coalesces fails the
// sample outright.
func sampleBatch(w io.Writer, events int) (Metrics, error) {
	m := Metrics{}
	header(w, fmt.Sprintf("Batched ring drains (K=%d, handler spin %d, %d CPUs)", batchK, batchWork, runtime.NumCPU()))
	fmt.Fprintf(w, "%-8s %16s %16s %9s\n", "Domains", "Unbatched ev/s", "Batched ev/s", "Speedup")
	for _, d := range []int{1, 2, 4, 8} {
		un := batchEventsPerSec(d, 1, events)
		ba := batchEventsPerSec(d, batchK, events)
		key := fmt.Sprintf("d%d.", d)
		m[key+"unbatched_eps"], m[key+"batched_eps"], m[key+"speedup"] = un, ba, ba/un
		fmt.Fprintf(w, "%-8d %16.0f %16.0f %8.2fx\n", d, un, ba, ba/un)
	}

	pops := events / 10
	if pops < 1000 {
		pops = 1000
	}
	unm, _ := pipelineOp(false)
	mrg, ms := pipelineOp(true)
	dUn, dMg := measurePair(pops, unm, mrg)
	if st := ms.StatsAggregate(); st.Coalesced == 0 {
		return m, fmt.Errorf("merged pipeline never coalesced a raise")
	}
	m["pipeline_unmerged_ns"], m["pipeline_merged_ns"] = ns(dUn), ns(dMg)
	m["pipeline_speedup"] = ns(dUn) / ns(dMg)
	header(w, "Async chain merging (head ~> tail pipeline, 1 domain)")
	fmt.Fprintf(w, "%-16s %12s\n", "Variant", "ns/op")
	fmt.Fprintf(w, "%-16s %12.1f\n", "enqueue-per-raise", m["pipeline_unmerged_ns"])
	fmt.Fprintf(w, "%-16s %12.1f\n", "async-merged", m["pipeline_merged_ns"])
	fmt.Fprintf(w, "pipeline speedup: %.2fx\n", m["pipeline_speedup"])
	return m, nil
}
