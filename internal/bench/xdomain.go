package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"eventopt/internal/adaptive"
	"eventopt/internal/event"
	"eventopt/internal/telemetry"
)

// XDomainGateSpeedup is the CI budget for the merged cross-domain
// pipeline: continuation handoff must beat the enqueue-per-link route
// by at least this factor.
const XDomainGateSpeedup = 1.15

// XDomainAdaptivePct is the K-tuning convergence budget: after the
// backlog phase shift the controller-tuned drain must come within this
// percentage of the best statically-pinned batch size.
const XDomainAdaptivePct = 15.0

// xdomainHops is the pipeline depth: stages alternate domains, so every
// interior raise crosses a domain edge.
const xdomainHops = 6

// xdomainStageHandlers is the handler count per pipeline stage: two
// observers plus a forwarder, each declaring a parameter, so the
// generic route pays the paper's per-handler overheads (parameter
// resolution, state-lock traffic, bookkeeping) at every stage while the
// merged segment pays them once.
const xdomainStageHandlers = 3

// xdomainPipelineOp builds a pipeline of xdomainHops+1 stages that
// ping-pongs between two domains (stage i pinned to domain i%2), three
// handlers per stage: two observers and, on interior stages, a
// forwarder that raises the next stage asynchronously (the argument
// slice is hoisted so the steady-state op never allocates). The per-op
// driver raises the head synchronously and drains, so exactly one
// activation is in flight and every interior raise meets an idle target
// domain. With merged, one super-handler covers the whole pipeline with
// async-entry segments, so each cross-domain link is a continuation
// handoff instead of a ring enqueue+pop plus a fresh per-handler
// dispatch on the target.
func xdomainPipelineOp(merged bool) (func(), *event.System) {
	s := event.New(event.WithDomains(2))
	n := xdomainHops + 1
	evs := make([]event.ID, n)
	names := make([]string, n)
	for i := range evs {
		names[i] = fmt.Sprintf("stage%d", i)
		evs[i] = s.Define(names[i])
		if err := s.PinEvent(evs[i], i%2); err != nil {
			panic(err)
		}
	}
	args := []event.Arg{{Name: "n", Val: 7}}
	obsFn := func(ctx *event.Ctx) { parallelSink.Add(int64(ctx.Args.Int("n"))) }
	segs := make([]event.Segment, n)
	for i := range evs {
		last := obsFn
		lastName := "obs3"
		if i < n-1 {
			next := evs[i+1]
			last = func(ctx *event.Ctx) { ctx.RaiseAsync(next, args...) }
			lastName = "fwd"
		}
		s.Bind(evs[i], "obs1", obsFn, event.WithOrder(0), event.WithParams("n"))
		s.Bind(evs[i], "obs2", obsFn, event.WithOrder(1), event.WithParams("n"))
		s.Bind(evs[i], lastName, last, event.WithOrder(2), event.WithParams("n"))
		segs[i] = event.Segment{
			Event: evs[i], EventName: names[i], Version: s.Version(evs[i]),
			AsyncEntry: i > 0,
			Steps: []event.Step{
				{Event: evs[i], EventName: names[i], Handler: "obs1", Fn: obsFn},
				{Event: evs[i], EventName: names[i], Handler: "obs2", Fn: obsFn},
				{Event: evs[i], EventName: names[i], Handler: lastName, Fn: last},
			},
		}
	}
	if merged {
		if err := s.InstallFastPath(&event.SuperHandler{Entry: evs[0], Segments: segs}); err != nil {
			panic(err)
		}
	}
	return func() {
		_ = s.Raise(evs[0], args...)
		s.Drain()
	}, s
}

// ktuneEPS measures drain throughput of a prefilled backlog across
// domains, each domain's event pinned locally: the batchEventsPerSec
// workload with telemetry enabled (so the adaptive variant's
// observation cost is also paid by every static point). k is the
// statically pinned batch size (<=1 unbatched); with tune, the batch
// size starts untuned and an adaptive controller ticks during the drain
// — the backlog phase shift it must react to. A light pre-phase lets
// the tuner settle at K=0 first, so the measured drain includes the
// raise transient.
func ktuneEPS(domains, k, total int, tune bool) (float64, int64, int64) {
	opts := []event.Option{
		event.WithDomains(domains),
		event.WithTelemetry(telemetry.Config{SampleEvery: 64, TimeSampleEvery: 64}),
	}
	if !tune && k > 1 {
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
	var ctl *adaptive.Controller
	if tune {
		var err error
		ctl, err = adaptive.New(s, nil, adaptive.Policy{
			CooldownTicks: 1, BatchCooldownTicks: 1,
		})
		if err != nil {
			panic(err)
		}
		defer ctl.Close()
		// Light phase: immediate drains, negligible queue delay. The
		// tuner must hold every domain unbatched here.
		for t := 0; t < 4; t++ {
			for i := 0; i < 64*domains; i++ {
				s.RaiseAsync(evs[i%domains])
			}
			s.Drain()
			ctl.Tick()
		}
		consumed.Store(0)
	}

	per := total / domains
	if per < 1 {
		per = 1
	}
	goal := int64(per * domains)
	for i := 0; i < per; i++ {
		for d := range evs {
			s.RaiseAsync(evs[d])
		}
	}
	runtime.GC()

	stop := make(chan struct{})
	done := make(chan struct{})
	t0 := time.Now()
	go func() { s.Run(stop); close(done) }()
	for consumed.Load() < goal {
		if tune {
			ctl.Tick()
		}
		time.Sleep(50 * time.Microsecond)
	}
	elapsed := time.Since(t0)
	close(stop)
	<-done
	var raises, shrinks int64
	if tune {
		snap := ctl.Snapshot()
		raises, shrinks = snap.BatchRaises, snap.BatchShrinks
	}
	return float64(goal) / elapsed.Seconds(), raises, shrinks
}

// sampleXDomain measures the cross-domain continuation-handoff layer
// and the adaptive batch-size tuner. The xdomain gate bounds two of its
// metrics:
//
//  1. the merged pipeline (every link a cross-domain handoff) must beat
//     enqueue-per-link by XDomainGateSpeedup;
//  2. after a backlog phase shift, the controller-tuned drain must come
//     within XDomainAdaptivePct of the best statically-pinned K.
//
// The driving sync raise must stay allocation-free with coalescing and
// handoff enabled, and the merged pipeline must hand off: either failure
// fails the sample outright.
func sampleXDomain(w io.Writer, events int) (Metrics, error) {
	m := Metrics{}
	pops := events / 10
	if pops < 1000 {
		pops = 1000
	}
	unm, _ := xdomainPipelineOp(false)
	mrg, ms := xdomainPipelineOp(true)
	dUn, dMg := measurePair(pops, unm, mrg)
	if st := ms.StatsAggregate(); st.XDomainHandoffs == 0 {
		return m, fmt.Errorf("merged pipeline never handed off across domains")
	}
	m["pipeline_unmerged_ns"], m["pipeline_merged_ns"] = ns(dUn), ns(dMg)
	m["pipeline_speedup"] = ns(dUn) / ns(dMg)
	header(w, fmt.Sprintf("Cross-domain continuation handoff (%d-hop pipeline, 2 domains)", xdomainHops))
	fmt.Fprintf(w, "%-18s %12s\n", "Variant", "ns/op")
	fmt.Fprintf(w, "%-18s %12.1f\n", "enqueue-per-link", m["pipeline_unmerged_ns"])
	fmt.Fprintf(w, "%-18s %12.1f\n", "handoff-merged", m["pipeline_merged_ns"])
	fmt.Fprintf(w, "pipeline speedup: %.2fx\n", m["pipeline_speedup"])

	// Sync-raise allocations through the merged pipeline: warmed pools,
	// then the whole op (raise + drain of every handoff) must be free.
	// The error is returned after the sweep below, so the sample still
	// reports every metric.
	for i := 0; i < 100; i++ {
		mrg()
	}
	m["sync_raise_allocs"] = testing.AllocsPerRun(200, mrg)
	fmt.Fprintf(w, "sync raise with coalescing: %.2f allocs/op\n", m["sync_raise_allocs"])

	const ktuneDomains = 4
	header(w, fmt.Sprintf("Adaptive drain-batch tuning (%d domains, backlog phase shift)", ktuneDomains))
	fmt.Fprintf(w, "%-10s %16s\n", "Batch K", "ev/s")
	bestK, bestEPS := 0, 0.0
	for _, k := range []int{1, 16, 64, 128} {
		eps, _, _ := ktuneEPS(ktuneDomains, k, events, false)
		m[fmt.Sprintf("k%d.eps", k)] = eps
		if eps > bestEPS {
			bestK, bestEPS = k, eps
		}
		fmt.Fprintf(w, "%-10d %16.0f\n", k, eps)
	}
	adap, raises, shrinks := ktuneEPS(ktuneDomains, 0, events, true)
	m["best_static_eps"], m["adaptive_eps"] = bestEPS, adap
	m["adaptive_vs_best_pct"] = overPct(adap, bestEPS)
	m["batch_raises"], m["batch_shrinks"] = float64(raises), float64(shrinks)
	fmt.Fprintf(w, "%-10s %16.0f  (%+.1f%% vs best static K=%d)\n",
		"adaptive", adap, m["adaptive_vs_best_pct"], bestK)
	fmt.Fprintf(w, "tuner decisions during the adaptive drain: %d raises, %d shrinks\n", raises, shrinks)

	if m["sync_raise_allocs"] != 0 {
		return m, fmt.Errorf("sync raise with coalescing allocates %.2f/op (want 0)", m["sync_raise_allocs"])
	}
	return m, nil
}
