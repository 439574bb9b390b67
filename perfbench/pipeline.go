package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"eventopt/internal/adaptive"
	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/telemetry"
)

const (
	pipeStages        = 6
	pipeMaxBurst      = 256
	pipeBurstPool     = 4096 // seeded burst sizes, cycled: 16 each of 1 to 256
	pipeProfileEvents = 256  // head events in the profiling run, each on an idle chain
	pipeWarmupBursts  = 256
	pipeTickBursts    = 8  // bursts between adaptive ticks
	pipeScrapeBursts  = 64 // bursts between telemetry scrapes
	pipeTimeout       = 5 * time.Second
)

// pipePins pins each stage to a domain so the chain has both
// same-domain hops (0→1, 2→3) and cross-domain hops (1→2, 3→4, 4→5).
var pipePins = [pipeStages]int{0, 0, 1, 1, 0, 1}

// pipeline drives a two-domain asynchronous chain of six stages, three
// handlers each, served by System.Run. Bursts of head events are raised
// from the benchmark goroutine; each waits for the sink to catch up.
type pipeline struct {
	rng    splitmix
	bursts []int
	bi     int

	s    *event.System
	head event.ID
	ctl  *adaptive.Controller
	stop chan struct{}
	done chan struct{}

	base   time.Time
	raised [pipeMaxBurst]int64 // raise time of head event n, ns since base
	arr    [pipeMaxBurst]int32 // sink arrival order: head index n
	lat    [pipeMaxBurst]int64 // sink arrival latency, by arrival order
	got    atomic.Int32
	want   atomic.Int32
	sig    chan struct{}
	timer  *time.Timer
	broken bool

	stageSum [pipeStages]struct {
		atomic.Int64
		_ [56]byte // one cache line per stage
	}

	backlogMax, kMax, kRaisedTicks int
	plan                           planStats
}

func newPipeline(seed uint64) workload {
	w := &pipeline{rng: splitmix{s: seed}, sig: make(chan struct{}, 1)}
	w.bursts = make([]int, pipeBurstPool)
	for i := range w.bursts {
		w.bursts[i] = 1 + i%pipeMaxBurst
	}
	w.rng.shuffle(pipeBurstPool, func(i, j int) { w.bursts[i], w.bursts[j] = w.bursts[j], w.bursts[i] })
	return w
}

// build defines the chain on s. With a live sink the last handler
// records arrivals for the checker; otherwise it only observes.
func (w *pipeline) build(s *event.System, live bool) error {
	evs := make([]event.ID, pipeStages)
	for i := range evs {
		evs[i] = s.Define(fmt.Sprintf("stage%d", i))
		if s.NumDomains() > 1 {
			if err := s.PinEvent(evs[i], pipePins[i]); err != nil {
				return err
			}
		}
	}
	for i, ev := range evs {
		sum := &w.stageSum[i].Int64
		obs := func(ctx *event.Ctx) { sum.Add(int64(ctx.Args.Int("n"))) }
		s.Bind(ev, "obs1", obs, event.WithOrder(0), event.WithParams("n"))
		s.Bind(ev, "obs2", obs, event.WithOrder(1), event.WithParams("n"))
		switch {
		case i < pipeStages-1:
			next := evs[i+1]
			s.Bind(ev, "fwd", func(ctx *event.Ctx) {
				ctx.RaiseAsync(next, event.A("n", ctx.Args.Int("n")))
			}, event.WithOrder(2), event.WithParams("n"))
		case live:
			s.Bind(ev, "sink", w.sink, event.WithOrder(2), event.WithParams("n"))
		default:
			s.Bind(ev, "sink", obs, event.WithOrder(2), event.WithParams("n"))
		}
	}
	w.head = evs[0]
	return nil
}

// sink runs on the last stage's domain: it records the arrival and wakes
// the benchmark when the burst is complete.
func (w *pipeline) sink(ctx *event.Ctx) {
	n := ctx.Args.Int("n")
	now := int64(time.Since(w.base))
	k := w.got.Add(1) - 1
	if k < pipeMaxBurst {
		w.arr[k] = int32(n)
		if n >= 0 && n < pipeMaxBurst {
			w.lat[k] = now - w.raised[n]
		}
	}
	if k+1 == w.want.Load() {
		select {
		case w.sig <- struct{}{}:
		default:
		}
	}
}

func (w *pipeline) setup(tr *tracer) error {
	w.base = time.Now()
	w.timer = time.NewTimer(time.Hour)
	w.timer.Stop()

	// Profile an unsharded twin: one domain sees every edge of the chain,
	// where the sharded system's own graph would miss the cross-domain ones.
	// Each head event runs alone, so consecutive trace events follow the
	// chain and the event graph holds its async edges. Both systems define
	// the stages in the same order, so their event IDs match.
	twin := event.New()
	if err := w.build(twin, false); err != nil {
		return err
	}
	w.s = event.New(event.WithDomains(2), event.WithTelemetry(telemetry.Config{}))
	if err := w.build(w.s, true); err != nil {
		return err
	}
	drive := func() {
		for j := 0; j < pipeProfileEvents; j++ {
			twin.RaiseAsync(w.head, event.A("n", j%pipeMaxBurst))
			twin.Drain()
		}
	}
	err := w.plan.optimizeOffline(tr, twin, drive, w.s, nil, core.Options{
		Threshold: 1, Subsume: true, GraphChains: true, AsyncChains: true, MaxChainLen: pipeStages,
	})
	if err != nil {
		return err
	}

	if w.ctl, err = adaptive.New(w.s, nil, adaptive.Policy{CooldownTicks: 1, BatchCooldownTicks: 1}); err != nil {
		return err
	}
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	go func() {
		w.s.Run(w.stop)
		close(w.done)
	}()

	tr.begin(spanWarmup)
	defer tr.end()
	m := newMeter(0, 1)
	for b := 0; b < pipeWarmupBursts && !w.broken; b++ {
		w.batch(m, newTracer(false))
	}
	if m.failed > 0 {
		return fmt.Errorf("%d of %d warm-up events failed their check", m.failed, m.ops)
	}
	return nil
}

// batch raises one seeded burst of head events, waits until the sink has
// seen all of them, and checks that each arrived once and in order.
func (w *pipeline) batch(m *meter, tr *tracer) {
	if w.broken {
		m.fail(1)
		time.Sleep(time.Millisecond)
		return
	}
	n := w.bursts[w.bi%pipeBurstPool]
	w.bi++
	w.got.Store(0)
	w.want.Store(int32(n))

	tr.begin(spanOp)
	for j := 0; j < n; j++ {
		w.raised[j] = int64(time.Since(w.base))
		tr.begin(spanRaiseAsync)
		w.s.RaiseAsync(w.head, event.A("n", j))
		tr.end()
	}
	w.backlogMax = max(w.backlogMax, w.s.QueueLen())
	tr.begin(spanWaitSink)
	w.timer.Reset(pipeTimeout)
	select {
	case <-w.sig:
		if !w.timer.Stop() {
			<-w.timer.C
		}
	case <-w.timer.C:
		w.broken = true
	}
	tr.end()
	tr.begin(spanCheck)
	w.check(m, n)
	tr.end()
	tr.end()

	if w.bi%pipeTickBursts == 0 {
		tr.begin(spanAdaptiveTick)
		w.ctl.Tick()
		tr.end()
		for d := 0; d < w.s.NumDomains(); d++ {
			k := w.s.BatchK(d)
			w.kMax = max(w.kMax, k)
			if k > 1 {
				w.kRaisedTicks++
			}
		}
	}
	if w.bi%pipeScrapeBursts == 0 {
		tr.begin(spanTelemetrySnap)
		w.s.Telemetry().Events()
		tr.end()
	}
}

// check records the burst's n events: an event fails when it arrived out
// of order, or when the burst lost or duplicated an event.
func (w *pipeline) check(m *meter, n int) {
	got := int(w.got.Load())
	for k := 0; k < min(got, n); k++ {
		m.record(w.lat[k], w.arr[k] == int32(k) && got == n)
	}
	if got < n {
		fmt.Printf("pipeline: burst of %d delivered %d events before the timeout\n", n, got)
		m.fail(int64(n - got))
	}
}

func (w *pipeline) counts() counts {
	c := newCounts()
	c.addStats(w.s.StatsAggregate())
	c.addTelemetry(w.s.Telemetry())
	s := w.ctl.Snapshot()
	c.v["replans"] = float64(s.Replans)
	c.v["promotions"] = float64(s.Promotions)
	c.v["k_raised_ticks"] = float64(w.kRaisedTicks)
	return c
}

func (w *pipeline) settle(*meter) {}

func (w *pipeline) guard(d counts) error {
	switch {
	case d.droppedWork() > 0:
		return fmt.Errorf("%v activations panicked, dead-lettered or dropped", d.droppedWork())
	case d.v["coalesced"] == 0:
		return errors.New("pipeline never coalesced a same-domain raise")
	case d.v["xdomain_handoffs"] == 0:
		return errors.New("pipeline never handed a raise off across domains")
	case d.v["k_raised_ticks"] == 0:
		return errors.New("the adaptive tuner never raised a drain batch above 1")
	}
	return nil
}

func (w *pipeline) layers(p *phase, out map[string]float64) {
	w.plan.report(out)
	out["event.backlog_max"] = float64(w.backlogMax)
	out["adaptive.batch_k_max"] = float64(w.kMax)
}

func (w *pipeline) close() {
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	if w.ctl != nil {
		w.ctl.Close()
	}
}
