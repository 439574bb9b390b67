package event

import (
	"fmt"
	"testing"
)

// pipelineSH installs a two-segment super-handler head -> ~tail on s:
// the head handler asynchronously raises tail, and the tail segment is
// marked AsyncEntry so that raise is a coalescing candidate. It returns
// the two event IDs and a pointer to the tail run counter.
func pipelineSH(t *testing.T, s *System) (head, tail ID, tailRuns *int) {
	t.Helper()
	head = s.Define("head")
	tail = s.Define("tail")
	runs := new(int)
	headFn := func(ctx *Ctx) { ctx.RaiseAsync(tail, A("n", ctx.Args.Int("n"))) }
	tailFn := func(ctx *Ctx) { *runs += ctx.Args.Int("n") }
	s.Bind(head, "hh", headFn)
	s.Bind(tail, "ht", tailFn)
	sh := &SuperHandler{
		Entry: head,
		Segments: []Segment{
			{Event: head, EventName: "head", Version: s.Version(head),
				Steps: []Step{{Event: head, EventName: "head", Handler: "hh", Fn: headFn}}},
			{Event: tail, EventName: "tail", Version: s.Version(tail), AsyncEntry: true,
				Steps: []Step{{Event: tail, EventName: "tail", Handler: "ht", Fn: tailFn}}},
		},
	}
	if err := s.InstallFastPath(sh); err != nil {
		t.Fatal(err)
	}
	return head, tail, runs
}

// TestCoalesceCapturesAndRuns: with an idle queue, the interior async
// raise is captured as a continuation (no enqueue) and a later Step runs
// it through the merged segment.
func TestCoalesceCapturesAndRuns(t *testing.T) {
	s := New()
	head, _, tailRuns := pipelineSH(t, s)
	if err := s.Raise(head, A("n", 5)); err != nil {
		t.Fatal(err)
	}
	st := s.StatsAggregate()
	if st.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", st.Coalesced)
	}
	if *tailRuns != 0 {
		t.Fatal("continuation ran inside the raising activation; must be a separate top-level step")
	}
	if !s.Step() {
		t.Fatal("captured continuation not runnable via Step")
	}
	if *tailRuns != 5 {
		t.Fatalf("tail handler saw n=%d, want 5", *tailRuns)
	}
	st = s.StatsAggregate()
	if st.FastRuns != 2 {
		t.Fatalf("FastRuns = %d, want 2 (entry + continuation segment)", st.FastRuns)
	}
	if st.AsyncRaises != 1 || st.Raises != 2 {
		t.Fatalf("raise counters off: %+v", st)
	}
}

// TestCoalesceFallbackQueueNotEmpty: pending queued work blocks the
// capture — the raise is demoted to a real enqueue behind it, and the
// delivery order matches the generic FIFO.
func TestCoalesceFallbackQueueNotEmpty(t *testing.T) {
	s := New()
	var order []string
	head := s.Define("head")
	tail := s.Define("tail")
	other := s.Define("other")
	headFn := func(ctx *Ctx) { ctx.RaiseAsync(tail) }
	tailFn := func(*Ctx) { order = append(order, "tail") }
	s.Bind(head, "hh", headFn)
	s.Bind(tail, "ht", tailFn)
	s.Bind(other, "ho", func(*Ctx) { order = append(order, "other") })
	sh := &SuperHandler{
		Entry: head,
		Segments: []Segment{
			{Event: head, EventName: "head", Version: s.Version(head),
				Steps: []Step{{Event: head, EventName: "head", Handler: "hh", Fn: headFn}}},
			{Event: tail, EventName: "tail", Version: s.Version(tail), AsyncEntry: true,
				Steps: []Step{{Event: tail, EventName: "tail", Handler: "ht", Fn: tailFn}}},
		},
	}
	if err := s.InstallFastPath(sh); err != nil {
		t.Fatal(err)
	}

	s.RaiseAsync(other) // sits in the queue when head's raise happens
	if err := s.Raise(head); err != nil {
		t.Fatal(err)
	}
	st := s.StatsAggregate()
	if st.Coalesced != 0 || st.CoalesceFallbacks != 1 {
		t.Fatalf("want pure fallback, got Coalesced=%d CoalesceFallbacks=%d",
			st.Coalesced, st.CoalesceFallbacks)
	}
	s.Drain()
	if len(order) != 2 || order[0] != "other" || order[1] != "tail" {
		t.Fatalf("fallback broke FIFO order: %v", order)
	}
}

// TestCoalesceFallbackDueTimer: a timer at or past its deadline also
// blocks the capture — the continuation must not overtake it.
func TestCoalesceFallbackDueTimer(t *testing.T) {
	vc := NewVirtualClock()
	s := New(WithClock(vc))
	head, _, tailRuns := pipelineSH(t, s)
	tick := s.Define("tick")
	ticks := 0
	s.Bind(tick, "ht", func(*Ctx) { ticks++ })
	s.RaiseAfter(0, tick) // due immediately
	if err := s.Raise(head, A("n", 2)); err != nil {
		t.Fatal(err)
	}
	st := s.StatsAggregate()
	if st.Coalesced != 0 || st.CoalesceFallbacks != 1 {
		t.Fatalf("due timer did not force fallback: Coalesced=%d Fallbacks=%d",
			st.Coalesced, st.CoalesceFallbacks)
	}
	s.Drain()
	if ticks != 1 || *tailRuns != 2 {
		t.Fatalf("drain incomplete: ticks=%d tailRuns=%d", ticks, *tailRuns)
	}
}

// TestCoalesceFallbackCrossDomain: an async-entry segment pinned to a
// different, idle domain is captured onto that domain's continuation
// list — counted as a handoff, not a local coalesce, and not enqueued —
// and runs there on drain.
func TestCoalesceFallbackCrossDomain(t *testing.T) {
	s := New(WithDomains(2))
	head, _, tailRuns := pipelineSH(t, s) // IDs alternate: head on domain 0, tail on domain 1
	if err := s.Raise(head, A("n", 4)); err != nil {
		t.Fatal(err)
	}
	st := s.StatsAggregate()
	if st.Coalesced != 0 || st.CoalesceFallbacks != 0 || st.XDomainHandoffs != 1 || st.XDomainFallbacks != 0 {
		t.Fatalf("cross-domain raise not handed off: Coalesced=%d CoalesceFallbacks=%d XDomainHandoffs=%d XDomainFallbacks=%d",
			st.Coalesced, st.CoalesceFallbacks, st.XDomainHandoffs, st.XDomainFallbacks)
	}
	if s.QueueLen() != 0 {
		t.Fatalf("handoff should bypass the queue, QueueLen=%d", s.QueueLen())
	}
	s.Drain()
	if *tailRuns != 4 {
		t.Fatalf("tail handler saw n=%d, want 4", *tailRuns)
	}
	if st := s.StatsAggregate(); st.FastRuns < 2 {
		t.Fatalf("handed-off continuation should run through the segment, FastRuns=%d", st.FastRuns)
	}
}

// TestHandoffFallbackBusyTarget: a cross-domain capture against a
// target with queued work must fall back to a real enqueue behind it,
// preserving the target's FIFO order.
func TestHandoffFallbackBusyTarget(t *testing.T) {
	s := New(WithDomains(2))
	var order []string
	head := s.Define("head")
	tail := s.Define("tail")
	other := s.Define("other")
	if err := s.PinEvent(other, 1); err != nil { // alongside tail on domain 1
		t.Fatal(err)
	}
	headFn := func(ctx *Ctx) { ctx.RaiseAsync(tail) }
	tailFn := func(*Ctx) { order = append(order, "tail") }
	s.Bind(head, "hh", headFn)
	s.Bind(tail, "ht", tailFn)
	s.Bind(other, "ho", func(*Ctx) { order = append(order, "other") })
	sh := &SuperHandler{
		Entry: head,
		Segments: []Segment{
			{Event: head, EventName: "head", Version: s.Version(head),
				Steps: []Step{{Event: head, EventName: "head", Handler: "hh", Fn: headFn}}},
			{Event: tail, EventName: "tail", Version: s.Version(tail), AsyncEntry: true,
				Steps: []Step{{Event: tail, EventName: "tail", Handler: "ht", Fn: tailFn}}},
		},
	}
	if err := s.InstallFastPath(sh); err != nil {
		t.Fatal(err)
	}

	s.RaiseAsync(other) // sits in domain 1's queue when head's raise happens
	if err := s.Raise(head); err != nil {
		t.Fatal(err)
	}
	st := s.StatsAggregate()
	if st.XDomainHandoffs != 0 || st.XDomainFallbacks != 1 {
		t.Fatalf("busy target did not force enqueue fallback: XDomainHandoffs=%d XDomainFallbacks=%d",
			st.XDomainHandoffs, st.XDomainFallbacks)
	}
	s.Drain()
	if len(order) != 2 || order[0] != "other" || order[1] != "tail" {
		t.Fatalf("handoff fallback broke FIFO order: %v", order)
	}
}

// installAsyncSH installs a super-handler entered at steps[0] whose
// remaining steps are covered AsyncEntry segments, one per event.
func installAsyncSH(t *testing.T, s *System, steps ...Step) {
	t.Helper()
	sh := &SuperHandler{Entry: steps[0].Event}
	for i, st := range steps {
		sh.Segments = append(sh.Segments, Segment{Event: st.Event, EventName: st.EventName,
			Version: s.Version(st.Event), AsyncEntry: i > 0, Steps: []Step{st}})
	}
	if err := s.InstallFastPath(sh); err != nil {
		t.Fatal(err)
	}
}

// TestCoalesceRespectsQueueBound: a bounded run queue applies its
// overflow policy to a covered raise exactly as the generic route does.
// The head handler raises covered x, then uncovered y, into a queue of
// capacity 1 under RejectNew: generically x fills the queue and y is
// rejected, so a capture of x — which would leave room for y — must not
// happen.
func TestCoalesceRespectsQueueBound(t *testing.T) {
	run := func(optimized bool) ([]string, []error, StatsSnapshot) {
		var reported []error
		s := New(WithQueueBound(1, RejectNew), WithErrorReporter(func(err error) { reported = append(reported, err) }))
		head := s.Define("head")
		x := s.Define("x")
		y := s.Define("y")
		var ran []string
		headFn := func(ctx *Ctx) {
			ctx.RaiseAsync(x)
			ctx.RaiseAsync(y)
		}
		xFn := func(*Ctx) { ran = append(ran, "x") }
		s.Bind(head, "hh", headFn)
		s.Bind(x, "hx", xFn)
		s.Bind(y, "hy", func(*Ctx) { ran = append(ran, "y") })
		if optimized {
			installAsyncSH(t, s,
				Step{Event: head, EventName: "head", Handler: "hh", Fn: headFn},
				Step{Event: x, EventName: "x", Handler: "hx", Fn: xFn})
		}
		if err := s.Raise(head); err != nil {
			t.Fatal(err)
		}
		s.Drain()
		return ran, reported, s.StatsAggregate()
	}
	for _, optimized := range []bool{false, true} {
		ran, reported, st := run(optimized)
		if len(ran) != 1 || ran[0] != "x" {
			t.Errorf("optimized=%v ran %v, want [x]", optimized, ran)
		}
		if len(reported) != 1 || reported[0] != ErrQueueFull {
			t.Errorf("optimized=%v reported %v, want [ErrQueueFull]", optimized, reported)
		}
		if st.Coalesced != 0 {
			t.Errorf("optimized=%v captured %d continuations past a queue bound", optimized, st.Coalesced)
		}
	}
}

// TestCaptureAppendsBehindPendingContinuations: a capture into a domain
// that already holds pending continuations appends behind them. One
// activation on domain 0 raises x (domain 1), m (domain 0) and y
// (domain 1): all three are captured — two handoffs into the same idle
// target, one same-domain coalesce — and they run in the generic FIFO
// order.
func TestCaptureAppendsBehindPendingContinuations(t *testing.T) {
	run := func(optimized bool) ([]string, StatsSnapshot) {
		s := New(WithDomains(2))
		head, x, m, y := s.Define("head"), s.Define("x"), s.Define("m"), s.Define("y")
		for ev, dom := range map[ID]int{head: 0, x: 1, m: 0, y: 1} {
			if err := s.PinEvent(ev, dom); err != nil {
				t.Fatal(err)
			}
		}
		var ran []string
		note := func(name string) HandlerFunc {
			return func(ctx *Ctx) { ran = append(ran, fmt.Sprint(name, ctx.Args.Int("n"))) }
		}
		headFn := func(ctx *Ctx) {
			ctx.RaiseAsync(x, A("n", 1))
			ctx.RaiseAsync(m, A("n", 2))
			ctx.RaiseAsync(y, A("n", 3))
		}
		xFn, mFn, yFn := note("x"), note("m"), note("y")
		s.Bind(head, "hh", headFn)
		s.Bind(x, "hx", xFn)
		s.Bind(m, "hm", mFn)
		s.Bind(y, "hy", yFn)
		if optimized {
			installAsyncSH(t, s,
				Step{Event: head, EventName: "head", Handler: "hh", Fn: headFn},
				Step{Event: x, EventName: "x", Handler: "hx", Fn: xFn},
				Step{Event: m, EventName: "m", Handler: "hm", Fn: mFn},
				Step{Event: y, EventName: "y", Handler: "hy", Fn: yFn})
		}
		if err := s.Raise(head); err != nil {
			t.Fatal(err)
		}
		s.Drain()
		return ran, s.StatsAggregate()
	}
	generic, _ := run(false)
	optimized, st := run(true)
	if fmt.Sprint(generic) != "[m2 x1 y3]" {
		t.Fatalf("generic order = %v, want [m2 x1 y3]", generic)
	}
	if fmt.Sprint(optimized) != fmt.Sprint(generic) {
		t.Fatalf("optimized order %v != generic %v", optimized, generic)
	}
	if st.XDomainHandoffs != 2 || st.XDomainFallbacks != 0 || st.Coalesced != 1 || st.CoalesceFallbacks != 0 {
		t.Fatalf("want 2 handoffs + 1 coalesce, no fallbacks: XDomainHandoffs=%d XDomainFallbacks=%d Coalesced=%d CoalesceFallbacks=%d",
			st.XDomainHandoffs, st.XDomainFallbacks, st.Coalesced, st.CoalesceFallbacks)
	}
}

// TestCoalesceRebindBetweenCaptureAndRun: a rebind racing the pending
// continuation trips the segment guard at run time; the continuation
// falls back to generic dispatch against the fresh snapshot, so the
// newly bound handler runs.
func TestCoalesceRebindBetweenCaptureAndRun(t *testing.T) {
	s := New()
	head, tail, tailRuns := pipelineSH(t, s)
	if err := s.Raise(head, A("n", 1)); err != nil {
		t.Fatal(err)
	}
	if got := s.StatsAggregate().Coalesced; got != 1 {
		t.Fatalf("Coalesced = %d, want 1", got)
	}
	fresh := 0
	s.Bind(tail, "late", func(*Ctx) { fresh++ }) // bumps tail's version
	if !s.Step() {
		t.Fatal("continuation not runnable")
	}
	st := s.StatsAggregate()
	if st.SegFallbacks == 0 {
		t.Fatal("stale continuation did not take the segment fallback")
	}
	if *tailRuns != 1 || fresh != 1 {
		t.Fatalf("generic fallback ran wrong bindings: tailRuns=%d fresh=%d", *tailRuns, fresh)
	}
}

// TestCoalesceSupervisedRetries: under a supervision policy, a captured
// continuation takes the full top-level route, so a panicking tail
// handler still reaches the retry machinery.
func TestCoalesceSupervisedRetries(t *testing.T) {
	vc := NewVirtualClock()
	s := New(WithClock(vc),
		WithFaultConfig(FaultConfig{Policy: Isolate}),
		WithRetryConfig(RetryConfig{MaxAttempts: 2, Backoff: 1e6}))
	head := s.Define("head")
	tail := s.Define("tail")
	attempts := 0
	headFn := func(ctx *Ctx) { ctx.RaiseAsync(tail) }
	tailFn := func(*Ctx) {
		attempts++
		if attempts == 1 {
			panic("first attempt fails")
		}
	}
	s.Bind(head, "hh", headFn)
	s.Bind(tail, "ht", tailFn)
	sh := &SuperHandler{
		Entry: head,
		Segments: []Segment{
			{Event: head, EventName: "head", Version: s.Version(head),
				Steps: []Step{{Event: head, EventName: "head", Handler: "hh", Fn: headFn}}},
			{Event: tail, EventName: "tail", Version: s.Version(tail), AsyncEntry: true,
				Steps: []Step{{Event: tail, EventName: "tail", Handler: "ht", Fn: tailFn}}},
		},
	}
	if err := s.InstallFastPath(sh); err != nil {
		t.Fatal(err)
	}
	if err := s.Raise(head); err != nil {
		t.Fatal(err)
	}
	if got := s.StatsAggregate().Coalesced; got != 1 {
		t.Fatalf("Coalesced = %d, want 1", got)
	}
	s.Drain() // runs the continuation; the failed attempt arms a retry timer
	s.Drain() // advances the virtual clock to the retry deadline
	if attempts != 2 {
		t.Fatalf("tail ran %d times, want 2 (original + retry)", attempts)
	}
	if got := s.StatsAggregate().Retries; got != 1 {
		t.Fatalf("Retries = %d, want 1", got)
	}
}

// TestBatchedDrainRemainderBlocksCoalesce: activations a batched drain
// has popped but not yet run are no longer visible in the queue, yet a
// coalesced continuation must not overtake them. With three heads popped
// in one batch, each head's interior raise must land behind the batch
// remainder, reproducing the unbatched FIFO h1 h2 h3 t1 t2 t3.
func TestBatchedDrainRemainderBlocksCoalesce(t *testing.T) {
	s := New()
	var order []string
	head := s.Define("head")
	tail := s.Define("tail")
	headFn := func(ctx *Ctx) {
		order = append(order, "h")
		ctx.RaiseAsync(tail)
	}
	tailFn := func(*Ctx) { order = append(order, "t") }
	s.Bind(head, "hh", headFn)
	s.Bind(tail, "ht", tailFn)
	sh := &SuperHandler{
		Entry: head,
		Segments: []Segment{
			{Event: head, EventName: "head", Version: s.Version(head),
				Steps: []Step{{Event: head, EventName: "head", Handler: "hh", Fn: headFn}}},
			{Event: tail, EventName: "tail", Version: s.Version(tail), AsyncEntry: true,
				Steps: []Step{{Event: tail, EventName: "tail", Handler: "ht", Fn: tailFn}}},
		},
	}
	if err := s.InstallFastPath(sh); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.RaiseAsync(head)
	}
	s.DrainBatched(8) // all three heads pop in one batch
	want := []string{"h", "h", "h", "t", "t", "t"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (continuation overtook batch remainder)", order, want)
		}
	}
	// h1 and h2 must have demoted their raises (batch remainder ahead),
	// h3's raise sees t1/t2 queued so it demotes too: three fallbacks.
	st := s.StatsAggregate()
	if st.CoalesceFallbacks != 3 || st.Coalesced != 0 {
		t.Fatalf("want 3 fallbacks 0 coalesces, got Fallbacks=%d Coalesced=%d",
			st.CoalesceFallbacks, st.Coalesced)
	}

	// A lone head popped as the whole batch has no remainder: its raise
	// coalesces and the continuation runs inside the same drain.
	order = order[:0]
	s.RaiseAsync(head)
	s.DrainBatched(8)
	if len(order) != 2 || order[0] != "h" || order[1] != "t" {
		t.Fatalf("singleton batch order = %v, want [h t]", order)
	}
	if got := s.StatsAggregate().Coalesced; got != 1 {
		t.Fatalf("singleton batch Coalesced = %d, want 1", got)
	}
}

// TestDrainBatchedEquivalent: the batched drain runs exactly the work a
// step-by-step drain would, including continuations and timers.
func TestDrainBatchedEquivalent(t *testing.T) {
	run := func(batched bool) (int, int64) {
		vc := NewVirtualClock()
		s := New(WithClock(vc))
		head, _, tailRuns := pipelineSH(t, s)
		tick := s.Define("tick")
		s.Bind(tick, "ht", func(*Ctx) { *tailRuns += 100 })
		for i := 0; i < 5; i++ {
			s.RaiseAsync(head, A("n", 1))
		}
		s.RaiseAfter(3e6, tick)
		var n int
		if batched {
			n = s.DrainBatched(4)
		} else {
			n = s.Drain()
		}
		return n, int64(*tailRuns)
	}
	nStep, sumStep := run(false)
	nBatch, sumBatch := run(true)
	if nStep != nBatch || sumStep != sumBatch {
		t.Fatalf("batched drain diverges: ran %d (sum %d) vs step %d (sum %d)",
			nBatch, sumBatch, nStep, sumStep)
	}
	if sumStep != 105 {
		t.Fatalf("workload sum = %d, want 105", sumStep)
	}
}
