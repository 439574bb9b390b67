package event

import "eventopt/internal/span"

// Raise synchronously activates ev from outside any handler: all bound
// handlers run to completion before Raise returns. It reports an error
// only for unknown or deleted events; an event with no handlers is
// silently ignored, per the general model.
//
// Raise must not be called from inside a handler (use Ctx.Raise there);
// handler execution is atomic per domain and Raise takes the owning
// domain's atomicity lock.
func (s *System) Raise(ev ID, args ...Arg) error {
	d := s.domainOf(ev)
	d.runMu.Lock()
	defer d.runMu.Unlock()
	d.telAttempt = 0
	return s.dispatch(d, ev, Sync, args, 0)
}

// RaiseByName is Raise keyed by event name.
func (s *System) RaiseByName(name string, args ...Arg) error {
	ev := s.Lookup(name)
	if ev == NoID {
		return ErrUnknownEvent
	}
	return s.Raise(ev, args...)
}

// RaiseAsync asynchronously activates ev: the activation is queued on
// the event's owning domain and its handlers run from a later
// Drain/Step/Run call. Safe to call from handlers and from other
// goroutines; cross-domain raises hand off through the target domain's
// queue.
func (s *System) RaiseAsync(ev ID, args ...Arg) {
	s.enqueue(ev, Async, args)
}

// runTop executes one top-level activation record popped from the
// domain's scheduler and releases it afterwards. a.attempt counts prior
// executions of the same activation under the retry policy; an
// activation that recovered at least one handler panic is handed to the
// retry machinery once the atomicity lock is released. The retry path
// copies the record's arguments into its timer entry, so the release
// never exposes aliased storage.
func (d *Domain) runTop(a *activation) {
	var faults int
	var ftrace, fspan uint64
	func() {
		// The unlock must be deferred: under the Propagate policy (or for
		// a non-handler panic, e.g. a panicking tracer) a panic unwinds
		// through here, and a caller that recovers it must find the
		// atomicity lock released.
		d.runMu.Lock()
		defer d.runMu.Unlock()
		d.fault.activationFaults = 0
		d.telAttempt = a.attempt
		if d.sys.spans != nil {
			d.pendTrace, d.pendSpan, d.pendKind = a.trace, a.pspan, a.skind
		}
		_ = d.sys.dispatch(d, a.ev, a.mode, a.args(), 0)
		faults = d.fault.activationFaults
		d.fault.activationFaults = 0
		if faults > 0 {
			ftrace, fspan = d.lastSpanTrace, d.lastSpanID
		}
	}()
	if faults > 0 {
		d.maybeRetry(a.ev, a.mode, a.args(), a.attempt, ftrace, fspan)
	}
	d.sys.putAct(a)
}

// runTopResolved is runTop with the registry resolution supplied by the
// caller — the batched drain loop hoists it across consecutive
// activations of the same event (domain.go runBatch). Telemetry-enabled
// systems never take this route (the timed wrapper re-resolves).
func (d *Domain) runTopResolved(a *activation, r *eventRec, snap *bindingSnapshot, fast *SuperHandler) {
	var faults int
	func() {
		d.runMu.Lock()
		defer d.runMu.Unlock()
		d.fault.activationFaults = 0
		d.telAttempt = a.attempt
		_ = d.sys.dispatchResolved(d, a.ev, a.mode, a.args(), 0, r, snap, fast)
		faults = d.fault.activationFaults
		d.fault.activationFaults = 0
	}()
	if faults > 0 {
		// This route runs only with spans (and telemetry) off, so there is
		// no span context to thread into the retry.
		d.maybeRetry(a.ev, a.mode, a.args(), a.attempt, 0, 0)
	}
	d.sys.putAct(a)
}

// raiseNested executes a synchronous activation from inside a handler.
// The atomicity lock of the caller's domain is already held by the
// enclosing top-level dispatch; the nested activation runs inline in
// that domain regardless of the event's own affinity.
func (s *System) raiseNested(parent *Ctx, ev ID, args []Arg) {
	if err := s.dispatch(parent.dom, ev, Sync, args, parent.depth+1); err != nil {
		s.report(err)
	}
}

func (s *System) report(err error) {
	if s.haltErr != nil {
		s.haltErr(err)
	}
}

// dispatch routes one activation through the core dispatcher, detouring
// through the span wrapper and/or the telemetry wrapper when those
// observability layers are enabled (spans bracket the whole activation,
// telemetry accounting included).
func (s *System) dispatch(d *Domain, ev ID, mode Mode, args []Arg, depth int) error {
	if s.spans != nil {
		return s.dispatchSpanned(d, ev, mode, args, depth)
	}
	return s.dispatchObserved(d, ev, mode, args, depth)
}

// dispatchCore routes one activation of ev executing on domain d: through
// the installed fast path if one is present and its guard passes,
// otherwise through the generic path. All registry reads — record,
// binding snapshot, fast path, tracer — are single atomic loads; no
// lock is taken (the paper's §2.2 registry-lock overhead survives only
// as the modeled per-handler state-maintenance lock).
func (s *System) dispatchCore(d *Domain, ev ID, mode Mode, args []Arg, depth int) error {
	r := s.recLF(ev)
	if r == nil {
		return ErrUnknownEvent
	}
	return s.dispatchResolved(d, ev, mode, args, depth, r, r.snap.Load(), r.fast.Load())
}

// dispatchResolved is dispatchCore past registry resolution. The batched
// drain loop calls it directly with a resolution hoisted across the
// batch (domain.go runBatch); the guards below still run per activation.
func (s *System) dispatchResolved(d *Domain, ev ID, mode Mode, args []Arg, depth int, r *eventRec, snap *bindingSnapshot, fast *SuperHandler) error {
	if snap.deleted {
		return ErrDeletedEvent
	}
	tracer := s.tracer()

	d.stats.Raises.Add(1)
	switch mode {
	case Sync:
		d.stats.SyncRaises.Add(1)
	case Async:
		d.stats.AsyncRaises.Add(1)
	case Delayed:
		d.stats.TimedRaises.Add(1)
	}
	if tracer != nil {
		tracer.Event(ev, snap.name, mode, depth, d.idx)
	}

	if fast != nil {
		if s.policy() == Propagate {
			if fast.run(d, mode, args, depth, tracer) {
				d.stats.FastRuns.Add(1)
				d.spanNoteTier(spanTierOf(fast))
				if h := s.sched; h != nil {
					h.Sched(SchedFastEntry, d.idx, ev, fast.Segments[0].Version)
				}
				return nil
			}
			// Guard failed: drop back into the original unoptimized code
			// (paper section 3.3).
			d.stats.Fallbacks.Add(1)
			d.spanNoteFlags(span.FlagGuardFallback)
		} else {
			ran, faulted := d.runFastSupervised(fast, ev, snap.name, mode, args, depth, tracer)
			if ran {
				d.stats.FastRuns.Add(1)
				d.spanNoteTier(spanTierOf(fast))
				if h := s.sched; h != nil {
					h.Sched(SchedFastEntry, d.idx, ev, fast.Segments[0].Version)
				}
				return nil
			}
			if faulted {
				// The optimized code itself faulted: extend the paper's
				// fallback from "guard failed" to "fast path panicked" —
				// atomically uninstall the entry and replay the whole
				// activation through the original unoptimized code.
				s.deoptimize(d, fast)
				d.spanNoteFlags(span.FlagDeoptReplay)
				// Replay against the freshest snapshot: the faulting chain
				// may have rebound events before panicking.
				snap = r.snap.Load()
			} else {
				d.stats.Fallbacks.Add(1)
				d.spanNoteFlags(span.FlagGuardFallback)
			}
		}
	}
	d.generic(snap, ev, mode, args, depth, tracer)
	return nil
}

// generic is the unoptimized dispatch path. It deliberately performs the
// five overheads the paper attributes to event frameworks: argument
// marshaling, registry snapshot resolution, an indirect call per
// handler, per-handler parameter resolution, and a state-maintenance
// lock acquisition around each handler body.
func (d *Domain) generic(snap *bindingSnapshot, ev ID, mode Mode, args []Arg, depth int, tracer Tracer) {
	s := d.sys
	d.stats.Generic.Add(1)

	// (1) Marshal the caller's arguments into the generic record embedded
	// in this depth's scratch context. The copy is the marshal the paper
	// prices; the storage is recycled per domain and depth, so the
	// steady-state raise performs it without allocating.
	slot := d.slot(depth)
	ctx := &slot.ctx
	*ctx = Ctx{System: s, Event: ev, Name: snap.name, Mode: mode, depth: depth, dom: d}
	ctx.setArgs(args)
	a := ctx.Args
	d.stats.Marshals.Add(1)

	// (2) Registry lookup: the immutable published snapshot replaces the
	// historical under-lock copy, so rebinding from inside a handler
	// affects only later activations.
	hs := snap.handlers
	if len(hs) == 0 {
		return // an event with no handlers is ignored
	}
	name := snap.name

	pol := s.policy()
	for i := range hs {
		h := &hs[i]

		// Skip bindings the circuit breaker has quarantined. The atomic
		// count keeps the healthy path free of map lookups.
		if pol == Quarantine && d.fault.quarCount.Load() > 0 && d.skipQuarantined(ev, h.Name) {
			continue
		}

		// (3) Per-handler parameter resolution (unmarshaling): resolve
		// each declared parameter by name before the call.
		for _, p := range h.Params {
			a.Lookup(p)
		}
		if n := len(h.Params); n > 0 {
			d.stats.ArgResolves.Add(int64(n))
		}

		// (4) State maintenance: pay for one lock round-trip per handler
		// body. The lock is released immediately because the domain's
		// runMu atomicity lock already serializes handlers; what we model
		// here is the locking traffic the paper counts as overhead.
		d.stateLockTraffic()

		// (5) Indirect call through the function pointer in the binding.
		ctx.Handler = h.Name
		ctx.BindArgs = h.BindArgs
		if tracer != nil {
			tracer.HandlerEnter(ev, name, h.Name, depth, d.idx)
		}
		d.stats.Indirect.Add(1)
		d.stats.HandlersRun.Add(1)
		if pol == Propagate {
			h.Fn(ctx)
		} else if pv, panicked := runProtected(h.Fn, ctx); panicked {
			d.recordFault(FaultInfo{
				Event: ev, EventName: name, Handler: h.Name,
				Mode: mode, Depth: depth, Domain: d.idx, PanicVal: pv,
			}, tracer)
		} else if pol == Quarantine && d.fault.tracked.Load() > 0 {
			d.noteSuccess(ev, h.Name)
		}
		if tracer != nil {
			tracer.HandlerExit(ev, name, h.Name, depth, d.idx)
		}
		if ctx.halted {
			break
		}
	}
}

// stateLockTraffic pays one state-maintenance lock round-trip on the
// executing domain's lock.
func (d *Domain) stateLockTraffic() {
	d.stats.Locks.Add(1)
	d.stateMu.Lock()
	//lint:ignore SA2001 intentional: models per-handler lock traffic only
	d.stateMu.Unlock()
}
