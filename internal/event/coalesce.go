package event

import (
	"eventopt/internal/span"
	"eventopt/internal/telemetry"
)

// Speculative coalescing of asynchronous chain raises (the paper's §5
// future work): when a merged handler asynchronously raises an event
// that is a covered async-entry segment of its own super-handler, and
// the domain t owning that event has nothing ahead of it in line, the
// raise is captured as a pending *continuation* on t instead of
// travelling the enqueue/wake/pop route. The continuation still runs as
// its own top-level activation on t — handler atomicity, domain
// affinity, tracing depth and the serialized-activation discipline are
// unchanged — but it executes directly through the merged segment,
// skipping the generic marshal/lookup/indirect-call sequence and the
// queue handoff. t may be the raising domain or another one (an async
// pipeline whose stages are pinned to different shards); both land in
// t's cont list through the same guard.
//
// The capture guard (all under t's queue lock, so the decision is
// atomic against producers and t's consumer):
//
//   - the raised event has a covered, non-entry segment marked
//     AsyncEntry by the planner;
//   - the segment guard (binding version) currently matches;
//   - t's run queue is unbounded and empty, no batched-drain remainder
//     is in flight on t, and no timer of t is due — otherwise the
//     continuation would overtake work that the generic schedule runs
//     first, or skip the overflow policy a bounded queue applies.
//
// Entries already pending in t.cont are not an obstacle: they stand for
// t's queue head, and the generic route would enqueue this raise behind
// them, which is exactly where a FIFO append puts it.
//
// Any guard failure falls back to a real enqueue on t, so the observable
// order equals the generic one. The segment guard is re-checked when the
// continuation runs; a rebind that raced the pending continuation drops
// it into the original unoptimized code for just that event (the same
// per-segment fallback as Fig. 14).

// dispatchNestedAsync attempts to coalesce an asynchronous raise of ev
// from inside a merged handler. It reports whether it consumed the
// raise (captured a continuation or fell back to enqueueing itself);
// false means the caller must take the normal enqueue path. The
// counters and span kind tell the two capture directions apart:
// Coalesced/CoalesceFallbacks and KindCoalesced when the owning domain
// is the raising one, XDomainHandoffs/XDomainFallbacks and KindHandoff
// otherwise.
func (ce *chainExec) dispatchNestedAsync(c *Ctx, ev ID, args []Arg) bool {
	sh := ce.sh
	idx, ok := sh.segOf[ev]
	if !ok || idx == 0 || !sh.Segments[idx].AsyncEntry {
		return false
	}
	d := ce.d
	s := d.sys
	t := s.domains[sh.recs[idx].dom.Load()]
	captured, fellBack, kind := &d.stats.Coalesced, &d.stats.CoalesceFallbacks, span.KindCoalesced
	if t != d {
		captured, fellBack, kind = &d.stats.XDomainHandoffs, &d.stats.XDomainFallbacks, span.KindHandoff
	}
	if !sh.segMatches(idx) {
		// Already-stale segment guard: not worth capturing.
		fellBack.Add(1)
		return false
	}
	a := s.getAct()
	a.ev, a.mode = ev, Async
	a.setArgs(args)
	if s.spans != nil && d.curTrace != 0 {
		// Stamp the raising span's context: the continuation (or the
		// fallback enqueue) records a child span either way.
		a.trace, a.pspan, a.skind = d.curTrace, d.curSpan, uint8(kind)
	}
	t.qmu.Lock()
	if t.qcap > 0 || t.q.len() > 0 || t.batchRem.Load() > 0 || t.dueTimerLocked(s.clock.Now()) {
		// Pending work would be overtaken, or a bounded queue must apply
		// its overflow policy: fall back to a real enqueue. batchRem
		// covers activations a batched drain has popped but not yet run —
		// they are no longer in the queue, yet still ahead of this raise
		// in program order, so the raise must land behind them.
		t.qmu.Unlock()
		fellBack.Add(1)
		a.skind = uint8(span.KindAsync) // it travels the queue after all
		if s.tel != nil {
			a.enqAt, a.enqSet = s.clock.Now(), true
		}
		t.enqueueAct(a)
		return true
	}
	a.csh, a.cidx = sh, idx
	t.cont = append(t.cont, a)
	t.qmu.Unlock()
	captured.Add(1)
	if h := s.sched; h != nil {
		h.Sched(SchedCoalesce, t.idx, ev, sh.Segments[idx].Version)
	}
	// t's loop may be parked (a remote capture, or a sync Raise from
	// outside the run loop); wake it like an enqueue would.
	t.nudge()
	return true
}

// runCont executes one pending coalesced continuation popped from the
// scheduler. Under the Propagate policy it dispatches directly through
// the captured segment; under supervision it takes the full top-level
// route so retry, quarantine and deopt-replay behave exactly as for an
// enqueued activation.
func (d *Domain) runCont(a *activation) {
	s := d.sys
	if s.policy() != Propagate {
		d.runTop(a)
		return
	}
	sh, idx := a.csh, a.cidx
	func() {
		// Deferred unlock for the same reason as runTop: a Propagate-policy
		// panic unwinds through here.
		d.runMu.Lock()
		defer d.runMu.Unlock()
		d.telAttempt = 0
		// The capture stamped KindCoalesced or KindHandoff on a traced
		// record; an untraced one records no span.
		s.dispatchSeg(d, sh, idx, a.ev, a.args(), a.trace, a.pspan, span.Kind(a.skind))
	}()
	s.putAct(a)
}

// dispatchSeg is the direct dispatch route of a coalesced continuation:
// a top-level asynchronous activation of a covered event, executed
// through its super-handler segment instead of the generic path. Caller
// holds runMu and the policy is Propagate. The segment guard is
// re-checked here; a mismatch falls back to the original code.
// trace/pspan carry the raising span's context (zero when untraced) and
// kind attributes the hop: KindCoalesced for a same-domain capture,
// KindHandoff for a cross-domain one.
func (s *System) dispatchSeg(d *Domain, sh *SuperHandler, idx int, ev ID, args []Arg, trace, pspan uint64, kind span.Kind) {
	tel := s.tel
	var start Duration
	sampled := false
	if tel != nil {
		if sampled = tel.RecordDispatch(d.idx, int32(ev), false); sampled {
			start = s.clock.Now()
		}
	}
	snap := sh.recs[idx].snap.Load()
	if snap.deleted {
		// Matches the generic async route: the dispatch error of a deleted
		// event is discarded before any counter moves.
		return
	}
	col := s.spans
	var spID uint64
	var spStart Duration
	if col != nil && trace != 0 {
		spID = col.NextID(d.idx)
		d.curTrace, d.curSpan = trace, spID
		d.spanTier, d.spanFlags = 0, 0
		spStart = s.clock.Now()
	}
	tracer := s.tracer()
	d.stats.Raises.Add(1)
	d.stats.AsyncRaises.Add(1)
	if tracer != nil {
		tracer.Event(ev, snap.name, Async, 0, d.idx)
	}
	if !sh.segMatches(idx) {
		// A rebind raced the pending continuation.
		d.stats.SegFallbacks.Add(1)
		d.spanNoteFlags(span.FlagSegFallback)
		d.generic(snap, ev, Async, args, 0, tracer)
	} else {
		d.stats.FastRuns.Add(1)
		d.spanNoteTier(spanTierOf(sh))
		ce := &d.slot(0).ce
		*ce = chainExec{sh: sh, d: d, tracer: tracer, supervised: false}
		ce.runSegment(idx, args, Async, 0)
	}
	if spID != 0 {
		spEnd := s.clock.Now()
		tier, flags := span.Tier(d.spanTier), span.Flags(d.spanFlags)
		d.curTrace, d.curSpan = 0, 0
		d.spanTier, d.spanFlags = 0, 0
		d.lastSpanTrace, d.lastSpanID = trace, spID
		col.Record(d.idx, trace, spID, pspan, int32(ev), kind, tier, flags, uint8(Async), int64(spStart), int64(spEnd))
	}
	if sampled {
		end := s.clock.Now()
		dur := int64(end - start)
		tel.RecordLatency(d.idx, int32(ev), dur)
		tel.RecordActivation(d.idx, int32(ev), uint8(Async), telemetry.OutcomeOK, 0, dur, int64(end), nil)
	}
}
