package trace

import (
	"fmt"
	"sync"

	"eventopt/internal/event"
)

// This file is the trace consistency checker: it validates a recorded
// trace against the happens-before rules of the domain execution model,
// so optimizer and scheduler changes can be checked against recorded
// traces (including production flight recordings), not just synthetic
// tests.
//
// Two checkers cover two observation levels:
//
//   - Check validates the entry stream a Recorder produces (text or
//     binary). Every rule it enforces is decidable from the entries
//     alone: per-domain serialization of top-level activations, handler
//     enter/exit nesting balance, depth and mode discipline, and
//     ID-to-name stability.
//
//   - CheckSched validates a scheduling log captured through the
//     event.SchedHook seam (SchedRecorder). It enforces the rules that
//     need registry versions and queue operations: binding-version
//     monotonicity, install guards that never come from the future,
//     fast-path entries matching their installed guard, and
//     enqueue-before-pop causality on cross-domain handoffs.
//
// CheckSched assumes a serialized recording (the exploration harness, or
// any single-threaded run); on a log recorded from racing domains the
// interleaving of the recorder itself is not evidence of a runtime bug.

// Violation is one consistency-rule failure.
type Violation struct {
	Index  int    // index of the offending record in the checked slice
	Domain int    // event domain the record belongs to
	Rule   string // short rule identifier (stable, test-matchable)
	Msg    string // human-readable description
}

func (v Violation) String() string {
	return fmt.Sprintf("entry %d (domain %d): %s: %s", v.Index, v.Domain, v.Rule, v.Msg)
}

// frame is one open handler invocation in a domain's checker state.
type frame struct {
	ev      event.ID
	name    string
	handler string
	depth   int
	index   int
}

// domState is the per-domain stream checker.
type domState struct {
	stack []frame
	// curEv/curName track the innermost activation per nesting depth, so
	// a handler entry can be matched to the activation it runs under.
	curEv   []event.ID
	curName []string
}

func (st *domState) setActivation(depth int, ev event.ID, name string) {
	for depth >= len(st.curEv) {
		st.curEv = append(st.curEv, event.NoID)
		st.curName = append(st.curName, "")
	}
	st.curEv[depth] = ev
	st.curName[depth] = name
	// A new activation at this depth invalidates anything deeper: those
	// activations belonged to a handler that has returned.
	for d := depth + 1; d < len(st.curEv); d++ {
		st.curEv[d] = event.NoID
	}
}

func (st *domState) activation(depth int) (event.ID, string, bool) {
	if depth < 0 || depth >= len(st.curEv) || st.curEv[depth] == event.NoID {
		return event.NoID, "", false
	}
	return st.curEv[depth], st.curName[depth], true
}

// Check validates entries against the structural happens-before rules of
// the execution model and returns all violations found (nil for a
// consistent trace). Entries may arrive in any domain order — the
// checker groups them by the Domain field, preserving relative order
// within each domain, which is exactly the order each domain's
// atomicity lock serialized them in.
//
// Rules enforced, per domain:
//
//   - serialized-top: a top-level activation (depth 0) cannot begin
//     while a handler frame is still open — domains run one top-level
//     activation at a time.
//   - nest-balance: every HandlerExit must match the innermost open
//     HandlerEnter (same event, handler and depth); no exits without
//     enters, and no frames left open at end of trace.
//   - enter-matches-event: a HandlerEnter at depth d must name the
//     activation most recently raised at depth d.
//   - mode-discipline: nested activations (depth > 0) are synchronous;
//     Async and Delayed activations enter only at depth 0.
//   - depth-positive: depths are non-negative.
//
// And globally:
//
//   - id-name: an event ID maps to one name for the whole trace (IDs
//     are never reused).
//
// The handler rules tolerate per-event handler-profiling filters: a
// frame whose parent activation was not handler-profiled simply has no
// surrounding frames to match against.
func Check(entries []Entry) []Violation {
	var out []Violation
	doms := make(map[int]*domState)
	names := make(map[event.ID]string)

	fail := func(i int, e Entry, rule, format string, args ...any) {
		out = append(out, Violation{Index: i, Domain: e.Domain, Rule: rule, Msg: fmt.Sprintf(format, args...)})
	}

	for i, e := range entries {
		st := doms[e.Domain]
		if st == nil {
			st = &domState{}
			doms[e.Domain] = st
		}
		if e.Depth < 0 {
			fail(i, e, "depth-positive", "negative depth %d", e.Depth)
			continue
		}
		if prev, ok := names[e.Event]; !ok {
			names[e.Event] = e.EventName
		} else if prev != e.EventName {
			fail(i, e, "id-name", "event %d named %q here but %q earlier", e.Event, e.EventName, prev)
		}
		switch e.Kind {
		case EventRaised:
			if e.Depth == 0 && len(st.stack) > 0 {
				top := st.stack[len(st.stack)-1]
				fail(i, e, "serialized-top",
					"top-level activation of %q while handler %q of %q (entry %d) is still open",
					e.EventName, top.handler, top.name, top.index)
			}
			if e.Depth > 0 && e.Mode != event.Sync {
				fail(i, e, "mode-discipline",
					"nested activation of %q at depth %d has mode %d, want Sync", e.EventName, e.Depth, e.Mode)
			}
			st.setActivation(e.Depth, e.Event, e.EventName)
		case HandlerEnter:
			if ev, name, ok := st.activation(e.Depth); ok {
				if ev != e.Event || name != e.EventName {
					fail(i, e, "enter-matches-event",
						"handler %q enters under event %d %q but the activation at depth %d is %d %q",
						e.Handler, e.Event, e.EventName, e.Depth, ev, name)
				}
			} else {
				fail(i, e, "enter-matches-event",
					"handler %q enters at depth %d with no activation raised there", e.Handler, e.Depth)
			}
			if n := len(st.stack); n > 0 && st.stack[n-1].depth >= e.Depth {
				top := st.stack[n-1]
				fail(i, e, "nest-balance",
					"handler %q enters at depth %d inside open frame %q at depth %d",
					e.Handler, e.Depth, top.handler, top.depth)
			}
			st.stack = append(st.stack, frame{ev: e.Event, name: e.EventName, handler: e.Handler, depth: e.Depth, index: i})
		case HandlerExit:
			n := len(st.stack)
			if n == 0 {
				fail(i, e, "nest-balance", "handler %q exits with no open frame", e.Handler)
				continue
			}
			top := st.stack[n-1]
			if top.ev != e.Event || top.handler != e.Handler || top.depth != e.Depth {
				fail(i, e, "nest-balance",
					"exit of %q/%q depth %d does not match open frame %q/%q depth %d (entry %d)",
					e.EventName, e.Handler, e.Depth, top.name, top.handler, top.depth, top.index)
				continue
			}
			st.stack = st.stack[:n-1]
		default:
			fail(i, e, "unknown-kind", "unknown entry kind %d", e.Kind)
		}
	}
	for dom, st := range doms {
		for _, f := range st.stack {
			out = append(out, Violation{Index: f.index, Domain: dom, Rule: "nest-balance",
				Msg: fmt.Sprintf("handler %q of %q entered but never exited", f.handler, f.name)})
		}
	}
	return out
}

// SchedEvent is one recorded scheduling decision (see event.SchedPoint).
type SchedEvent struct {
	Point event.SchedPoint
	Dom   int
	Event event.ID
	Ver   uint64
}

// SchedRecorder implements event.SchedHook by appending every decision
// to one log. It takes a single lock per callback — it is a test and
// exploration seam, not a production tracer.
type SchedRecorder struct {
	mu  sync.Mutex
	evs []SchedEvent
}

// NewSchedRecorder returns an empty scheduling log.
func NewSchedRecorder() *SchedRecorder { return &SchedRecorder{} }

// Sched implements event.SchedHook.
func (r *SchedRecorder) Sched(p event.SchedPoint, dom int, ev event.ID, ver uint64) {
	r.mu.Lock()
	r.evs = append(r.evs, SchedEvent{Point: p, Dom: dom, Event: ev, Ver: ver})
	r.mu.Unlock()
}

// Events returns a copy of the recorded log.
func (r *SchedRecorder) Events() []SchedEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SchedEvent, len(r.evs))
	copy(out, r.evs)
	return out
}

// Reset discards the recorded log.
func (r *SchedRecorder) Reset() {
	r.mu.Lock()
	r.evs = nil
	r.mu.Unlock()
}

// CheckSched validates a serialized scheduling log against the registry
// and queue happens-before rules:
//
//   - publish-monotonic: binding versions of one event strictly
//     increase across its publishes.
//   - install-version: an installed guard version never exceeds the
//     event's last published version (a guard cannot come from the
//     future — the signature of a fast path built against bindings that
//     do not exist yet).
//   - fast-entry-guard: a fast-path entry's matched guard equals the
//     version of the most recent install of that event, with no
//     intervening removal.
//   - handoff-causality: on every domain, at every prefix of the log,
//     activations popped from the run queue never outnumber activations
//     enqueued to it (a cross-domain handoff is consumed only after it
//     was produced). A batched pop (SchedBatchPop, Ver = count) debits
//     the same ledger, so batching cannot hide a pop-before-enqueue.
//   - batch-count: a batched pop removes at least one activation (the
//     drain loop never reports an empty batch).
//   - continue-causality: on every domain, continuations run
//     (SchedContinue) never outnumber continuations captured for it
//     (SchedCoalesce, reported against the domain owning the event). A
//     speculatively merged async raise is consumed only after it was
//     captured, whichever domain raised it.
func CheckSched(evs []SchedEvent) []Violation {
	var out []Violation
	fail := func(i int, e SchedEvent, rule, format string, args ...any) {
		out = append(out, Violation{Index: i, Domain: e.Dom, Rule: rule, Msg: fmt.Sprintf(format, args...)})
	}

	lastPub := make(map[event.ID]uint64)   // last published version per event
	installed := make(map[event.ID]uint64) // guard version of the live install
	live := make(map[event.ID]bool)        // install present (not removed)
	enq := make(map[int]int)               // per-domain enqueue count
	pop := make(map[int]int)               // per-domain pop count
	coal := make(map[int]int)              // per-domain continuation-capture count
	cont := make(map[int]int)              // per-domain continuation-run count

	for i, e := range evs {
		switch e.Point {
		case event.SchedPublish:
			if prev, ok := lastPub[e.Event]; ok && e.Ver <= prev {
				fail(i, e, "publish-monotonic",
					"event %d published version %d after version %d", e.Event, e.Ver, prev)
			}
			lastPub[e.Event] = e.Ver
		case event.SchedInstall:
			if prev, ok := lastPub[e.Event]; ok && e.Ver > prev {
				fail(i, e, "install-version",
					"event %d installed with guard version %d but last published version is %d",
					e.Event, e.Ver, prev)
			}
			installed[e.Event] = e.Ver
			live[e.Event] = true
		case event.SchedRemove:
			live[e.Event] = false
		case event.SchedFastEntry:
			if !live[e.Event] {
				fail(i, e, "fast-entry-guard",
					"event %d entered a fast path but none is installed", e.Event)
			} else if g := installed[e.Event]; g != e.Ver {
				fail(i, e, "fast-entry-guard",
					"event %d fast entry matched guard version %d but the installed guard is %d",
					e.Event, e.Ver, g)
			}
		case event.SchedEnqueue:
			enq[e.Dom]++
		case event.SchedPop:
			pop[e.Dom]++
			if pop[e.Dom] > enq[e.Dom] {
				fail(i, e, "handoff-causality",
					"domain %d popped %d activations but only %d were enqueued",
					e.Dom, pop[e.Dom], enq[e.Dom])
			}
		case event.SchedBatchPop:
			k := int(e.Ver)
			if k < 1 {
				fail(i, e, "batch-count",
					"domain %d reported a batched pop of %d activations", e.Dom, k)
				continue
			}
			pop[e.Dom] += k
			if pop[e.Dom] > enq[e.Dom] {
				fail(i, e, "handoff-causality",
					"domain %d popped %d activations (batch of %d) but only %d were enqueued",
					e.Dom, pop[e.Dom], k, enq[e.Dom])
			}
		case event.SchedCoalesce:
			coal[e.Dom]++
		case event.SchedContinue:
			cont[e.Dom]++
			if cont[e.Dom] > coal[e.Dom] {
				fail(i, e, "continue-causality",
					"domain %d ran %d continuations but only %d were captured",
					e.Dom, cont[e.Dom], coal[e.Dom])
			}
		case event.SchedTimerFire:
			// Timers are produced and consumed by the owning domain; no
			// cross-domain causality to check.
		default:
			fail(i, e, "unknown-point", "unknown sched point %d", e.Point)
		}
	}
	return out
}
