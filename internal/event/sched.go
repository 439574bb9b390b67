package event

import (
	"container/heap"
	"sync"
	"time"
)

// Duration is the unit of the system clock (an alias of time.Duration).
type Duration = time.Duration

// Clock supplies monotonic time to the scheduler.
type Clock interface {
	Now() Duration
}

// realClock reports monotonic time elapsed since its creation.
type realClock struct{ start time.Time }

// NewRealClock returns a Clock backed by the process monotonic clock.
func NewRealClock() Clock { return realClock{start: time.Now()} }

func (c realClock) Now() Duration { return time.Since(c.start) }

// VirtualClock is a deterministic, manually advanced clock. With a
// VirtualClock installed, Drain advances time to the next pending timer
// when the run queue empties, so timed events fire reproducibly without
// real sleeping.
type VirtualClock struct {
	mu  sync.Mutex
	now Duration
}

// NewVirtualClock returns a virtual clock starting at zero.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now returns the current virtual time.
func (c *VirtualClock) Now() Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves virtual time forward by d (negative d is ignored).
func (c *VirtualClock) Advance(d Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// advanceTo moves virtual time forward to t if t is in the future.
func (c *VirtualClock) advanceTo(t Duration) {
	c.mu.Lock()
	if t > c.now {
		c.now = t
	}
	c.mu.Unlock()
}

// Timer is the cancellation token of a delayed activation.
type Timer struct{ e *timerEntry }

// Cancel revokes the delayed activation if it has not fired yet; it
// reports whether the cancellation took effect. Canceled entries are
// compacted out of the owning domain's timer heap eagerly once enough
// accumulate, so mass cancellation does not pin memory until the
// deadlines pass.
func (t Timer) Cancel() bool {
	if t.e == nil {
		return false
	}
	t.e.mu.Lock()
	if t.e.done {
		t.e.mu.Unlock()
		return false
	}
	t.e.done = true
	owner := t.e.owner
	t.e.mu.Unlock()
	if owner != nil {
		owner.noteTimerCanceled()
	}
	return true
}

// Pending reports whether the timer is still scheduled.
func (t Timer) Pending() bool {
	if t.e == nil {
		return false
	}
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	return !t.e.done
}

type timerEntry struct {
	mu      sync.Mutex
	at      Duration
	seq     uint64
	ev      ID
	mode    Mode    // mode the activation replays with (Delayed for RaiseAfter)
	attempt int     // retry attempts already made (supervision layer)
	fire    func()  // internal callback timer (quarantine re-admission)
	owner   *Domain // for cancellation accounting; nil on internal timers
	done    bool

	// Span context carried across the timer deferral (span.go): zero
	// trace means the deferred activation is not part of a sampled trace.
	trace uint64
	pspan uint64
	skind uint8

	// The deferred activation's arguments, inline up to inlineArgs as in
	// an activation record, so arming a timer allocates only the entry.
	argRecord
}

// moveArgs hands the entry's arguments to the activation record popped
// for it: inline arguments are copied, a spill is adopted. The entry is
// cleared either way, so a fired entry that a Timer handle keeps alive
// pins no caller values.
func (e *timerEntry) moveArgs(a *activation) {
	if e.spilled {
		a.adoptArgs(e.spill)
	} else {
		a.setArgs(e.inline[:e.nargs])
	}
	e.argRecord = argRecord{}
}

type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)       { *h = append(*h, x.(*timerEntry)) }
func (h *timerHeap) Pop() any         { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h timerHeap) peek() *timerEntry { return h[0] }

// RaiseAfter schedules a timed activation of ev after delay d on the
// event's owning domain. Timed events behave like asynchronous
// activations that become eligible once the clock passes their deadline
// (paper section 2.2).
func (s *System) RaiseAfter(d Duration, ev ID, args ...Arg) Timer {
	return s.raiseAfterCtx(d, ev, args, 0, 0, 0)
}

// raiseAfterCtx is RaiseAfter carrying a span context onto the timer
// entry (zero trace for an untraced deferral).
func (s *System) raiseAfterCtx(d Duration, ev ID, args []Arg, trace, pspan uint64, skind uint8) Timer {
	if d < 0 {
		d = 0
	}
	dom := s.domainOf(ev)
	dom.qmu.Lock()
	dom.tseq++
	e := &timerEntry{at: s.clock.Now() + d, seq: dom.tseq, ev: ev, mode: Delayed, owner: dom,
		trace: trace, pspan: pspan, skind: skind}
	e.setArgs(args)
	heap.Push(&dom.timers, e)
	dom.qmu.Unlock()
	dom.nudge()
	return Timer{e: e}
}

// scheduleRetry re-arms a faulted activation after its backoff delay on
// this domain, carrying the attempt count and the original mode forward,
// so a retried RaiseAsync activation replays with ctx.Mode == Async. No
// cancellation token escapes, so owner stays nil. trace/pspan parent the
// replay's span on the attempt that faulted (zero when untraced).
func (d *Domain) scheduleRetry(delay Duration, ev ID, mode Mode, args []Arg, attempt int, trace, pspan uint64, skind uint8) {
	d.qmu.Lock()
	d.tseq++
	e := &timerEntry{at: d.sys.clock.Now() + delay, seq: d.tseq, ev: ev, mode: mode, attempt: attempt,
		trace: trace, pspan: pspan, skind: skind}
	e.setArgs(args)
	heap.Push(&d.timers, e)
	d.qmu.Unlock()
	d.nudge()
}

// scheduleInternal arms an internal callback timer (quarantine
// re-admission) on this domain. It rides the same heap as timed
// activations, so it is deterministic under VirtualClock and fires from
// Step/Drain/Run.
func (d *Domain) scheduleInternal(delay Duration, fire func()) {
	if delay < 0 {
		delay = 0
	}
	d.qmu.Lock()
	d.tseq++
	e := &timerEntry{at: d.sys.clock.Now() + delay, seq: d.tseq, fire: fire}
	heap.Push(&d.timers, e)
	d.qmu.Unlock()
	d.nudge()
}

// enqueue routes an asynchronous activation to the event's owning
// domain. The per-domain ring under its own lock is the MPSC handoff:
// any goroutine (or any other domain's handler) may produce, only the
// owning domain consumes.
func (s *System) enqueue(ev ID, mode Mode, args []Arg) {
	s.enqueueCtx(ev, mode, args, 0, 0, 0)
}

// enqueueCtx is enqueue carrying a span context onto the activation
// record (zero trace for an untraced raise).
func (s *System) enqueueCtx(ev ID, mode Mode, args []Arg, trace, pspan uint64, skind uint8) {
	d := s.domainOf(ev)
	a := s.getAct()
	a.ev, a.mode = ev, mode
	a.setArgs(args)
	a.trace, a.pspan, a.skind = trace, pspan, skind
	if s.tel != nil {
		a.enqAt, a.enqSet = s.clock.Now(), true
	}
	d.enqueueAct(a)
}

// enqueueAct pushes a ready activation record onto the domain's run
// queue, applying the overflow policy when a queue bound is configured.
// The domain takes ownership of the record; records the policy drops are
// released back to the pool here.
func (d *Domain) enqueueAct(a *activation) {
	d.qmu.Lock()
	if d.qcap > 0 && d.q.len() >= d.qcap {
		pol := d.qpolicy
		d.stats.QueueDrops.Add(1)
		switch pol {
		case DropOldest:
			old := d.q.pop()
			d.q.push(a)
			d.qmu.Unlock()
			d.sys.putAct(old)
			if h := d.sys.sched; h != nil {
				h.Sched(SchedEnqueue, d.idx, a.ev, 0)
			}
			d.nudge()
		case DropNewest:
			d.qmu.Unlock()
			d.sys.putAct(a)
		default: // RejectNew
			d.qmu.Unlock()
			d.sys.putAct(a)
			d.sys.report(ErrQueueFull)
		}
		return
	}
	d.q.push(a)
	d.qmu.Unlock()
	if h := d.sys.sched; h != nil {
		h.Sched(SchedEnqueue, d.idx, a.ev, 0)
	}
	d.nudge()
}

// nudge wakes this domain's blocked run loop, if any. The wake channel
// is created unconditionally at construction, so no nil check is needed
// (or safe: a nil fast path would race with run observing the channel).
func (d *Domain) nudge() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// noteTimerCanceled counts a cancellation and compacts the heap once
// canceled entries outnumber live ones (and are worth the rebuild).
func (d *Domain) noteTimerCanceled() {
	d.qmu.Lock()
	d.canceled++
	if d.canceled >= 64 && d.canceled*2 >= len(d.timers) {
		d.compactTimersLocked()
	}
	d.qmu.Unlock()
}

// compactTimersLocked rebuilds the heap without done entries. Caller
// holds qmu.
func (d *Domain) compactTimersLocked() {
	kept := make(timerHeap, 0, len(d.timers)-d.canceled)
	for _, e := range d.timers {
		e.mu.Lock()
		done := e.done
		e.mu.Unlock()
		if !done {
			kept = append(kept, e)
		}
	}
	d.timers = kept
	heap.Init(&d.timers)
	d.canceled = 0
}

func cloneArgs(args []Arg) []Arg {
	if len(args) == 0 {
		return nil
	}
	out := make([]Arg, len(args))
	copy(out, args)
	return out
}

// popRunnable removes and returns the next runnable activation of this
// domain: a pending continuation, a timer whose deadline has passed, or
// a queued asynchronous activation (nil when nothing is runnable). The
// caller owns the returned record.
func (d *Domain) popRunnable() *activation {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	// Pending continuations run first: the capture guard required an
	// empty queue, so each stands for what would have been the queue head
	// at capture time, and continuation-before-queue preserves the generic
	// FIFO order.
	if a := d.popContLocked(); a != nil {
		return a
	}
	now := d.sys.clock.Now()
	// Due timers take precedence over queued events to honor their
	// deadlines.
	if a := d.popDueTimerLocked(now); a != nil {
		return a
	}
	a := d.q.pop()
	if a != nil {
		if a.enqSet {
			if tel := d.sys.tel; tel != nil {
				tel.RecordQueueDelay(d.idx, int32(a.ev), int64(now-a.enqAt))
			}
		}
		if h := d.sys.sched; h != nil {
			h.Sched(SchedPop, d.idx, a.ev, 0)
		}
	}
	return a
}

// popContLocked removes and returns the oldest pending coalesced
// continuation (nil when none), clearing the vacated slot. Caller holds
// qmu.
func (d *Domain) popContLocked() *activation {
	if d.contHead >= len(d.cont) {
		return nil
	}
	a := d.cont[d.contHead]
	d.cont[d.contHead] = nil
	d.contHead++
	if d.contHead == len(d.cont) {
		d.cont = d.cont[:0]
		d.contHead = 0
	}
	if h := d.sys.sched; h != nil {
		h.Sched(SchedContinue, d.idx, a.ev, 0)
	}
	return a
}

// dueTimerLocked reports whether a live timer of this domain is at or
// past its deadline at now. Caller holds qmu.
func (d *Domain) dueTimerLocked(now Duration) bool {
	// `at` is written once at arming (under qmu, like every heap
	// mutation) and never again, so the heap top's deadline — the minimum
	// over all entries, where even a canceled entry's stale `at` is a
	// conservative lower bound — answers the common "nothing due" case
	// without the per-entry mutex.
	if len(d.timers) == 0 || d.timers[0].at > now {
		return false
	}
	at, ok := d.nextDeadlineLocked()
	return ok && at <= now
}

// popDueTimerLocked pops the earliest timer at or past its deadline at
// now and drains it into a pooled activation record (nil when no timer
// is due). Inline arguments are copied into the record and a spilled
// slice transfers ownership, so the pop reallocates nothing. Caller
// holds qmu.
func (d *Domain) popDueTimerLocked(now Duration) *activation {
	// Same hoisted heap-top compare as dueTimerLocked: drains with no due
	// timer skip the per-entry lock entirely.
	for len(d.timers) > 0 && d.timers[0].at <= now {
		e := d.timers.peek()
		e.mu.Lock()
		if e.done {
			e.mu.Unlock()
			d.dropDoneTimerLocked()
			continue
		}
		e.done = true
		e.mu.Unlock()
		heap.Pop(&d.timers)
		a := d.sys.getAct()
		a.ev, a.mode, a.attempt, a.fire = e.ev, e.mode, e.attempt, e.fire
		a.trace, a.pspan, a.skind = e.trace, e.pspan, e.skind
		e.moveArgs(a)
		if tel := d.sys.tel; tel != nil && a.fire == nil {
			// A timer's queue delay is the time past its deadline.
			tel.RecordQueueDelay(d.idx, int32(a.ev), int64(now-e.at))
		}
		if h := d.sys.sched; h != nil {
			h.Sched(SchedTimerFire, d.idx, a.ev, 0)
		}
		return a
	}
	return nil
}

// popRunnableBatch fills dst with up to len(dst) runnable activations
// under a single qmu acquisition — pending continuations first, then due
// timers in deadline order, then queued activations FIFO — and reports
// how many it moved. The queued portion reports one SchedBatchPop event
// carrying the popped count instead of a SchedPop per activation.
func (d *Domain) popRunnableBatch(dst []*activation) int {
	if len(dst) == 0 {
		return 0
	}
	d.qmu.Lock()
	n := 0
	for n < len(dst) {
		a := d.popContLocked()
		if a == nil {
			break
		}
		dst[n] = a
		n++
	}
	now := d.sys.clock.Now()
	for n < len(dst) {
		a := d.popDueTimerLocked(now)
		if a == nil {
			break
		}
		dst[n] = a
		n++
	}
	if n < len(dst) {
		if k := d.q.popN(dst[n:], len(dst)-n); k > 0 {
			if tel := d.sys.tel; tel != nil {
				for _, a := range dst[n : n+k] {
					if a.enqSet {
						tel.RecordQueueDelay(d.idx, int32(a.ev), int64(now-a.enqAt))
					}
				}
			}
			if h := d.sys.sched; h != nil {
				h.Sched(SchedBatchPop, d.idx, dst[n].ev, uint64(k))
			}
			n += k
		}
	}
	// Publish the batch size before releasing qmu: from this moment the
	// popped items are invisible to the queue but still ahead of any new
	// raise, and the coalesce guard reads batchRem to respect that.
	d.batchRem.Store(int32(n))
	d.qmu.Unlock()
	return n
}

// dropDoneTimerLocked pops the (done) heap top and credits the
// compaction counter. Caller holds qmu.
func (d *Domain) dropDoneTimerLocked() {
	heap.Pop(&d.timers)
	if d.canceled > 0 {
		d.canceled--
	}
}

// nextDeadline returns the deadline of the earliest live timer of this
// domain, or false.
func (d *Domain) nextDeadline() (Duration, bool) {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	return d.nextDeadlineLocked()
}

// nextDeadlineLocked is nextDeadline with qmu held; it drops canceled
// heap tops on the way.
func (d *Domain) nextDeadlineLocked() (Duration, bool) {
	for len(d.timers) > 0 {
		e := d.timers.peek()
		e.mu.Lock()
		done, at := e.done, e.at
		e.mu.Unlock()
		if done {
			d.dropDoneTimerLocked()
			continue
		}
		return at, true
	}
	return 0, false
}
