package event

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Domain is one scheduling shard of a System. Each domain owns a run
// queue, a timer heap, a handler atomicity lock and a fault supervisor,
// so activations of events that live in different domains proceed
// concurrently: the only state they share is the lock-free registry,
// the (atomic) counters and the shared supervision configuration.
//
// Within a domain the historical execution model is unchanged — one
// activation at a time, handlers atomic with respect to each other.
// Across domains there is no ordering or atomicity guarantee; a
// synchronous raise of an event pinned to another domain executes
// inline in the caller's domain (affinity governs top-level and
// asynchronous routing, not nested synchronous calls, which would
// otherwise deadlock).
type Domain struct {
	sys *System
	idx int

	runMu   sync.Mutex // handler atomicity lock, held across a top-level activation
	stateMu sync.Mutex // per-handler state-maintenance lock (cost model)

	qmu      sync.Mutex // guards q, timers, cont and the queue bound
	q        actRing    // run queue: pooled activation records in a ring
	timers   timerHeap
	tseq     uint64
	canceled int            // canceled-but-unpopped timers (compaction trigger)
	qcap     int            // run-queue capacity (0 = unbounded)
	qpolicy  OverflowPolicy // applied when the bounded queue is full
	wake     chan struct{}  // nudges run loops when work arrives; never nil

	// cont holds the continuations pending on this domain (coalesce.go):
	// asynchronous raises captured instead of enqueued, by a merged chain
	// running here or in another domain. They are drained before timers
	// and the run queue: the capture guard proved the queue empty, so the
	// list stands for what would have been the queue head, and later
	// captures append behind earlier ones as generic enqueues would.
	// contHead indexes the next pending entry; the slice is reset when it
	// empties.
	cont     []*activation
	contHead int

	// batchK is the drain batch size for run/DrainBatched (<=1:
	// unbatched). Atomic so the adaptive controller can retune it while
	// the run loop executes (TuneBatchDrain); the loop re-reads it once
	// per wakeup. batchPin marks an explicit WithBatchDrain value the
	// controller must leave alone.
	batchK   atomic.Int32
	batchPin bool
	batchBuf []*activation // reusable batch scratch of the owning drain loop

	// batchRem counts batch-popped activations not yet executed by the
	// drain loop. They are no longer in the queue but are logically ahead
	// of any new raise, so the coalesce guard treats batchRem > 0 exactly
	// like a non-empty queue — otherwise a continuation captured mid-batch
	// would overtake the batch remainder, breaking FIFO equivalence with
	// the unbatched drain. Written by the owning drain loop (and under qmu
	// at batch-pop time); read atomically by the guard.
	batchRem atomic.Int32

	slots []*dispatchSlot // depth-indexed dispatch scratch, guarded by runMu

	stats Counters    // this domain's share of the runtime counters
	fault domainFault // per-domain quarantine + activation bookkeeping (fault.go)

	// Telemetry bookkeeping of the current top-level activation, guarded
	// by runMu: the retry attempt it replays with (for its flight record)
	// and a flight-dump reason a fault requested mid-activation, performed
	// once the activation's own record has been appended.
	telAttempt    int
	telDumpReason string

	// Span bookkeeping (span.go), all guarded by runMu. curTrace/curSpan
	// are the innermost open span of the activation in flight (zero when
	// it is unsampled); raises from handlers read them to stamp causality
	// onto child activations. pend* carry the context of a popped
	// activation record into the next top-level dispatch. spanTier and
	// spanFlags are the attribution scratch of the innermost open span.
	// lastSpanTrace/lastSpanID survive past the dispatch so the retry
	// machinery (which runs after runMu is released) can parent a replay
	// on the attempt that faulted.
	curTrace, curSpan         uint64
	pendTrace, pendSpan       uint64
	pendKind                  uint8
	spanTier, spanFlags       uint8
	lastSpanTrace, lastSpanID uint64
}

// dispatchSlot is the dispatch scratch of one synchronous nesting depth
// on one domain: a reusable handler context (with its inline argument
// record) and a reusable super-handler execution state. Handler
// execution in a domain is serialized by runMu and at most one
// activation is live per depth, so steady-state dispatch — generic or
// optimized — allocates nothing.
type dispatchSlot struct {
	ctx Ctx
	ce  chainExec
}

// slot returns the scratch of nesting depth, growing the stack on first
// use (amortized; deep recursions reuse their slots thereafter). Caller
// holds runMu.
func (d *Domain) slot(depth int) *dispatchSlot {
	for depth >= len(d.slots) {
		d.slots = append(d.slots, new(dispatchSlot))
	}
	return d.slots[depth]
}

func newDomain(s *System, idx int) *Domain {
	return &Domain{sys: s, idx: idx, wake: make(chan struct{}, 1)}
}

// Index reports the domain's position in the system's shard set.
func (d *Domain) Index() int { return d.idx }

// NumDomains reports how many event domains the system was created with.
func (s *System) NumDomains() int { return len(s.domains) }

// domainOf returns the domain owning ev. Unknown events route to domain
// 0, whose dispatch reports the error.
func (s *System) domainOf(ev ID) *Domain {
	if len(s.domains) == 1 {
		return s.domains[0]
	}
	if r := s.recLF(ev); r != nil {
		return s.domains[r.dom.Load()]
	}
	return s.domains[0]
}

// EventDomain reports the domain index ev is assigned to (-1 for an
// unknown event).
func (s *System) EventDomain(ev ID) int {
	if r := s.recLF(ev); r != nil {
		return int(r.dom.Load())
	}
	return -1
}

// PinEvent overrides the hash affinity of ev, assigning it to domain
// dom. Pin events before raising them: an activation already queued or
// running stays in the domain that admitted it. PinEvent returns
// ErrUnknownEvent for an undefined event and an error for an
// out-of-range domain.
func (s *System) PinEvent(ev ID, dom int) error {
	if dom < 0 || dom >= len(s.domains) {
		return fmt.Errorf("event: PinEvent: domain %d out of range [0,%d)", dom, len(s.domains))
	}
	r := s.recLF(ev)
	if r == nil {
		return ErrUnknownEvent
	}
	r.dom.Store(int32(dom))
	return nil
}

// Step runs at most one queued or due activation (or internal timer
// callback, such as a quarantine re-admission) across all domains, in
// domain order; it reports whether one ran.
func (s *System) Step() bool {
	for _, d := range s.domains {
		if d.step() {
			return true
		}
	}
	return false
}

// step runs at most one runnable activation of this domain.
func (d *Domain) step() bool {
	a := d.popRunnable()
	if a == nil {
		return false
	}
	if a.fire != nil {
		fire := a.fire
		d.sys.putAct(a)
		fire()
		return true
	}
	if a.csh != nil {
		d.runCont(a)
		return true
	}
	d.runTop(a)
	return true
}

// earliestDeadline returns the earliest live timer deadline across all
// domains, or false when no timers are pending.
func (s *System) earliestDeadline() (Duration, bool) {
	var best Duration
	any := false
	for _, d := range s.domains {
		if at, ok := d.nextDeadline(); ok && (!any || at < best) {
			best, any = at, true
		}
	}
	return best, any
}

// Drain runs queued asynchronous activations until none remain in any
// domain. With a virtual clock it then advances time to the next pending
// timer and keeps going until no queued work and no timers remain. It
// returns the number of activations executed. Drain pumps all domains
// from the calling goroutine in domain order, so it is deterministic;
// use Run for parallel multi-domain execution under a real clock.
func (s *System) Drain() int {
	n := 0
	for {
		if s.Step() {
			n++
			continue
		}
		vc, ok := s.clock.(*VirtualClock)
		if !ok {
			return n
		}
		at, any := s.earliestDeadline()
		if !any {
			return n
		}
		vc.advanceTo(at)
	}
}

// DrainFor behaves like Drain but, under a virtual clock, never advances
// time beyond limit; it is used to simulate a bounded run (for example, N
// seconds of a frame-paced workload). It returns the number of
// activations executed.
func (s *System) DrainFor(limit Duration) int {
	n := 0
	for {
		if s.Step() {
			n++
			continue
		}
		vc, ok := s.clock.(*VirtualClock)
		if !ok {
			return n
		}
		at, any := s.earliestDeadline()
		if !any || at > limit {
			return n
		}
		vc.advanceTo(at)
	}
}

// Run is the blocking event loop for real-clock systems: it executes
// queued asynchronous activations as they arrive and timed activations
// as they fall due, sleeping in between, until stop is closed. It
// returns the number of activations executed. With one domain the loop
// runs on the calling goroutine as before; with N domains, one loop per
// domain runs in parallel and Run returns the total once all stop.
// Synchronous raises from other goroutines remain safe concurrently
// (handler execution is serialized per domain by its atomicity lock);
// use Drain instead under a virtual clock.
func (s *System) Run(stop <-chan struct{}) int {
	if len(s.domains) == 1 {
		return s.domains[0].run(stop)
	}
	var wg sync.WaitGroup
	counts := make([]int, len(s.domains))
	for i, d := range s.domains {
		wg.Add(1)
		go func(i int, d *Domain) {
			defer wg.Done()
			counts[i] = d.run(stop)
		}(i, d)
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// run is one domain's blocking event loop. With a batch size configured
// (WithBatchDrain, or the adaptive controller's TuneBatchDrain) it
// pulls up to K activations per queue-lock acquisition and per wakeup
// instead of one. The batch size is re-read every loop iteration so a
// retune takes effect at the next wakeup without restarting the loop.
func (d *Domain) run(stop <-chan struct{}) int {
	n := 0
	for {
		if batch := d.batchScratch(); batch == nil {
			for d.step() {
				n++
			}
		} else {
			for {
				m := d.popRunnableBatch(batch)
				if m == 0 {
					break
				}
				n += d.runBatch(batch[:m])
			}
		}
		select {
		case <-stop:
			return n
		default:
		}
		var timerC <-chan time.Time
		if at, ok := d.nextDeadline(); ok {
			wait := at - d.sys.clock.Now()
			if wait <= 0 {
				continue
			}
			t := time.NewTimer(wait)
			timerC = t.C
			select {
			case <-stop:
				t.Stop()
				return n
			case <-d.wake:
				t.Stop()
			case <-timerC:
			}
			continue
		}
		select {
		case <-stop:
			return n
		case <-d.wake:
		}
	}
}

// batchScratch returns the domain's reusable batch buffer sized to its
// configured batch K, or nil when batching is off. Only the single
// drain loop that owns the domain (run, or a DrainBatched pump) may use
// it — the same exclusivity Drain and Run already require.
func (d *Domain) batchScratch() []*activation {
	k := int(d.batchK.Load())
	if k <= 1 {
		return nil
	}
	if cap(d.batchBuf) < k {
		d.batchBuf = make([]*activation, k)
	}
	return d.batchBuf[:k]
}

// TuneBatchDrain sets the drain batch size of domain dom at run time;
// the domain's Run loop picks the new size up at its next wakeup. It is
// the adaptive controller's K-tuning seam. k <= 1 restores the
// unbatched loop; a domain pinned by an explicit WithBatchDrain refuses
// retuning. It reports whether the size was applied.
func (s *System) TuneBatchDrain(dom, k int) bool {
	if dom < 0 || dom >= len(s.domains) {
		return false
	}
	d := s.domains[dom]
	if d.batchPin {
		return false
	}
	if k < 0 {
		k = 0
	}
	d.batchK.Store(int32(k))
	d.nudge()
	return true
}

// BatchK reports the current drain batch size of domain dom (<=1 means
// unbatched; 0 for an out-of-range index).
func (s *System) BatchK(dom int) int {
	if dom < 0 || dom >= len(s.domains) {
		return 0
	}
	return int(s.domains[dom].batchK.Load())
}

// BatchPinned reports whether domain dom's batch size was pinned by an
// explicit WithBatchDrain and is therefore exempt from adaptive tuning.
func (s *System) BatchPinned(dom int) bool {
	if dom < 0 || dom >= len(s.domains) {
		return false
	}
	return s.domains[dom].batchPin
}

// runBatch executes a popped batch in order and returns how many
// activations ran. The registry resolution (record, binding snapshot,
// fast path) is hoisted across the batch: consecutive activations of the
// same event reuse one resolution while the publish generation is
// unchanged, so a K-item batch of a hot event pays one set of atomic
// registry loads instead of K. Guards are still enforced per activation
// — a publish, install or deopt bumps the generation and invalidates
// the cache, and the fast-path version check re-runs on every dispatch
// regardless.
//
// Continuations need no per-item drain here: the capture guard rejects
// captures into this domain while the batch remainder is in flight
// (batchRem), so one can only appear during the final item — and the
// next popRunnableBatch pops the pending continuations before anything
// else.
func (d *Domain) runBatch(batch []*activation) int {
	s := d.sys
	n := 0
	gen := s.pubGen.Load()
	var (
		lastEv   = NoID
		lastRec  *eventRec
		lastSnap *bindingSnapshot
		lastFast *SuperHandler
	)
	for i, a := range batch {
		batch[i] = nil
		// Items after this one are still ahead in program order; the
		// coalesce guard must not let a continuation overtake them.
		d.batchRem.Store(int32(len(batch) - i - 1))
		switch {
		case a.fire != nil:
			fire := a.fire
			s.putAct(a)
			fire()
		case a.csh != nil:
			d.runCont(a)
		case s.tel != nil || s.spans != nil:
			// The telemetry/span wrappers re-instrument each activation;
			// they resolve for themselves.
			d.runTop(a)
		default:
			if g := s.pubGen.Load(); a.ev != lastEv || g != gen {
				gen, lastEv = g, a.ev
				lastRec = s.recLF(a.ev)
				if lastRec != nil {
					lastSnap = lastRec.snap.Load()
					lastFast = lastRec.fast.Load()
				}
			}
			if lastRec == nil {
				s.putAct(a) // unknown event: the async dispatch error is discarded
			} else {
				d.runTopResolved(a, lastRec, lastSnap, lastFast)
			}
		}
		n++
	}
	return n
}

// DrainBatched behaves like Drain but pumps each domain in batches of up
// to k activations per queue-lock acquisition (k <= 1 degenerates to
// Drain). Like Drain it runs everything from the calling goroutine in
// domain order, so it must not race a concurrent Run loop.
func (s *System) DrainBatched(k int) int {
	if k <= 1 {
		return s.Drain()
	}
	n := 0
	for {
		ran := 0
		for _, d := range s.domains {
			if cap(d.batchBuf) < k {
				d.batchBuf = make([]*activation, k)
			}
			batch := d.batchBuf[:k]
			for {
				m := d.popRunnableBatch(batch)
				if m == 0 {
					break
				}
				ran += d.runBatch(batch[:m])
			}
		}
		if ran > 0 {
			n += ran
			continue
		}
		vc, ok := s.clock.(*VirtualClock)
		if !ok {
			return n
		}
		at, any := s.earliestDeadline()
		if !any {
			return n
		}
		vc.advanceTo(at)
	}
}

// QueueLen reports the number of queued (not yet run) asynchronous
// activations across all domains, excluding timers.
func (s *System) QueueLen() int {
	n := 0
	for _, d := range s.domains {
		d.qmu.Lock()
		n += d.q.len()
		d.qmu.Unlock()
	}
	return n
}

// TimerCount reports the number of scheduled (uncanceled, unfired)
// timers across all domains.
func (s *System) TimerCount() int {
	n := 0
	for _, d := range s.domains {
		d.qmu.Lock()
		for _, e := range d.timers {
			e.mu.Lock()
			if !e.done {
				n++
			}
			e.mu.Unlock()
		}
		d.qmu.Unlock()
	}
	return n
}

// timerHeapLen reports the raw heap length across domains, including
// canceled entries not yet compacted (tests observe memory hygiene
// through it).
func (s *System) timerHeapLen() int {
	n := 0
	for _, d := range s.domains {
		d.qmu.Lock()
		n += len(d.timers)
		d.qmu.Unlock()
	}
	return n
}
