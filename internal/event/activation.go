package event

import "sync"

// inlineArgs is the number of raise arguments an activation record (and a
// dispatch context) stores inline. Raises with at most this many
// arguments travel the runtime without touching the heap; longer argument
// lists spill to a cloned slice. Four covers every hot event of the
// paper's applications (Seg2Net carries three).
const inlineArgs = 4

// activation is one queued unit of scheduler work: an asynchronous or
// timed event activation, a supervised retry, or an internal timer
// callback. Records are pooled — the ring buffers hold pointers and the
// steady-state raise path recycles them instead of allocating.
//
// Ownership discipline: the producer that obtains a record from getAct
// owns it until it is pushed onto a domain's ring; from then on the
// consuming domain owns it and releases it with putAct after the
// activation (including its retry decision) completes. Nothing may
// retain a record or alias its argument storage across that release:
// dispatch copies arguments into per-domain scratch before any handler
// runs, retries copy into their timer entry, and dead-letter metadata
// is built fresh — so a recycled record can never mutate under a reader.
type activation struct {
	ev      ID
	mode    Mode
	attempt int    // prior retry attempts of this activation
	fire    func() // internal timer callback; runs instead of a dispatch

	// enqAt stamps the enqueue time when telemetry is enabled (enqSet
	// gates validity); the scheduler pop turns it into a queue-delay
	// observation. Pool zeroing clears both.
	enqAt  Duration
	enqSet bool

	// csh/cidx carry the continuation hint of a coalesced asynchronous
	// raise: the super-handler and segment index the raise should execute
	// through directly instead of the generic route (coalesce.go). Both
	// are best-effort — the segment guard is re-checked when the
	// continuation runs — and pool zeroing clears them.
	csh  *SuperHandler
	cidx int

	// trace/pspan/skind carry the causal span context of a sampled trace
	// across the scheduler handoff (span.go): the trace ID, the raising
	// span's ID, and the hop kind (span.Kind) the activation's own span
	// records. Zero trace means the activation is not part of a sampled
	// trace. Fixed-size words, cleared by pool zeroing.
	trace uint64
	pspan uint64
	skind uint8

	argRecord
}

// argRecord holds the arguments of a queued activation or an armed
// timer: inline up to inlineArgs, an owned clone beyond.
type argRecord struct {
	nargs   int
	spilled bool
	inline  [inlineArgs]Arg
	spill   []Arg // owned clone, used only when nargs > inlineArgs
}

// args returns the record's argument view. The slice aliases record
// storage: callers must copy (or clone) before the record is released.
func (r *argRecord) args() []Arg {
	if r.spilled {
		return r.spill
	}
	return r.inline[:r.nargs]
}

// setArgs copies the caller's arguments into the record: inline up to
// inlineArgs, a fresh clone beyond. The incoming slice is never retained,
// so callers' variadic slices stay on their stacks.
func (r *argRecord) setArgs(args []Arg) {
	r.nargs = len(args)
	if len(args) <= inlineArgs {
		copy(r.inline[:], args)
		r.spilled = false
	} else {
		r.spill = cloneArgs(args)
		r.spilled = true
	}
}

// adoptArgs transfers ownership of an already-owned slice (a timer
// entry's spilled arguments, past inlineArgs) into the record without
// copying.
func (r *argRecord) adoptArgs(args []Arg) {
	r.nargs = len(args)
	r.spilled = true
	r.spill = args
}

// actPool recycles activation records across all Systems. Get/Put are
// safe from any goroutine, which the MPSC enqueue path requires.
var actPool = sync.Pool{New: func() any { return new(activation) }}

// getAct returns a cleared activation record, recycled when possible.
func (s *System) getAct() *activation {
	if s.noPool {
		return new(activation)
	}
	return actPool.Get().(*activation)
}

// putAct releases a record back to the pool. Argument storage is cleared
// so recycled records do not pin caller values, and so the reuse-safety
// property test can detect any illegal aliasing as visible mutation.
func (s *System) putAct(a *activation) {
	if s.noPool {
		return
	}
	*a = activation{}
	actPool.Put(a)
}
