// Package hirrt bridges HIR handler bodies to the event runtime: it
// adapts *hir.Function bodies into event.HandlerFunc values, converts
// between runtime argument values and hir.Value, and groups the shared
// execution context (global state, intrinsics, helper functions) of one
// component into a Module. Applications written against HIR get the same
// observable behavior whether their handlers run individually through the
// generic dispatcher or merged inside a super-handler.
package hirrt

import (
	"fmt"
	"sync"

	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hir/opt"
)

// ToValue converts a runtime argument value into an hir.Value. Unsupported
// types map to None, mirroring a failed argument lookup.
func ToValue(v any) hir.Value {
	switch x := v.(type) {
	case nil:
		return hir.None
	case int:
		return hir.IntVal(int64(x))
	case int64:
		return hir.IntVal(x)
	case bool:
		return hir.BoolVal(x)
	case string:
		return hir.StrVal(x)
	case []byte:
		return hir.BytesVal(x)
	case hir.Value:
		return x
	default:
		return hir.None
	}
}

// FromValue converts an hir.Value into a runtime argument value.
func FromValue(v hir.Value) any {
	switch v.Kind {
	case hir.KInt:
		return v.I
	case hir.KBool:
		return v.I != 0
	case hir.KStr:
		return v.S
	case hir.KBytes:
		return v.B
	default:
		return nil
	}
}

// Module is the shared execution context of one event-based component
// whose handlers are written in HIR: its global state cells, its host
// intrinsics, its HIR helper functions, and the event system it runs on.
type Module struct {
	Sys     *event.System
	Globals *hir.State

	mu         sync.Mutex
	intrinsics map[string]hir.Intrinsic
	slots      map[string]*hir.IntrinsicSlot // compiled call sites' late-bound view of intrinsics
	funcs      map[string]*hir.Function
	evCache    map[string]event.ID
}

// NewModule creates an empty module over sys.
func NewModule(sys *event.System) *Module {
	return &Module{
		Sys:        sys,
		Globals:    hir.NewState(),
		intrinsics: make(map[string]hir.Intrinsic),
		slots:      make(map[string]*hir.IntrinsicSlot),
		funcs:      make(map[string]*hir.Function),
		evCache:    make(map[string]event.ID),
	}
}

// RegisterIntrinsic exposes a host function to HIR code. Pure intrinsics
// are eligible for folding, CSE and DCE.
func (m *Module) RegisterIntrinsic(name string, pure bool, fn func(args []hir.Value) hir.Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setIntrinsicLocked(name, hir.Intrinsic{Fn: fn, Pure: pure})
}

// setIntrinsicLocked updates the intrinsic table and the name's slot, if
// compiled code holds one. Caller holds mu.
func (m *Module) setIntrinsicLocked(name string, in hir.Intrinsic) {
	m.intrinsics[name] = in
	if s, ok := m.slots[name]; ok {
		s.Fn = in.Fn
	}
}

// intrinsicSlot returns the slot compiled call sites read name through,
// creating it (empty when name is not registered yet) on first use.
func (m *Module) intrinsicSlot(name string) *hir.IntrinsicSlot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.slots[name]
	if !ok {
		s = &hir.IntrinsicSlot{Fn: m.intrinsics[name].Fn}
		m.slots[name] = s
	}
	return s
}

// RegisterFunc exposes an HIR helper function (OpCallFn target). Bodies
// that call it compile against it when they are bound, so register
// helpers before binding their callers.
func (m *Module) RegisterFunc(fn *hir.Function) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.funcs[fn.Name] = fn
}

// WrapIntrinsic replaces a registered intrinsic with wrap(old), reporting
// whether the name existed. Every HIR handler of the module, including
// fused bodies already installed, observes the wrapper at its next call:
// compiled call sites read the intrinsic through the module's per-name
// slot at call time. Generated (evgen) code resolves once at install and
// does not. The fault-injection harness uses this to interpose
// panic/error injection on intrinsic call sites.
func (m *Module) WrapIntrinsic(name string, wrap func(hir.Intrinsic) hir.Intrinsic) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	in, ok := m.intrinsics[name]
	if !ok {
		return false
	}
	m.setIntrinsicLocked(name, wrap(in))
	return true
}

// OptInfo exposes the module's interprocedural facts to the optimizer.
func (m *Module) OptInfo() *opt.Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	info := &opt.Info{
		Intrinsics: make(map[string]hir.Intrinsic, len(m.intrinsics)),
		Funcs:      make(map[string]*hir.Function, len(m.funcs)),
	}
	for k, v := range m.intrinsics {
		info.Intrinsics[k] = v
	}
	for k, v := range m.funcs {
		info.Funcs[k] = v
	}
	return info
}

// eventID resolves (and caches) an event name.
func (m *Module) eventID(name string) event.ID {
	m.mu.Lock()
	if id, ok := m.evCache[name]; ok {
		m.mu.Unlock()
		return id
	}
	m.mu.Unlock()
	id := m.Sys.Lookup(name)
	if id != event.NoID {
		m.mu.Lock()
		m.evCache[name] = id
		m.mu.Unlock()
	}
	return id
}

// Env builds a fresh HIR execution environment for one activation
// context. HandlerFunc builds a reusable variant; Env remains for tools
// and tests that execute bodies ad hoc.
func (m *Module) Env(ctx *event.Ctx) *hir.Env {
	env, bind := m.newEnv()
	bind(ctx)
	return env
}

// newEnv constructs an Env whose context can be switched cheaply between
// activations: the closures read the current *event.Ctx through an
// indirection cell instead of capturing one. The returned setter swaps
// the current context and returns the previous one, so reentrant
// activations nest correctly.
func (m *Module) newEnv() (*hir.Env, func(*event.Ctx) *event.Ctx) {
	var cur *event.Ctx
	raiseIDs := make(map[string]event.ID) // filled lazily; runs under the runtime's atomicity lock
	var eargs []event.Arg                 // scratch argument record, reused across raises
	env := &hir.Env{
		Args: func(n string) (hir.Value, bool) {
			v, ok := cur.Args.Lookup(n)
			if !ok {
				return hir.None, false
			}
			return ToValue(v), true
		},
		BindArgs: func(n string) (hir.Value, bool) {
			v, ok := cur.BindArgs.Lookup(n)
			if !ok {
				return hir.None, false
			}
			return ToValue(v), true
		},
		Globals:       m.Globals,
		Intrinsics:    m.intrinsics,
		IntrinsicSlot: m.intrinsicSlot,
		Funcs:         m.funcs,
		Raise: func(name string, async bool, delay int64, args []hir.NamedValue) {
			id, ok := raiseIDs[name]
			if !ok {
				id = m.eventID(name)
				raiseIDs[name] = id
			}
			if id == event.NoID {
				return // unknown events are ignored, like the runtime does
			}
			// Every raise entry point marshals its arguments before any
			// handler runs (inline copy, clone, or timer-entry clone), so
			// one scratch record serves all raises from this environment,
			// including reentrant ones.
			eargs = eargs[:0]
			for _, a := range args {
				eargs = append(eargs, event.Arg{Name: a.Name, Val: FromValue(a.Val)})
			}
			switch {
			case delay > 0:
				cur.RaiseAfter(event.Duration(delay), id, eargs...)
			case async:
				cur.RaiseAsync(id, eargs...)
			default:
				cur.Raise(id, eargs...)
			}
		},
		Halt: func() { cur.Halt() },
	}
	return env, func(ctx *event.Ctx) *event.Ctx {
		old := cur
		cur = ctx
		return old
	}
}

// HandlerFunc compiles an HIR body (hir.Compile) into an event handler.
// Intrinsics late-bind through the module's slots, so intrinsics
// registered or wrapped after compiling are seen; helper functions
// (RegisterFunc) must exist at compile time. The environment and one
// execution frame per live nesting depth are reused across activations
// (handler execution is serialized by the runtime's atomicity lock), so
// steady-state dispatch does not allocate. Execution errors (which
// indicate bugs in the handler code, such as division by zero or an
// intrinsic that was never registered) panic, matching how a native
// handler bug would surface.
func (m *Module) HandlerFunc(body *hir.Function) (event.HandlerFunc, error) {
	env, setCtx := m.newEnv()
	comp, err := hir.Compile(body, env)
	if err != nil {
		return nil, err
	}
	var frames []*hir.Frame // one frame per live nesting depth
	return activate(body.Name, setCtx, func(d int) error {
		if d == len(frames) {
			// First activation at this depth: the reentrant frame is
			// allocated once and reused by every later reentry.
			frames = append(frames, comp.NewFrame())
		}
		_, err := comp.Run(frames[d])
		return err
	}), nil
}

// activate adapts run, an executor keeping one reusable state per live
// nesting depth, into an event handler: it points the environment at the
// activation's context, runs at the current depth, and panics on an
// execution error.
func activate(name string, setCtx func(*event.Ctx) *event.Ctx, run func(depth int) error) event.HandlerFunc {
	depth := 0
	return func(ctx *event.Ctx) {
		d := depth
		depth++
		oldCtx := setCtx(ctx)
		// Restore under defer: a panic out of the body (an intrinsic bug,
		// or injected fault) must not leave the depth counter stuck or the
		// context cell pointing at a dead activation — the runtime's
		// supervision layer recovers such panics and keeps dispatching.
		defer func() {
			setCtx(oldCtx)
			depth = d
		}()
		if err := run(d); err != nil {
			panic(fmt.Sprintf("hirrt: handler %s: %v", name, err))
		}
	}
}

// Bind attaches an HIR handler to an event, recording the IR body on the
// binding so the optimizer can merge and fuse it later. A body that does
// not compile (a helper function that is not registered) is still bound;
// its activations panic with the compile error, as an interpreted body
// would fail when it reached the missing call.
func (m *Module) Bind(ev event.ID, name string, body *hir.Function, opts ...event.BindOption) event.Binding {
	fn, err := m.HandlerFunc(body)
	if err != nil {
		fn = func(*event.Ctx) { panic(fmt.Sprintf("hirrt: handler %s: %v", body.Name, err)) }
	}
	return m.Sys.Bind(ev, name, fn, append(opts, event.WithIR(body))...)
}
