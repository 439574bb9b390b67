package core

import (
	"fmt"
	"sync"

	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hir/opt"
	"eventopt/internal/hirrt"
	"eventopt/internal/profile"
)

// Installed tracks the super-handlers a plan installed so they can be
// removed again (reverting the system to fully generic dispatch). It
// also learns, through the runtime's deopt hook, which entries were
// auto-uninstalled because their optimized code faulted.
type Installed struct {
	sys    *event.System
	Supers []*event.SuperHandler

	mu      sync.Mutex
	evicted []event.ID
}

// Uninstall removes every installed fast path. Entries the runtime
// already auto-deoptimized are left alone: the identity-aware removal
// cannot clobber a newer super-handler installed in the meantime.
func (ins *Installed) Uninstall() {
	for _, sh := range ins.Supers {
		ins.sys.RemoveFastPathIf(sh)
	}
}

// Evicted returns the entry events whose super-handlers the runtime
// auto-deoptimized after a fault, in eviction order.
func (ins *Installed) Evicted() []event.ID {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	return append([]event.ID(nil), ins.evicted...)
}

// noteDeopt is the per-super-handler hook the runtime invokes on
// auto-deoptimization (fault in optimized code).
func (ins *Installed) noteDeopt(sh *event.SuperHandler) {
	ins.mu.Lock()
	ins.evicted = append(ins.evicted, sh.Entry)
	ins.mu.Unlock()
}

// Install builds and installs one super-handler per plan entry. mod may
// be nil when no handlers carry HIR bodies; with a module, segments whose
// handlers all have HIR bodies are fused and compiler-optimized, and —
// under FullFusion — subsumed raises are spliced statically.
func (p *Plan) Install(sys *event.System, mod *hirrt.Module) (*Installed, error) {
	ins := &Installed{sys: sys}
	for _, entry := range p.Entries {
		sh, err := buildSuper(sys, mod, entry, p.opts)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", entry.EventName, err)
		}
		sh.OnDeopt = ins.noteDeopt
		sh.Provenance = "offline"
		if err := sys.InstallFastPath(sh); err != nil {
			return nil, fmt.Errorf("core: install %s: %w", entry.EventName, err)
		}
		ins.Supers = append(ins.Supers, sh)
	}
	return ins, nil
}

// Apply is the whole pipeline in one call: plan from profile, then
// install. It returns the plan for inspection alongside the handle.
func Apply(sys *event.System, prof *profile.Profile, mod *hirrt.Module, opts Options) (*Plan, *Installed, error) {
	plan, err := BuildPlan(sys, prof, opts)
	if err != nil {
		return nil, nil, err
	}
	ins, err := plan.Install(sys, mod)
	if err != nil {
		return plan, nil, err
	}
	return plan, ins, nil
}

// BuildSuper constructs (without installing) the super-handler for one
// plan entry from the system's current bindings. The adaptive optimizer
// uses it to build each promotion individually and publish it through
// the runtime's compare-and-swap install, instead of the all-or-nothing
// Plan.Install path.
func BuildSuper(sys *event.System, mod *hirrt.Module, entry PlanEntry, opts Options) (*event.SuperHandler, error) {
	return buildSuper(sys, mod, entry, opts)
}

// buildSuper constructs the super-handler for one plan entry from the
// system's current bindings.
func buildSuper(sys *event.System, mod *hirrt.Module, entry PlanEntry, opts Options) (*event.SuperHandler, error) {
	sh := &event.SuperHandler{Entry: entry.Event, Partitioned: opts.Partitioned}
	merged := make(map[string]*hir.Function, len(entry.Chain)) // event name -> merged body
	allIR := true

	for i, ev := range entry.Chain {
		name := sys.EventName(ev)
		seg := event.Segment{Event: ev, EventName: name, Version: sys.Version(ev), AsyncEntry: entry.asyncAt(i)}
		handlers := sys.Handlers(ev)
		if len(handlers) == 0 {
			return nil, fmt.Errorf("event %s has no handlers", name)
		}
		var parts []handlerPart
		segIR := true
		for _, h := range handlers {
			seg.Steps = append(seg.Steps, event.Step{
				Event: ev, EventName: name, Handler: h.Name, Fn: h.Fn, BindArgs: h.BindArgs,
			})
			if body, ok := h.IR.(*hir.Function); ok {
				parts = append(parts, handlerPart{name: h.Name, body: body, bindArgs: h.BindArgs})
			} else {
				segIR = false
			}
		}
		if segIR && opts.FuseHIR && mod != nil {
			body := mergeBodies("super_"+name, parts)
			merged[name] = body
			seg.FusedName = body.Name
		} else {
			allIR = false
		}
		sh.Segments = append(sh.Segments, seg)
	}

	if opts.FuseHIR && mod != nil {
		info := mod.OptInfo()
		if opts.FullFusion && allIR && !entry.hasAsync() {
			// Static subsumption: splice every covered synchronous raise
			// into the entry body, then optimize the whole chain as one
			// function. Interior segments keep their steps only as the
			// per-event fallback path.
			entryName := sh.Segments[0].EventName
			body := merged[entryName].Clone()
			sub := make(map[string]*hir.Function, len(merged))
			for n, f := range merged {
				if n != entryName {
					sub[n] = f
				}
			}
			spliceRaises(body, sub, 0)
			body = opt.Optimize(body, info, opts.HIR)
			if err := body.Validate(); err != nil {
				return nil, fmt.Errorf("fused chain body invalid: %w", err)
			}
			fused, err := mod.HandlerFunc(body)
			if err != nil {
				return nil, fmt.Errorf("compile fused body %s: %w", body.Name, err)
			}
			sh.Segments[0].Fused = fused
			sh.Segments[0].FusedName = body.Name
			sh.Segments[0].FusedIR = body
			return sh, nil
		}
		// Per-segment fusion: each covered event gets its own optimized
		// merged body; nested raises route through the chain dispatcher,
		// preserving per-event guards.
		for i := range sh.Segments {
			name := sh.Segments[i].EventName
			body, ok := merged[name]
			if !ok {
				continue
			}
			body = opt.Optimize(body, info, opts.HIR)
			if err := body.Validate(); err != nil {
				return nil, fmt.Errorf("fused body for %s invalid: %w", name, err)
			}
			fused, err := mod.HandlerFunc(body)
			if err != nil {
				return nil, fmt.Errorf("compile fused body %s: %w", body.Name, err)
			}
			sh.Segments[i].Fused = fused
			sh.Segments[i].FusedName = body.Name
			sh.Segments[i].FusedIR = body
		}
	}
	return sh, nil
}
