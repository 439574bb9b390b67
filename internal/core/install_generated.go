package core

import (
	"fmt"

	"eventopt/internal/event"
	"eventopt/internal/hirrt"
)

// GeneratedSuper describes one ahead-of-time compiled super-handler: a
// plan entry whose fused segment bodies were emitted as real Go source
// by evgen (internal/codegen) and compiled into the binary. The
// description carries everything InstallGenerated needs to rebuild the
// runtime SuperHandler against a live system: the covered chain, which
// handlers each segment's code was generated from, and a factory per
// fused segment producing the direct-dispatch closure.
type GeneratedSuper struct {
	Entry       string
	Chain       []string
	Async       []bool
	Partitioned bool
	Segments    []GeneratedSegment
}

// GeneratedSegment is one covered event of a GeneratedSuper. Handlers
// lists the handler names (in execution order) the generated code was
// built from; install fails if the live bindings differ, because the
// emitted code bakes in those handlers' bodies. Make is nil for
// segments that had no fused body (they run the generic per-step
// fallback, exactly like the HIR tier's interior segments under
// FullFusion).
type GeneratedSegment struct {
	Event     string
	FusedName string
	Handlers  []string
	Make      func(m *hirrt.Module) (event.HandlerFunc, error)
}

// InstallGenerated installs evgen-generated super-handlers on sys. The
// generated closures plug in as Segment.Fused inside ordinary
// SuperHandlers, so every existing runtime mechanism applies unchanged:
// binding-version guards recorded here at install time, CAS fast-path
// publication, subsumption of covered nested raises, tracing (the
// fused body reports the same FusedName as the HIR tier), and
// auto-deopt to generic dispatch when the generated code faults.
//
// Generated code is only valid for the exact bindings it was emitted
// from: the per-segment handler-name check below rejects a drifted
// system at install time, and the version guards catch rebinds that
// happen after install (the fast path then falls back to generic
// dispatch like any other stale super-handler). Generated factories
// resolve intrinsics once at install, so unlike compiled HIR bodies they
// do not observe later WrapIntrinsic calls.
func InstallGenerated(sys *event.System, mod *hirrt.Module, supers []GeneratedSuper) (*Installed, error) {
	if mod == nil {
		return nil, fmt.Errorf("core: InstallGenerated: nil module")
	}
	ins := &Installed{sys: sys}
	for _, gs := range supers {
		sh, err := buildGenerated(sys, mod, gs)
		if err != nil {
			return nil, fmt.Errorf("core: generated %s: %w", gs.Entry, err)
		}
		sh.OnDeopt = ins.noteDeopt
		if err := sys.InstallFastPath(sh); err != nil {
			return nil, fmt.Errorf("core: install generated %s: %w", gs.Entry, err)
		}
		ins.Supers = append(ins.Supers, sh)
	}
	return ins, nil
}

// buildGenerated rebuilds the runtime SuperHandler for one generated
// description against the system's current bindings.
func buildGenerated(sys *event.System, mod *hirrt.Module, gs GeneratedSuper) (*event.SuperHandler, error) {
	entry := sys.Lookup(gs.Entry)
	if entry == event.NoID {
		return nil, fmt.Errorf("unknown entry event %q", gs.Entry)
	}
	if len(gs.Segments) == 0 || gs.Segments[0].Event != gs.Entry {
		return nil, fmt.Errorf("first segment must be the entry event")
	}
	sh := &event.SuperHandler{Entry: entry, Partitioned: gs.Partitioned, Provenance: "generated"}
	for i, gseg := range gs.Segments {
		ev := sys.Lookup(gseg.Event)
		if ev == event.NoID {
			return nil, fmt.Errorf("unknown covered event %q", gseg.Event)
		}
		seg := event.Segment{
			Event:     ev,
			EventName: gseg.Event,
			Version:   sys.Version(ev),
			FusedName: gseg.FusedName,
		}
		if i < len(gs.Async) {
			seg.AsyncEntry = gs.Async[i]
		}
		handlers := sys.Handlers(ev)
		if len(handlers) != len(gseg.Handlers) {
			return nil, fmt.Errorf("event %s has %d handlers, generated code expects %d",
				gseg.Event, len(handlers), len(gseg.Handlers))
		}
		for j, h := range handlers {
			if h.Name != gseg.Handlers[j] {
				return nil, fmt.Errorf("event %s handler %d is %q, generated code expects %q",
					gseg.Event, j, h.Name, gseg.Handlers[j])
			}
			seg.Steps = append(seg.Steps, event.Step{
				Event: ev, EventName: gseg.Event, Handler: h.Name, Fn: h.Fn, BindArgs: h.BindArgs,
			})
		}
		if gseg.Make != nil {
			fused, err := gseg.Make(mod)
			if err != nil {
				return nil, fmt.Errorf("segment %s: %w", gseg.Event, err)
			}
			seg.Fused = fused
		}
		sh.Segments = append(sh.Segments, seg)
	}
	return sh, nil
}
