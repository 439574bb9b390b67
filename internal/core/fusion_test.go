package core

import (
	"testing"

	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hirrt"
	"eventopt/internal/profile"
	"eventopt/internal/trace"
)

// buildHIRPipeline constructs an all-HIR two-event pipeline mirroring the
// paper's SegFromUser/Seg2Net nesting:
//
//	push: h_seq  — seq = seq+1
//	      h_send — raise net(len = arg size + bindarg hdr) synchronously
//	net:  h_count — sent = sent+1; bytes = bytes + arg len
//
// Returns the system, the module, and the push event id. An oracle
// pipeline runs its handlers through the reference interpreter.
func buildHIRPipeline(t *testing.T, oracle bool) (*event.System, *hirrt.Module, event.ID) {
	t.Helper()
	sys := event.New()
	mod := hirrt.NewModule(sys)
	bind := mod.Bind
	if oracle {
		bind = mod.BindInterpreted
	}
	push := sys.Define("push")
	net := sys.Define("net")

	b1 := hir.NewBuilder("h_seq", 0)
	s := b1.Load("seq")
	one := b1.Int(1)
	s2 := b1.Bin(hir.Add, s, one)
	b1.Store("seq", s2)
	b1.Return(hir.NoReg)
	bind(push, "h_seq", b1.Fn(), event.WithOrder(1))

	b2 := hir.NewBuilder("h_send", 0)
	size := b2.Arg("size")
	hdr := b2.BindArg("hdr")
	ln := b2.Bin(hir.Add, size, hdr)
	b2.Raise("net", []string{"len"}, []hir.Reg{ln})
	b2.Return(hir.NoReg)
	bind(push, "h_send", b2.Fn(), event.WithOrder(2),
		event.WithBindArgs(event.A("hdr", 20)))

	b3 := hir.NewBuilder("h_count", 0)
	sent := b3.Load("sent")
	o := b3.Int(1)
	b3.Store("sent", b3.Bin(hir.Add, sent, o))
	bytes := b3.Load("bytes")
	l := b3.Arg("len")
	b3.Store("bytes", b3.Bin(hir.Add, bytes, l))
	b3.Return(hir.NoReg)
	bind(net, "h_count", b3.Fn())

	return sys, mod, push
}

func runPushWorkload(sys *event.System, push event.ID, n int) {
	for i := 0; i < n; i++ {
		sys.Raise(push, event.A("size", 100+i))
	}
}

func profileOf(t *testing.T, sys *event.System, run func()) *profile.Profile {
	t.Helper()
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	sys.SetTracer(rec)
	run()
	sys.SetTracer(nil)
	p, err := profile.Analyze(rec.Entries())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// zeroCells resets every populated cell of a module to integer zero so a
// post-profiling run starts from a known state.
func zeroCells(mod *hirrt.Module) {
	for _, n := range mod.Globals.Names() {
		mod.Globals.Set(n, hir.IntVal(0))
	}
}

func fusionEquivalence(t *testing.T, opts Options) (*event.System, *hirrt.Module) {
	t.Helper()
	// Reference: a fresh system, cells zeroed, 13 pushes.
	sysRef, modRef, pushRef := buildHIRPipeline(t, true)
	runPushWorkload(sysRef, pushRef, 1) // populate cells
	zeroCells(modRef)
	runPushWorkload(sysRef, pushRef, 13)
	want := modRef.Globals.Snapshot()

	// Optimized: profile, apply, zero cells, same 13 pushes.
	sys, mod, push := buildHIRPipeline(t, false)
	prof := profileOf(t, sys, func() { runPushWorkload(sys, push, 40) })
	plan, ins, err := Apply(sys, prof, mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Supers) == 0 {
		t.Fatalf("nothing installed:\n%s", plan.Describe(sys))
	}
	zeroCells(mod)
	sys.Stats().Reset()
	runPushWorkload(sys, push, 13)
	if !mod.Globals.EqualSnapshot(want) {
		t.Errorf("state diverges:\nwant %v\ngot  %v", want, mod.Globals.Snapshot())
	}
	if sys.Stats().FastRuns.Load() != 13 {
		t.Errorf("FastRuns = %d, want 13", sys.Stats().FastRuns.Load())
	}
	return sys, mod
}

func TestPerSegmentFusionEquivalence(t *testing.T) {
	opts := DefaultOptions()
	opts.FullFusion = false
	sys, _ := fusionEquivalence(t, opts)
	// Per-segment fusion dispatches the nested raise dynamically: the
	// nested net activation is still counted.
	if got := sys.Stats().Raises.Load(); got != 26 {
		t.Errorf("Raises = %d, want 26 (13 push + 13 nested net)", got)
	}
	// Verify segments actually fused.
	sh := sys.FastPath(sys.Lookup("push"))
	if sh == nil {
		t.Fatal("no fast path on push")
	}
	fused := 0
	for i := range sh.Segments {
		if sh.Segments[i].Fused != nil {
			fused++
		}
	}
	if fused != len(sh.Segments) {
		t.Errorf("fused segments = %d / %d", fused, len(sh.Segments))
	}
}

func TestFullFusionEquivalenceAndStaticSubsumption(t *testing.T) {
	opts := DefaultOptions()
	opts.FullFusion = true
	opts.Partitioned = false
	sys, _ := fusionEquivalence(t, opts)
	// Full fusion splices the nested raise away: only the 13 entry
	// activations are dispatched at all.
	if got := sys.Stats().Raises.Load(); got != 13 {
		t.Errorf("Raises = %d, want 13 (nested raise spliced)", got)
	}
}

func TestFusionFallsBackAfterRebind(t *testing.T) {
	sys, mod, push := buildHIRPipeline(t, false)
	prof := profileOf(t, sys, func() { runPushWorkload(sys, push, 40) })
	if _, _, err := Apply(sys, prof, mod, DefaultOptions()); err != nil {
		t.Fatal(err)
	}

	// Rebind net with an extra native handler; the fused net segment is
	// now stale and must fall back per segment (partitioned default).
	extra := 0
	net := sys.Lookup("net")
	sys.Bind(net, "h_extra", func(*event.Ctx) { extra++ })

	sys.Stats().Reset()
	runPushWorkload(sys, push, 5)
	if extra != 5 {
		t.Errorf("new handler ran %d times, want 5", extra)
	}
	if sys.Stats().SegFallbacks.Load() != 5 {
		t.Errorf("SegFallbacks = %d, want 5", sys.Stats().SegFallbacks.Load())
	}
	if sys.Stats().FastRuns.Load() != 5 {
		t.Errorf("FastRuns = %d, want 5 (entry still fast)", sys.Stats().FastRuns.Load())
	}
}

func TestMixedIRAndNativePreventsFullFusionButStillWorks(t *testing.T) {
	sys, mod, push := buildHIRPipeline(t, false)
	// Add a native handler to net: its segment cannot fuse.
	native := 0
	sys.Bind(sys.Lookup("net"), "h_native", func(*event.Ctx) { native++ }, event.WithOrder(9))
	prof := profileOf(t, sys, func() { runPushWorkload(sys, push, 40) })
	nativeDuringProfile := native

	opts := DefaultOptions()
	opts.FullFusion = true // must silently degrade: not all handlers have IR
	_, ins, err := Apply(sys, prof, mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Supers) == 0 {
		t.Fatal("nothing installed")
	}
	sys.Stats().Reset()
	runPushWorkload(sys, push, 8)
	if native-nativeDuringProfile != 8 {
		t.Errorf("native handler ran %d times, want 8", native-nativeDuringProfile)
	}
	if sys.Stats().FastRuns.Load() != 8 {
		t.Errorf("FastRuns = %d", sys.Stats().FastRuns.Load())
	}
	// The push segment may fuse; the net segment must not be fused.
	sh := sys.FastPath(push)
	for i := range sh.Segments {
		if sh.Segments[i].EventName == "net" && sh.Segments[i].Fused != nil {
			t.Error("mixed segment was fused")
		}
	}
}

func TestFusedChainMatchesStepSequenceSemantics(t *testing.T) {
	// The same workload under (a) no optimization on the reference
	// interpreter, then compiled under (b) steps-only merge, (c)
	// per-segment fusion, (d) full fusion must leave identical state.
	variants := []struct {
		name string
		opts func() (Options, bool)
	}{
		{"steps-only", func() (Options, bool) { o := DefaultOptions(); o.FuseHIR = false; return o, false }},
		{"per-segment", func() (Options, bool) { return DefaultOptions(), false }},
		{"full-fusion", func() (Options, bool) {
			o := DefaultOptions()
			o.FullFusion = true
			o.Partitioned = false
			return o, false
		}},
	}

	ref, refMod, refPush := buildHIRPipeline(t, true)
	runPushWorkload(ref, refPush, 9)
	want := refMod.Globals.Snapshot()

	for _, v := range variants {
		sys, mod, push := buildHIRPipeline(t, false)
		prof := profileOf(t, sys, func() { runPushWorkload(sys, push, 25) })
		opts, _ := v.opts()
		if _, _, err := Apply(sys, prof, mod, opts); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		// Zero the cells that profiling populated.
		for _, n := range mod.Globals.Names() {
			mod.Globals.Set(n, hir.IntVal(0))
		}
		runPushWorkload(sys, push, 9)
		got := mod.Globals.Snapshot()
		// Compare only cells present in the reference (profiling left the
		// same cells populated, all zeroed before the run).
		for k, wv := range want {
			if gv, ok := got[k]; !ok || !gv.Equal(wv) {
				t.Errorf("%s: cell %s = %v, want %v", v.name, k, gv, wv)
			}
		}
	}
}
