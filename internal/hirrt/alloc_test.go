package hirrt

import (
	"testing"

	"eventopt/internal/event"
	"eventopt/internal/hir"
)

// TestAllocRegression is the allocation gate of the compiled HIR tier: a
// steady-state activation of a compiled handler allocates nothing, at
// the top level and reentered at a deeper nesting depth. Intrinsic
// arguments travel in the frame's argument window, raise arguments in
// its raise window, and state cells are bound at compile time, so a
// regression here means some call site started building its argument
// list or register file per activation again.
func TestAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}

	// Raised values stay below 256 so that FromValue's boxing hits the
	// runtime's static small-integer table: boxing is the caller-side
	// conversion cost, not the compiled tier's.
	mix3 := func(a []hir.Value) hir.Value { return hir.IntVal((a[0].Int() + a[1].Int() + a[2].Int()) & 127) }

	t.Run("CompiledHandler", func(t *testing.T) {
		sys := event.New()
		mod := NewModule(sys)
		ev := sys.Define("E")
		sink := sys.Define("Sink")
		seen := int64(0)
		sys.Bind(sink, "native", func(ctx *event.Ctx) { seen += ctx.Args.Int64("p") })
		mod.RegisterIntrinsic("mix3", true, mix3)

		b := hir.NewBuilder("h", 0)
		n := b.Arg("n")
		k := b.BindArg("k")
		c := b.Load("c")
		m := b.Call("mix3", n, k, c)
		b.Store("c", m)
		b.Raise("Sink", []string{"p", "q"}, []hir.Reg{m, n})
		b.Return(hir.NoReg)
		mod.Bind(ev, "h", b.Fn(), event.WithBindArgs(event.A("k", 5)))

		args := []event.Arg{event.A("n", 7)}
		_ = sys.Raise(ev, args...)
		if got := testing.AllocsPerRun(200, func() {
			_ = sys.Raise(ev, args...)
		}); got != 0 {
			t.Errorf("compiled handler activation: %.1f allocs/op, want 0", got)
		}
		if seen == 0 || mod.Globals.Get("c").Kind != hir.KInt {
			t.Fatal("handler never ran; the gate measured the wrong path")
		}
	})

	t.Run("ReentrantDepth", func(t *testing.T) {
		sys := event.New()
		mod := NewModule(sys)
		ev := sys.Define("R")
		mod.RegisterIntrinsic("mix3", true, mix3)

		// R(d): c = mix3(d, c, 1); if d > 0 { raise R(d-1) }
		b := hir.NewBuilder("r", 0)
		d := b.Arg("d")
		one := b.Int(1)
		b.Store("c", b.Call("mix3", d, b.Load("c"), one))
		more := b.Bin(hir.Gt, d, b.Int(0))
		rec := b.NewBlock()
		done := b.NewBlock()
		b.SetBlock(hir.Entry)
		b.Branch(more, rec, done)
		b.SetBlock(rec)
		b.Raise("R", []string{"d"}, []hir.Reg{b.Bin(hir.Sub, d, one)})
		b.Jump(done)
		b.SetBlock(done)
		b.Return(hir.NoReg)
		mod.Bind(ev, "r", b.Fn())

		args := []event.Arg{event.A("d", 3)}
		_ = sys.Raise(ev, args...) // first reentry allocates the deeper frames
		if got := testing.AllocsPerRun(200, func() {
			_ = sys.Raise(ev, args...)
		}); got != 0 {
			t.Errorf("reentrant compiled activation: %.1f allocs/op, want 0", got)
		}
	})
}
