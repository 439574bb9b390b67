package hirrt

import (
	"errors"
	"strings"
	"testing"

	"eventopt/internal/event"
	"eventopt/internal/hir"
)

func TestToValueFromValueRoundTrip(t *testing.T) {
	cases := []any{7, int64(9), true, false, "s", []byte{1, 2}}
	for _, in := range cases {
		v := ToValue(in)
		out := FromValue(v)
		switch x := in.(type) {
		case int:
			if out.(int64) != int64(x) {
				t.Errorf("int %v -> %v", in, out)
			}
		case int64:
			if out.(int64) != x {
				t.Errorf("int64 %v -> %v", in, out)
			}
		case bool:
			if out.(bool) != x {
				t.Errorf("bool %v -> %v", in, out)
			}
		case string:
			if out.(string) != x {
				t.Errorf("string %v -> %v", in, out)
			}
		case []byte:
			if string(out.([]byte)) != string(x) {
				t.Errorf("bytes %v -> %v", in, out)
			}
		}
	}
	if !ToValue(nil).Equal(hir.None) || !ToValue(struct{}{}).Equal(hir.None) {
		t.Error("nil/unsupported should map to None")
	}
	if FromValue(hir.None) != nil {
		t.Error("None should map to nil")
	}
	if !ToValue(hir.IntVal(5)).Equal(hir.IntVal(5)) {
		t.Error("hir.Value should pass through")
	}
}

func TestModuleBindAndRun(t *testing.T) {
	sys := event.New()
	mod := NewModule(sys)
	ev := sys.Define("E")

	b := hir.NewBuilder("h", 0)
	n := b.Arg("n")
	k := b.BindArg("k")
	sum := b.Bin(hir.Add, n, k)
	b.Store("sum", sum)
	b.Return(hir.NoReg)
	mod.Bind(ev, "h", b.Fn(), event.WithBindArgs(event.A("k", 5)))

	sys.Raise(ev, event.A("n", 37))
	if got := mod.Globals.Get("sum").Int(); got != 42 {
		t.Errorf("sum = %d", got)
	}
	// The binding carries the IR body for the optimizer.
	hs := sys.Handlers(ev)
	if len(hs) != 1 {
		t.Fatal("binding missing")
	}
	if _, ok := hs[0].IR.(*hir.Function); !ok {
		t.Error("IR body not recorded on binding")
	}
}

func TestModuleRaiseModes(t *testing.T) {
	vc := event.NewVirtualClock()
	sys := event.New(event.WithClock(vc))
	mod := NewModule(sys)
	a := sys.Define("A")
	bEv := sys.Define("B")
	var modes []event.Mode
	sys.Bind(bEv, "bh", func(c *event.Ctx) { modes = append(modes, c.Mode) })

	b := hir.NewBuilder("ah", 0)
	x := b.Int(1)
	b.Raise("B", []string{"v"}, []hir.Reg{x})
	b.RaiseAsync("B", nil, nil)
	b.RaiseAfter(100, "B", nil, nil)
	b.Raise("nonexistent", nil, nil) // ignored
	b.Return(hir.NoReg)
	mod.Bind(a, "ah", b.Fn())

	sys.Raise(a)
	sys.Drain()
	if len(modes) != 3 || modes[0] != event.Sync || modes[1] != event.Async || modes[2] != event.Delayed {
		t.Errorf("modes = %v", modes)
	}
}

func TestModuleIntrinsicsAndFuncs(t *testing.T) {
	sys := event.New()
	mod := NewModule(sys)
	mod.RegisterIntrinsic("twice", true, func(a []hir.Value) hir.Value {
		return hir.IntVal(a[0].Int() * 2)
	})
	hb := hir.NewBuilder("helper", 1)
	r := hb.Bin(hir.Add, hb.Param(0), hb.Param(0))
	hb.Return(r)
	mod.RegisterFunc(hb.Fn())

	ev := sys.Define("E")
	b := hir.NewBuilder("h", 0)
	x := b.Int(10)
	d := b.Call("twice", x)
	e := b.CallFn("helper", d)
	b.Store("out", e)
	b.Return(hir.NoReg)
	mod.Bind(ev, "h", b.Fn())

	sys.Raise(ev)
	if got := mod.Globals.Get("out").Int(); got != 40 {
		t.Errorf("out = %d", got)
	}

	info := mod.OptInfo()
	if _, ok := info.Intrinsics["twice"]; !ok {
		t.Error("OptInfo missing intrinsic")
	}
	if _, ok := info.Funcs["helper"]; !ok {
		t.Error("OptInfo missing func")
	}
}

func TestModuleHaltIntegration(t *testing.T) {
	sys := event.New()
	mod := NewModule(sys)
	ev := sys.Define("E")
	b1 := hir.NewBuilder("h1", 0)
	b1.Halt()
	b1.Return(hir.NoReg)
	mod.Bind(ev, "h1", b1.Fn(), event.WithOrder(1))
	ran := false
	sys.Bind(ev, "h2", func(*event.Ctx) { ran = true }, event.WithOrder(2))
	sys.Raise(ev)
	if ran {
		t.Error("halt from HIR handler did not stop the event")
	}
}

func TestHandlerFuncPanicsOnBadBody(t *testing.T) {
	sys := event.New()
	mod := NewModule(sys)
	ev := sys.Define("E")
	b := hir.NewBuilder("bad", 0)
	x := b.Int(1)
	y := b.Int(0)
	z := b.Bin(hir.Div, x, y)
	b.Store("out", z)
	b.Return(hir.NoReg)
	mod.Bind(ev, "bad", b.Fn())
	defer func() {
		if recover() == nil {
			t.Error("division by zero in handler did not panic")
		}
	}()
	sys.Raise(ev)
}

func TestModuleEnvAdhoc(t *testing.T) {
	sys := event.New()
	mod := NewModule(sys)
	ev := sys.Define("E")
	target := sys.Define("T")
	hit := 0
	sys.Bind(target, "th", func(*event.Ctx) { hit++ })

	// Build a body executed manually through Env inside a native handler.
	b := hir.NewBuilder("adhoc", 0)
	n := b.Arg("n")
	b.Store("adhoc_n", n)
	b.Raise("T", nil, nil)
	b.Return(hir.NoReg)
	body := b.Fn()

	sys.Bind(ev, "native", func(ctx *event.Ctx) {
		if _, err := hir.Exec(body, mod.Env(ctx)); err != nil {
			t.Errorf("exec: %v", err)
		}
	})
	sys.Raise(ev, event.A("n", 29))
	if mod.Globals.Get("adhoc_n").Int() != 29 {
		t.Errorf("adhoc_n = %v", mod.Globals.Get("adhoc_n"))
	}
	if hit != 1 {
		t.Errorf("nested raise hit = %d", hit)
	}
}

func TestCompiledHandlerFunc(t *testing.T) {
	sys := event.New()
	mod := NewModule(sys)
	ev := sys.Define("E")
	mod.RegisterIntrinsic("bump", false, func(a []hir.Value) hir.Value {
		return hir.IntVal(a[0].Int() + 1)
	})
	b := hir.NewBuilder("h", 0)
	n := b.Arg("n")
	v := b.Call("bump", n)
	b.Store("out", v)
	b.Return(hir.NoReg)
	fn, err := mod.HandlerFunc(b.Fn())
	if err != nil {
		t.Fatal(err)
	}
	sys.Bind(ev, "h", fn)
	for i := 0; i < 3; i++ { // exercise the frame reuse path
		sys.Raise(ev, event.A("n", 10+i))
	}
	if got := mod.Globals.Get("out").Int(); got != 13 {
		t.Errorf("out = %d", got)
	}

	// Compilation fails fast on a missing helper function.
	badFn := hir.NewBuilder("badfn", 0)
	badFn.CallFn("nowhere")
	badFn.Return(hir.NoReg)
	if _, err := mod.HandlerFunc(badFn.Fn()); !errors.Is(err, hir.ErrNoFunc) {
		t.Errorf("missing helper: err = %v", err)
	}
}

// TestCompiledIntrinsicsLateBind pins the slot contract: a compiled body
// sees intrinsics registered after it was compiled and wrappers
// installed after it ran, and a call to an intrinsic that is still
// missing panics with ErrNoIntrinsic, as the interpreter fails.
func TestCompiledIntrinsicsLateBind(t *testing.T) {
	sys := event.New()
	mod := NewModule(sys)
	ev := sys.Define("E")
	b := hir.NewBuilder("h", 0)
	n := b.Arg("n")
	b.Store("out", b.Call("later", n))
	b.Return(hir.NoReg)
	mod.Bind(ev, "h", b.Fn())

	func() {
		defer func() {
			r := recover()
			if s, _ := r.(string); !strings.Contains(s, hir.ErrNoIntrinsic.Error()) {
				t.Errorf("missing intrinsic: recovered %v, want an ErrNoIntrinsic panic", r)
			}
		}()
		sys.Raise(ev, event.A("n", 1))
	}()

	mod.RegisterIntrinsic("later", true, func(a []hir.Value) hir.Value { return hir.IntVal(a[0].Int() * 10) })
	sys.Raise(ev, event.A("n", 2))
	if got := mod.Globals.Get("out").Int(); got != 20 {
		t.Errorf("after registering: out = %d, want 20", got)
	}
	mod.WrapIntrinsic("later", func(in hir.Intrinsic) hir.Intrinsic {
		return hir.Intrinsic{Pure: in.Pure, Fn: func(a []hir.Value) hir.Value { return hir.IntVal(in.Fn(a).Int() + 1) }}
	})
	sys.Raise(ev, event.A("n", 3))
	if got := mod.Globals.Get("out").Int(); got != 31 {
		t.Errorf("after wrapping: out = %d, want 31", got)
	}
}

func TestCompiledHandlerReentrancy(t *testing.T) {
	sys := event.New()
	mod := NewModule(sys)
	ev := sys.Define("E")
	b := hir.NewBuilder("h", 0)
	d := b.Arg("depth")
	z := b.Int(0)
	again := b.Bin(hir.Gt, d, z)
	rec := b.NewBlock()
	done := b.NewBlock()
	b.SetBlock(hir.Entry)
	b.Branch(again, rec, done)
	b.SetBlock(rec)
	one := b.Int(1)
	next := b.Bin(hir.Sub, d, one)
	cnt := b.Load("count")
	b.Store("count", b.Bin(hir.Add, cnt, one))
	b.Raise("E", []string{"depth"}, []hir.Reg{next})
	b.Jump(done)
	b.SetBlock(done)
	b.Return(hir.NoReg)
	fn, err := mod.HandlerFunc(b.Fn())
	if err != nil {
		t.Fatal(err)
	}
	sys.Bind(ev, "h", fn)
	sys.Raise(ev, event.A("depth", 5)) // the handler re-enters itself
	if got := mod.Globals.Get("count").Int(); got != 5 {
		t.Errorf("count = %d", got)
	}
}

// TestCompiledIntrinsicReentrancy raises, from inside an intrinsic, an
// event handled by the same compiled body. The nested activation runs in
// a deeper frame, so the outer call's argument window must come back
// intact, and the outer body must finish with its own registers.
func TestCompiledIntrinsicReentrancy(t *testing.T) {
	sys := event.New()
	mod := NewModule(sys)
	ev := sys.Define("E")
	var cur *event.Ctx // the activation the intrinsic raises from
	sys.Bind(ev, "note", func(ctx *event.Ctx) { cur = ctx }, event.WithOrder(0))

	mod.RegisterIntrinsic("reenter", false, func(a []hir.Value) hir.Value {
		want := append([]hir.Value(nil), a...)
		if d := a[0].Int(); d > 0 {
			cur.Raise(ev, event.A("d", d-1))
		}
		for i := range a {
			if !a[i].Equal(want[i]) {
				t.Errorf("depth %d: argument %d = %v after the nested activation, want %v", want[0].Int(), i, a[i], want[i])
			}
		}
		return hir.IntVal(a[0].Int() + a[1].Int() + a[2].Int())
	})
	// E(d): sum += reenter(d, 10*d, d+100) + d
	b := hir.NewBuilder("h", 0)
	d := b.Arg("d")
	r := b.Call("reenter", d, b.Bin(hir.Mul, d, b.Int(10)), b.Bin(hir.Add, d, b.Int(100)))
	b.Store("sum", b.Bin(hir.Add, b.Load("sum"), b.Bin(hir.Add, r, d)))
	b.Return(hir.NoReg)
	mod.Bind(ev, "h", b.Fn(), event.WithOrder(1))

	sys.Raise(ev, event.A("d", 3))
	// Each depth d in 0..3 adds d + 10d + d+100 + d = 13d + 100.
	if got, want := mod.Globals.Get("sum").Int(), int64(13*(0+1+2+3)+4*100); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}
