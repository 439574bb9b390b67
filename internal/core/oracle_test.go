package core_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"eventopt/internal/codegen/genplan"
	"eventopt/internal/core"
	"eventopt/internal/ctp"
	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hirrt"
	"eventopt/internal/xwin"
)

// oracleBody is one HIR body under differential test, with the binding
// arguments it was bound with (nil for fused bodies, whose binding
// arguments are folded in as constants).
type oracleBody struct {
	name string
	body *hir.Function
	bind *event.Args
}

// oracleModule is one module's share of the differential test: its
// bodies, its intrinsics and helper functions, the state the bodies start
// from, and argument records captured from live activations per event
// name.
type oracleModule struct {
	name     string
	bodies   []oracleBody
	info     *hir.Env
	state    map[string]hir.Value
	captured map[string][][]event.Arg
	events   map[*hir.Function]string
}

// boundBodies lists every HIR body bound on sys, in event then handler
// order.
func boundBodies(sys *event.System) ([]oracleBody, map[*hir.Function]string) {
	var out []oracleBody
	evOf := make(map[*hir.Function]string)
	for _, ev := range sys.EventIDs() {
		for _, h := range sys.Handlers(ev) {
			if body, ok := h.IR.(*hir.Function); ok {
				out = append(out, oracleBody{name: sys.EventName(ev) + "/" + h.Name, body: body, bind: h.BindArgs})
				evOf[body] = sys.EventName(ev)
			}
		}
	}
	return out, evOf
}

// captureArgs binds a first-running recorder on every event of sys,
// runs drive, and returns up to four argument records per event name.
func captureArgs(sys *event.System, drive func()) map[string][][]event.Arg {
	out := make(map[string][][]event.Arg)
	var bs []event.Binding
	for _, ev := range sys.EventIDs() {
		name := sys.EventName(ev)
		bs = append(bs, sys.Bind(ev, "oracle-capture", func(ctx *event.Ctx) {
			if len(out[name]) < 4 {
				out[name] = append(out[name], ctx.Args.Pairs())
			}
		}, event.WithOrder(-1<<30)))
	}
	drive()
	for _, b := range bs {
		if err := sys.Unbind(b); err != nil {
			panic(err)
		}
	}
	return out
}

// fusedBodies builds, without installing, every plan entry's
// super-handler and returns the fused bodies.
func fusedBodies(t *testing.T, sys *event.System, mod *hirrt.Module, plan *core.Plan) []oracleBody {
	t.Helper()
	var out []oracleBody
	for _, entry := range plan.Entries {
		sh, err := core.BuildSuper(sys, mod, entry, plan.Options())
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range sh.Segments {
			if body, ok := seg.FusedIR.(*hir.Function); ok {
				out = append(out, oracleBody{name: "fused/" + body.Name, body: body})
			}
		}
	}
	return out
}

func newOracleModule(name string, sys *event.System, mod *hirrt.Module, captured map[string][][]event.Arg) *oracleModule {
	bodies, evOf := boundBodies(sys)
	info := mod.OptInfo()
	return &oracleModule{
		name: name, bodies: bodies, captured: captured, events: evOf,
		info:  &hir.Env{Intrinsics: info.Intrinsics, Funcs: info.Funcs},
		state: mod.Globals.Snapshot(),
	}
}

// oracleModules builds the paper applications (ctp, seccomm, video,
// xwin) and the random systems of random_test.go.
func oracleModules(t *testing.T) []*oracleModule {
	t.Helper()
	var mods []*oracleModule

	snd, err := ctp.New(ctp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := captureArgs(snd.Sys, func() {
		snd.Start()
		for i := 0; i < 6; i++ {
			snd.SendFrame(make([]byte, 700+i), i%2 == 0)
			snd.Sys.DrainFor(snd.Sys.Now() + 5e7)
		}
	})
	mods = append(mods, newOracleModule("ctp", snd.Sys, snd.Mod, seen))

	e, err := genplan.SecCommEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	seen = captureArgs(e.Sys, func() {
		var pkt []byte
		e.OnSend(func(p []byte) { pkt = append([]byte(nil), p...) })
		e.Push([]byte("differential"))
		e.HandlePacket(pkt)
		e.OnSend(nil)
	})
	sec := newOracleModule("seccomm", e.Sys, e.Mod, seen)
	plan, err := genplan.SecCommPlan(e)
	if err != nil {
		t.Fatal(err)
	}
	sec.bodies = append(sec.bodies, fusedBodies(t, e.Sys, e.Mod, plan)...)
	mods = append(mods, sec)

	p, err := genplan.VideoPlayer()
	if err != nil {
		t.Fatal(err)
	}
	vplan, err := genplan.VideoPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	seen = captureArgs(p.Sender.Sys, func() { p.Run(8) })
	vid := newOracleModule("video", p.Sender.Sys, p.Sender.Mod, seen)
	vid.bodies = append(vid.bodies, fusedBodies(t, p.Sender.Sys, p.Sender.Mod, vplan)...)
	mods = append(mods, vid)

	x := xwin.NewXTerm()
	seen = captureArgs(x.Client.Sys, func() {
		x.Popup(3, 4)
		x.Type(38)
		x.Client.Flush()
	})
	mods = append(mods, newOracleModule("xterm", x.Client.Sys, x.Client.Mod, seen))
	g := xwin.NewGvim()
	seen = captureArgs(g.Client.Sys, func() {
		g.Scroll(120)
		g.Scroll(7)
		g.Client.Flush()
	})
	mods = append(mods, newOracleModule("gvim", g.Client.Sys, g.Client.Mod, seen))

	for seed := int64(0); seed < 40; seed++ {
		sys, mod, ids, _ := core.GenHIRSystem(seed, 3+int(seed%4), false)
		seen := captureArgs(sys, func() {
			for i, ev := range ids {
				sys.Raise(ev, event.A("n", i*7-5))
			}
		})
		mods = append(mods, newOracleModule(fmt.Sprintf("random/%d", seed), sys, mod, seen))
	}
	return mods
}

// synthArg returns the deterministic synthetic value of argument name in
// variant v: ints, byte strings, bools, strings, or absent.
func synthArg(name string, v int) (hir.Value, bool) {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ int64(v)*7919))
	switch rng.Intn(5) {
	case 0:
		return hir.IntVal(int64(rng.Intn(600) - 50)), true
	case 1:
		b := make([]byte, 8*rng.Intn(5)+rng.Intn(2))
		rng.Read(b)
		return hir.BytesVal(b), true
	case 2:
		return hir.BoolVal(rng.Intn(2) == 0), true
	case 3:
		return hir.StrVal(fmt.Sprintf("s%d", rng.Intn(100))), true
	default:
		return hir.None, false
	}
}

// oracleRun is the observable outcome of one execution.
type oracleRun struct {
	ret   hir.Value
	err   bool
	state map[string]hir.Value
	log   []string
}

func show(v hir.Value) string {
	if v.Kind == hir.KBytes {
		return fmt.Sprintf("%x", v.B)
	}
	return v.String()
}

// runOracle executes b once under a fresh copy of the module's state.
// Pure intrinsics run for real; impure ones (the applications' I/O and
// counters) are logged and return None, so both executions see the same
// host. Every intrinsic call, raise and halt is logged in order.
func runOracle(m *oracleModule, b oracleBody, args []event.Arg, variant int, compiled bool) oracleRun {
	var r oracleRun
	st := hir.NewState()
	for k, v := range m.state {
		if v.Kind == hir.KBytes {
			v.B = append([]byte(nil), v.B...)
		}
		st.Set(k, v)
	}
	intr := make(map[string]hir.Intrinsic, len(m.info.Intrinsics))
	for name, in := range m.info.Intrinsics {
		name, in := name, in
		intr[name] = hir.Intrinsic{Pure: in.Pure, Fn: func(a []hir.Value) (out hir.Value) {
			line := name + "("
			for _, v := range a {
				line += show(v) + ","
			}
			defer func() {
				if p := recover(); p != nil {
					line += ") panicked"
					out = hir.None
				}
				r.log = append(r.log, line)
			}()
			if !in.Pure {
				return hir.None
			}
			// Intrinsics see a private copy: one that wrote its byte
			// arguments in place must not leak into the other execution.
			cp := append([]hir.Value(nil), a...)
			for i := range cp {
				if cp[i].Kind == hir.KBytes {
					cp[i].B = append([]byte(nil), cp[i].B...)
				}
			}
			out = in.Fn(cp)
			line += ")=" + show(out)
			return out
		}}
	}
	env := &hir.Env{
		Globals:    st,
		Intrinsics: intr,
		// Compiled call sites late-bind as they do under hirrt; the
		// interpreter reads Intrinsics.
		IntrinsicSlot: func(name string) *hir.IntrinsicSlot { return &hir.IntrinsicSlot{Fn: intr[name].Fn} },
		Funcs:         m.info.Funcs,
		Args: func(name string) (hir.Value, bool) {
			if args != nil {
				for _, a := range args {
					if a.Name == name {
						return hirrt.ToValue(a.Val), true
					}
				}
				return hir.None, false
			}
			return synthArg(name, variant)
		},
		BindArgs: func(name string) (hir.Value, bool) {
			v, ok := b.bind.Lookup(name)
			if !ok {
				return hir.None, false
			}
			return hirrt.ToValue(v), true
		},
		Raise: func(name string, async bool, delay int64, nv []hir.NamedValue) {
			line := fmt.Sprintf("raise %s async=%v delay=%d", name, async, delay)
			for _, a := range nv {
				line += " " + a.Name + "=" + show(a.Val)
			}
			r.log = append(r.log, line)
		},
		Halt: func() { r.log = append(r.log, "halt") },
	}
	var err error
	if compiled {
		var c *hir.Compiled
		if c, err = hir.Compile(b.body, env); err == nil {
			r.ret, err = c.Exec()
		}
	} else {
		r.ret, err = hir.Exec(b.body, env)
	}
	r.err = err != nil
	r.state = st.Snapshot()
	return r
}

// TestCompiledMatchesInterpreter is the differential test of the
// runtime's only HIR executor against the reference interpreter: for
// every HIR body the ctp, seccomm, video and xwin modules bind (plus the
// fused bodies of the seccomm and video plans, and the random bodies of
// random_test.go), compiled execution equals hir.Exec on return value,
// error, final state snapshot, and the ordered log of intrinsic calls,
// raises and halts. Each body runs with the argument records captured
// from live activations of its event and with synthetic argument
// variants of every kind.
func TestCompiledMatchesInterpreter(t *testing.T) {
	perModule := map[string]int{}
	for _, m := range oracleModules(t) {
		for _, b := range m.bodies {
			var inputs [][]event.Arg
			inputs = append(inputs, m.captured[m.events[b.body]]...)
			for v := 0; v < 6; v++ {
				inputs = append(inputs, nil) // nil: synthetic arguments, variant = input index
			}
			for i, args := range inputs {
				want := runOracle(m, b, args, i, false)
				got := runOracle(m, b, args, i, true)
				if want.err != got.err || !want.ret.Equal(got.ret) ||
					!reflect.DeepEqual(want.log, got.log) || !sameState(want.state, got.state) {
					t.Fatalf("%s %s input %d: compiled diverges from the interpreter\ninterp:   err=%v ret=%v state=%v\n  log %v\ncompiled: err=%v ret=%v state=%v\n  log %v\n%s",
						m.name, b.name, i, want.err, want.ret, want.state, want.log,
						got.err, got.ret, got.state, got.log, b.body)
				}
			}
			perModule[m.name]++
		}
	}
	for _, n := range []string{"ctp", "seccomm", "video", "xterm", "gvim", "random/0"} {
		if perModule[n] == 0 {
			t.Errorf("module %s contributed no bodies", n)
		}
	}
}

func sameState(a, b map[string]hir.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}
