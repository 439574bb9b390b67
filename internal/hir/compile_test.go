package hir

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompileStraightLine(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Int(6)
	y := b.Int(7)
	z := b.Bin(Mul, x, y)
	b.Store("out", z)
	b.Return(z)
	fn := b.Fn()
	st := NewState()
	c, err := Compile(fn, &Env{Globals: st})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "f" || c.NumRegs() != fn.NumRegs {
		t.Errorf("metadata: %s, %d", c.Name(), c.NumRegs())
	}
	got, err := c.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 || st.Get("out").Int() != 42 {
		t.Errorf("result %v, out %v", got, st.Get("out"))
	}
}

func TestCompileBranchesAndLoop(t *testing.T) {
	// Same loop as the interpreter test: sum 1..n via state cells.
	b := NewBuilder("sumdown", 1)
	n := b.Param(0)
	zero := b.Int(0)
	b.Store("sum", zero)
	b.Store("i", n)
	cond := b.NewBlock()
	b.SetBlock(Entry)
	b.Jump(cond)
	b.SetBlock(cond)
	i := b.Load("i")
	z2 := b.Int(0)
	c := b.Bin(Gt, i, z2)
	body := b.NewBlock()
	exit := b.NewBlock()
	b.SetBlock(cond)
	b.Branch(c, body, exit)
	b.SetBlock(body)
	i2 := b.Load("i")
	s := b.Load("sum")
	b.Store("sum", b.Bin(Add, s, i2))
	one := b.Int(1)
	b.Store("i", b.Bin(Sub, i2, one))
	b.Jump(cond)
	b.SetBlock(exit)
	res := b.Load("sum")
	b.Return(res)
	fn := b.Fn()

	comp, err := Compile(fn, &Env{Globals: NewState()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := comp.Exec(IntVal(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 55 {
		t.Errorf("sumdown(10) = %v", got)
	}
}

func TestCompileHaltSemantics(t *testing.T) {
	b := NewBuilder("f", 0)
	one := b.Int(1)
	b.Store("before", one)
	b.Halt()
	b.Store("after", one)
	b.Return(NoReg)
	fn := b.Fn()
	st := NewState()
	halted := false
	comp, err := Compile(fn, &Env{Globals: st, Halt: func() { halted = true }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Exec(); err != nil {
		t.Fatal(err)
	}
	if !halted || st.Get("before").Int() != 1 || !st.Get("after").Equal(None) {
		t.Errorf("halted=%v before=%v after=%v", halted, st.Get("before"), st.Get("after"))
	}
}

func TestCompileHaltPropagatesThroughCallFn(t *testing.T) {
	cb := NewBuilder("inner", 0)
	cb.Halt()
	cb.Return(NoReg)
	inner := cb.Fn()
	b := NewBuilder("outer", 0)
	b.CallFn("inner")
	one := b.Int(1)
	b.Store("after", one)
	b.Return(NoReg)
	outer := b.Fn()
	st := NewState()
	comp, err := Compile(outer, &Env{Globals: st, Funcs: map[string]*Function{"inner": inner}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Exec(); err != nil {
		t.Fatal(err)
	}
	if !st.Get("after").Equal(None) {
		t.Error("halt did not abort the compiled caller")
	}
}

func TestCompileRecursiveCall(t *testing.T) {
	// rec(n): if n > 0 { out += n; rec(n-1) }
	rb := NewBuilder("rec", 1)
	n := rb.Param(0)
	z := rb.Int(0)
	c := rb.Bin(Gt, n, z)
	body := rb.NewBlock()
	done := rb.NewBlock()
	rb.SetBlock(Entry)
	rb.Branch(c, body, done)
	rb.SetBlock(body)
	o := rb.Load("out")
	rb.Store("out", rb.Bin(Add, o, n))
	one := rb.Int(1)
	dec := rb.Bin(Sub, n, one)
	rb.CallFn("rec", dec)
	rb.Jump(done)
	rb.SetBlock(done)
	rb.Return(NoReg)
	rec := rb.Fn()

	st := NewState()
	comp, err := Compile(rec, &Env{Globals: st, Funcs: map[string]*Function{"rec": rec}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Exec(IntVal(5)); err != nil {
		t.Fatal(err)
	}
	if st.Get("out").Int() != 15 {
		t.Errorf("out = %v", st.Get("out"))
	}
}

func TestCompileErrors(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Int(1)
	b.Call("missing", x)
	b.Return(NoReg)
	if _, err := Compile(b.Fn(), &Env{}); !errors.Is(err, ErrNoIntrinsic) {
		t.Errorf("missing intrinsic: %v", err)
	}

	b2 := NewBuilder("g", 0)
	b2.CallFn("nowhere")
	b2.Return(NoReg)
	if _, err := Compile(b2.Fn(), &Env{}); !errors.Is(err, ErrNoFunc) {
		t.Errorf("missing func: %v", err)
	}

	bad := &Function{Name: "bad"}
	if _, err := Compile(bad, &Env{}); err == nil {
		t.Error("invalid function compiled")
	}
}

func TestCompileStepLimit(t *testing.T) {
	b := NewBuilder("spin", 0)
	b.Jump(Entry)
	comp, err := Compile(b.Fn(), &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Exec(); !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v", err)
	}
}

func TestCompileDivByZeroSurfaces(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Int(1)
	y := b.Int(0)
	z := b.Bin(Div, x, y)
	b.Return(z)
	comp, err := Compile(b.Fn(), &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Exec(); !errors.Is(err, ErrDivByZero) {
		t.Errorf("err = %v", err)
	}
}

// genCompileProgram builds a random function over state, args, raises
// and branches (no loops: termination by construction).
func genCompileProgram(seed int64) *Function {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("rand", 0)
	cells := []string{"c0", "c1"}
	var regs []Reg
	pick := func() Reg { return regs[rng.Intn(len(regs))] }
	regs = append(regs, b.Arg("a0"), b.Arg("a1"), b.BindArg("k"))
	emit := func(k int) {
		for i := 0; i < k; i++ {
			switch rng.Intn(8) {
			case 0:
				regs = append(regs, b.Int(int64(rng.Intn(9)-4)))
			case 1:
				regs = append(regs, b.Load(cells[rng.Intn(2)]))
			case 2:
				ops := []BinOp{Add, Sub, Mul, Xor, And, Or, Lt, Le, Eq, Ne, Shl}
				regs = append(regs, b.Bin(ops[rng.Intn(len(ops))], pick(), pick()))
			case 3:
				us := []UnOp{Neg, Not, BNot, Len}
				regs = append(regs, b.Un(us[rng.Intn(len(us))], pick()))
			case 4:
				b.Store(cells[rng.Intn(2)], pick())
			case 5:
				regs = append(regs, b.Call("mix", pick(), pick()))
			case 6:
				b.Raise("E", []string{"v"}, []Reg{pick()})
			case 7:
				if rng.Intn(2) == 0 {
					b.Halt()
				}
			}
		}
	}
	emit(5 + rng.Intn(8))
	if rng.Intn(2) == 0 {
		c := pick()
		cur := b.Current()
		tB := b.NewBlock()
		eB := b.NewBlock()
		jB := b.NewBlock()
		b.SetBlock(cur)
		b.Branch(c, tB, eB)
		b.SetBlock(tB)
		emit(3)
		b.Jump(jB)
		b.SetBlock(eB)
		emit(3)
		b.Jump(jB)
		b.SetBlock(jB)
		emit(2)
	}
	b.Return(pick())
	return b.Fn()
}

// Property: the closure compiler agrees with the interpreter on return
// value, final state, raise log and halt behavior for random programs.
func TestQuickCompileMatchesInterp(t *testing.T) {
	f := func(seed int64) bool {
		fn := genCompileProgram(seed)

		runWith := func(exec func(env *Env) (Value, error)) (Value, map[string]Value, []string, bool, bool) {
			st := NewState()
			st.Set("c0", IntVal(3))
			var raises []string
			halted := false
			env := &Env{
				Globals: st,
				Args: func(n string) (Value, bool) {
					switch n {
					case "a0":
						return IntVal(7), true
					case "a1":
						return BoolVal(true), true
					}
					return None, false
				},
				BindArgs: func(n string) (Value, bool) { return StrVal("kk"), true },
				Intrinsics: map[string]Intrinsic{
					"mix": {Pure: true, Fn: func(a []Value) Value { return IntVal(a[0].Int()*31 ^ a[1].Int()) }},
				},
				Raise: func(name string, async bool, delay int64, args []NamedValue) {
					raises = append(raises, name+"="+args[0].Val.String())
				},
				Halt: func() { halted = true },
			}
			v, err := exec(env)
			return v, st.Snapshot(), raises, halted, err == nil
		}

		iv, ist, ir, ih, iok := runWith(func(env *Env) (Value, error) { return Exec(fn, env) })
		cv, cst, cr, ch, cok := runWith(func(env *Env) (Value, error) {
			comp, err := Compile(fn, env)
			if err != nil {
				return None, err
			}
			return comp.Exec()
		})

		if iok != cok {
			t.Logf("seed %d: ok mismatch interp=%v compiled=%v", seed, iok, cok)
			return false
		}
		if !iok {
			return true // both failed (e.g. div-by-zero): equivalent
		}
		if !iv.Equal(cv) || ih != ch || len(ir) != len(cr) {
			t.Logf("seed %d: ret %v/%v halt %v/%v raises %v/%v\n%s", seed, iv, cv, ih, ch, ir, cr, fn)
			return false
		}
		for i := range ir {
			if ir[i] != cr[i] {
				return false
			}
		}
		if len(ist) != len(cst) {
			return false
		}
		for k, v := range ist {
			if w, ok := cst[k]; !ok || !v.Equal(w) {
				t.Logf("seed %d: cell %s %v/%v", seed, k, v, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompileCallDepthAndStepBudget(t *testing.T) {
	// loop(): loop() — unbounded recursion hits the call-depth limit on
	// both executors.
	lb := NewBuilder("loop", 0)
	lb.CallFn("loop")
	lb.Return(NoReg)
	loop := lb.Fn()
	env := &Env{Funcs: map[string]*Function{"loop": loop}}
	if _, err := Exec(loop, env); !errors.Is(err, errCallDepth) {
		t.Errorf("interpreter: err = %v, want the call-depth error", err)
	}
	comp, err := Compile(loop, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Exec(); !errors.Is(err, errCallDepth) {
		t.Errorf("compiled: err = %v, want the call-depth error", err)
	}

	// Env.MaxSteps bounds compiled execution as it bounds the interpreter.
	sb := NewBuilder("spin", 0)
	sb.Jump(Entry)
	comp, err = Compile(sb.Fn(), &Env{MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	frame := comp.NewFrame()
	for i := 0; i < 2; i++ { // the budget resets on every Run
		if _, err := comp.Run(frame); !errors.Is(err, ErrStepLimit) {
			t.Errorf("run %d: err = %v, want ErrStepLimit", i, err)
		}
	}
}

func TestCompileIntrinsicSlots(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Int(4)
	b.Return(b.Call("late", x, x, x))
	slot := &IntrinsicSlot{}
	comp, err := Compile(b.Fn(), &Env{IntrinsicSlot: func(string) *IntrinsicSlot { return slot }})
	if err != nil {
		t.Fatalf("a slot-resolving environment must compile unregistered intrinsics: %v", err)
	}
	frame := comp.NewFrame()
	if _, err := comp.Run(frame); !errors.Is(err, ErrNoIntrinsic) {
		t.Errorf("empty slot: err = %v, want ErrNoIntrinsic", err)
	}
	slot.Fn = func(a []Value) Value { return IntVal(a[0].Int() + a[1].Int() + a[2].Int()) }
	if got, err := comp.Run(frame); err != nil || got.Int() != 12 {
		t.Errorf("filled slot: %v, %v; want 12", got, err)
	}
}
