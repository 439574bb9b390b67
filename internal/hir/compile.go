package hir

import (
	"errors"
	"fmt"
)

// Compiled is a function lowered to threaded closures: each instruction
// becomes one Go closure with its operands, state cells and intrinsic
// targets resolved at compile time, so execution dispatches through
// direct calls instead of the interpreter's per-instruction switch. The
// environment is bound at compile time; hirrt's environments read the
// current activation through an indirection cell, so one Compiled value
// serves every activation of its handler.
//
// A Compiled value holds no execution state: registers, argument windows
// and the step budget live in a Frame, so a caller that keeps one Frame
// per live nesting depth executes without allocating.
type Compiled struct {
	name      string
	numRegs   int
	window    int // argument window after the registers: the largest OpCall/OpCallFn arity
	raiseWin  int // raise window: the largest OpRaise arity
	callSites int // OpCallFn sites, one callee frame each
	maxSteps  int
	blocks    [][]instrFn
	terms     []termFn
}

// Frame is the reusable execution state of one activation of a Compiled
// function: its registers followed by the argument window that OpCall
// and OpCallFn sites pass from, the OpRaise argument window, the step
// budget, and one callee frame per OpCallFn site (created on its first
// call and reused after). A Frame serves one execution at a time; a
// reentrant execution of the same function needs a Frame of its own.
type Frame struct {
	c      *Compiled
	regs   []Value
	raise  []NamedValue
	calls  []*Frame
	steps  int
	budget *int // the root frame's steps, shared by its callee frames
	depth  int
}

type instrFn func(f *Frame) error

// termFn returns the next block, or done with an optional return value.
type termFn func(f *Frame) (next BlockID, ret Value, done bool)

// Name reports the compiled function's name.
func (c *Compiled) Name() string { return c.name }

// NumRegs reports the register file size needed to execute.
func (c *Compiled) NumRegs() int { return c.numRegs }

// Compile lowers fn against env. OpLoad/OpStore bind their state cells
// once (State.CellRef). OpCall sites late-bind through env.IntrinsicSlot
// when the host provides it; otherwise a missing intrinsic is a compile
// error rather than a runtime one. OpCallFn targets are resolved and
// compiled eagerly (each distinct callee once; recursive calls run the
// callee's compiled code in a fresh frame per depth), so a missing
// helper function is a compile error.
func Compile(fn *Function, env *Env) (*Compiled, error) {
	cp := &compiler{env: env, done: make(map[*Function]*Compiled)}
	return cp.compile(fn)
}

// compiler carries the per-Compile state: the environment and the
// functions already lowered (or being lowered, for recursive calls).
type compiler struct {
	env  *Env
	done map[*Function]*Compiled
}

func (cp *compiler) compile(fn *Function) (*Compiled, error) {
	if err := fn.Validate(); err != nil {
		return nil, err
	}
	budget := cp.env.MaxSteps
	if budget <= 0 {
		budget = defaultMaxSteps
	}
	c := &Compiled{name: fn.Name, numRegs: fn.NumRegs, maxSteps: budget, terms: make([]termFn, len(fn.Blocks))}
	cp.done[fn] = c
	c.blocks = make([][]instrFn, len(fn.Blocks))
	for bi := range fn.Blocks {
		blk := &fn.Blocks[bi]
		steps := make([]instrFn, 0, len(blk.Instrs))
		for ii := range blk.Instrs {
			step, err := cp.instr(c, &blk.Instrs[ii])
			if err != nil {
				return nil, fmt.Errorf("hir: compile %s b%d[%d]: %w", fn.Name, bi, ii, err)
			}
			steps = append(steps, step)
		}
		c.blocks[bi] = steps
		c.terms[bi] = compileTerm(blk.Term)
	}
	return c, nil
}

// argWindow reserves an n-value argument window for a call site of c
// and returns its offset in the frame's register slice.
func (c *Compiled) argWindow(n int) int {
	if n > c.window {
		c.window = n
	}
	return c.numRegs
}

func (cp *compiler) instr(c *Compiled, in *Instr) (instrFn, error) {
	env := cp.env
	dst, a, b := in.Dst, in.A, in.B
	sym := in.Sym
	switch in.Op {
	case OpConst:
		v := in.Const
		return func(f *Frame) error { f.regs[dst] = v; return nil }, nil
	case OpMov:
		return func(f *Frame) error { f.regs[dst] = f.regs[a]; return nil }, nil
	case OpArg, OpBindArg:
		lookup := env.Args
		if in.Op == OpBindArg {
			lookup = env.BindArgs
		}
		if lookup == nil {
			return func(f *Frame) error { f.regs[dst] = None; return nil }, nil
		}
		return func(f *Frame) error {
			v, ok := lookup(sym)
			if !ok {
				v = None
			}
			f.regs[dst] = v
			return nil
		}, nil
	case OpLoad:
		if env.Globals == nil {
			return func(f *Frame) error { f.regs[dst] = None; return nil }, nil
		}
		cell := env.Globals.CellRef(sym)
		return func(f *Frame) error { f.regs[dst] = cell.v; return nil }, nil
	case OpStore:
		if env.Globals == nil {
			return func(*Frame) error { return nil }, nil
		}
		cell := env.Globals.CellRef(sym)
		return func(f *Frame) error { cell.Set(f.regs[a]); return nil }, nil
	case OpBin:
		op := in.Bin
		// Specialize the hottest operators; the rest share EvalBin.
		switch op {
		case Add:
			return func(f *Frame) error {
				x, y := f.regs[a], f.regs[b]
				if x.Kind == KInt && y.Kind == KInt {
					f.regs[dst] = Value{Kind: KInt, I: x.I + y.I}
					return nil
				}
				v, err := EvalBin(Add, x, y)
				f.regs[dst] = v
				return err
			}, nil
		case Sub:
			return func(f *Frame) error {
				x, y := f.regs[a], f.regs[b]
				if x.Kind == KInt && y.Kind == KInt {
					f.regs[dst] = Value{Kind: KInt, I: x.I - y.I}
					return nil
				}
				v, err := EvalBin(Sub, x, y)
				f.regs[dst] = v
				return err
			}, nil
		default:
			return func(f *Frame) error {
				v, err := EvalBin(op, f.regs[a], f.regs[b])
				f.regs[dst] = v
				return err
			}, nil
		}
	case OpUn:
		op := in.Un
		return func(f *Frame) error { f.regs[dst] = EvalUn(op, f.regs[a]); return nil }, nil
	case OpCall:
		var slot *IntrinsicSlot
		if env.IntrinsicSlot != nil {
			slot = env.IntrinsicSlot(sym)
		} else {
			intr, ok := env.Intrinsics[sym]
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrNoIntrinsic, sym)
			}
			slot = &IntrinsicSlot{Fn: intr.Fn}
		}
		args := append([]Reg(nil), in.Args...)
		lo := c.argWindow(len(args))
		hi := lo + len(args)
		return func(f *Frame) error {
			call := slot.Fn
			if call == nil {
				return fmt.Errorf("%w: %q", ErrNoIntrinsic, sym)
			}
			w := f.regs[lo:hi:hi]
			for i, r := range args {
				w[i] = f.regs[r]
			}
			f.regs[dst] = call(w)
			return nil
		}, nil
	case OpCallFn:
		callee, ok := env.Funcs[sym]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoFunc, sym)
		}
		sub, ok := cp.done[callee]
		if !ok {
			var err error
			if sub, err = cp.compile(callee); err != nil {
				return nil, err
			}
		}
		args := append([]Reg(nil), in.Args...)
		lo := c.argWindow(len(args))
		hi := lo + len(args)
		site := c.callSites
		c.callSites++
		return func(f *Frame) error {
			cf := f.calls[site]
			if cf == nil {
				if f.depth >= maxCallDepth {
					return errCallDepth
				}
				cf = sub.newFrame(f.depth + 1)
				f.calls[site] = cf
			}
			cf.budget = f.budget
			w := f.regs[lo:hi:hi]
			for i, r := range args {
				w[i] = f.regs[r]
			}
			v, halted, err := sub.run(cf, w)
			f.regs[dst] = v
			if err != nil {
				return err
			}
			if halted {
				return ErrHalted
			}
			return nil
		}, nil
	case OpRaise:
		raise := env.Raise
		if raise == nil {
			return func(*Frame) error { return nil }, nil
		}
		args := append([]Reg(nil), in.Args...)
		names := append([]string(nil), in.ArgNames...)
		if len(args) > c.raiseWin {
			c.raiseWin = len(args)
		}
		n := len(args)
		async, delay := in.Async, in.Delay
		return func(f *Frame) error {
			nv := f.raise[:n:n]
			for i, r := range args {
				nv[i] = NamedValue{Name: names[i], Val: f.regs[r]}
			}
			raise(sym, async, delay, nv)
			return nil
		}, nil
	case OpHalt:
		halt := env.Halt
		return func(*Frame) error {
			if halt != nil {
				halt()
			}
			return ErrHalted
		}, nil
	default:
		return nil, fmt.Errorf("hir: cannot compile op %v", in.Op)
	}
}

func compileTerm(t Term) termFn {
	switch t.Kind {
	case TermJump:
		to := t.To
		return func(*Frame) (BlockID, Value, bool) { return to, None, false }
	case TermBranch:
		cond, to, els := t.Cond, t.To, t.Else
		return func(f *Frame) (BlockID, Value, bool) {
			if f.regs[cond].Bool() {
				return to, None, false
			}
			return els, None, false
		}
	default: // TermReturn
		ret := t.Ret
		if ret == NoReg {
			return func(*Frame) (BlockID, Value, bool) { return 0, None, true }
		}
		return func(f *Frame) (BlockID, Value, bool) { return 0, f.regs[ret], true }
	}
}

// NewFrame returns an execution frame for c, sized for its registers and
// argument windows.
func (c *Compiled) NewFrame() *Frame { return c.newFrame(0) }

func (c *Compiled) newFrame(depth int) *Frame {
	f := &Frame{c: c, regs: make([]Value, c.numRegs+c.window), depth: depth}
	if c.raiseWin > 0 {
		f.raise = make([]NamedValue, c.raiseWin)
	}
	if c.callSites > 0 {
		f.calls = make([]*Frame, c.callSites)
	}
	f.budget = &f.steps
	return f
}

// Run executes c in f, which must come from c.NewFrame and must not be
// in use by another execution. It allocates nothing unless an OpCallFn
// site runs for the first time in f. OpHalt terminates execution
// normally, matching the interpreter's contract.
func (c *Compiled) Run(f *Frame, params ...Value) (Value, error) {
	if f.c != c {
		panic("hir: Run on a frame of " + f.c.name + ", not " + c.name)
	}
	f.steps = c.maxSteps
	f.budget = &f.steps
	v, _, err := c.run(f, params)
	return v, err
}

// Exec runs c once in a fresh frame. Hot paths keep a frame and call Run.
func (c *Compiled) Exec(params ...Value) (Value, error) {
	return c.Run(c.NewFrame(), params...)
}

// run executes c in f, distinguishing a halt from a plain return so
// compiled call sites can propagate it. The step budget is *f.budget.
func (c *Compiled) run(f *Frame, params []Value) (Value, bool, error) {
	regs := f.regs[:c.numRegs]
	clear(regs)
	copy(regs, params)
	bid := Entry
	for {
		steps := c.blocks[bid]
		*f.budget -= len(steps) + 1
		if *f.budget <= 0 {
			return None, false, ErrStepLimit
		}
		for _, step := range steps {
			if err := step(f); err != nil {
				if errors.Is(err, ErrHalted) {
					return None, true, nil
				}
				return None, false, fmt.Errorf("%s: %w", c.name, err)
			}
		}
		next, ret, done := c.terms[bid](f)
		if done {
			return ret, false, nil
		}
		bid = next
	}
}
