package hir

import (
	"errors"
	"fmt"
)

// NamedValue pairs an argument name with a value, for raise callbacks.
type NamedValue struct {
	Name string
	Val  Value
}

// Intrinsic is a host function callable from HIR. Pure intrinsics may be
// subject to common-subexpression elimination and dead-code elimination.
// The args slice is valid only during the call: compiled code passes a
// window of its frame that the next call site overwrites, so an
// intrinsic that keeps arguments must copy them.
type Intrinsic struct {
	Fn   func(args []Value) Value
	Pure bool
}

// IntrinsicSlot is a late-bound reference to one named intrinsic.
// Compiled OpCall sites read Fn at every call, so a host that hands out
// slots (Env.IntrinsicSlot) can register or wrap intrinsics after
// compiling. A nil Fn means the name is not registered.
type IntrinsicSlot struct {
	Fn func(args []Value) Value
}

// Env supplies everything an HIR execution needs from its host. Any nil
// callback degrades gracefully (lookups miss, raises and halts are
// ignored), which keeps analysis-time partial evaluation simple.
type Env struct {
	// Args resolves dynamic event arguments (OpArg).
	Args func(name string) (Value, bool)
	// BindArgs resolves static bind-time arguments (OpBindArg).
	BindArgs func(name string) (Value, bool)
	// Globals is the shared state store (OpLoad/OpStore).
	Globals *State
	// Intrinsics resolves OpCall targets.
	Intrinsics map[string]Intrinsic
	// IntrinsicSlot, when set, resolves compiled OpCall targets instead
	// of Intrinsics: Compile takes one slot per call site, and a slot
	// still empty at call time fails with ErrNoIntrinsic, as the
	// interpreter does. The interpreter always reads Intrinsics.
	IntrinsicSlot func(name string) *IntrinsicSlot
	// Funcs resolves OpCallFn targets.
	Funcs map[string]*Function
	// Raise performs an event activation (OpRaise). Like intrinsic
	// arguments, args is valid only during the call.
	Raise func(eventName string, async bool, delay int64, args []NamedValue)
	// Halt stops the remaining handlers of the current event (OpHalt).
	Halt func()
	// MaxSteps bounds execution (0 means the default of 1<<22); exceeded
	// budgets return ErrStepLimit, protecting tests from runaway loops.
	MaxSteps int
}

// Errors returned by Exec.
var (
	ErrStepLimit    = errors.New("hir: step limit exceeded")
	ErrDivByZero    = errors.New("hir: division by zero")
	ErrNoIntrinsic  = errors.New("hir: unknown intrinsic")
	ErrNoFunc       = errors.New("hir: unknown function")
	ErrHalted       = errors.New("hir: halted") // internal sentinel
	errCallDepth    = errors.New("hir: call depth exceeded")
	maxCallDepth    = 64
	defaultMaxSteps = 1 << 22
)

// Exec interprets fn under env with the given positional parameters and
// returns the function result (None for functions that return nothing).
// The interpreter is the reference semantics of HIR: the runtime executes
// bodies through Compile, and tests and fuzzers check it against Exec.
func Exec(fn *Function, env *Env, params ...Value) (Value, error) {
	v, _, err := ExecReuse(fn, env, nil, params...)
	return v, err
}

// ExecReuse is Exec with a caller-supplied register scratch buffer: when
// scratch has sufficient capacity the register file is carved from it
// instead of allocated. It returns the (possibly grown) scratch for the
// next call. The buffer must not be shared across concurrent executions.
func ExecReuse(fn *Function, env *Env, scratch []Value, params ...Value) (Value, []Value, error) {
	budget := env.MaxSteps
	if budget <= 0 {
		budget = defaultMaxSteps
	}
	if cap(scratch) < fn.NumRegs {
		scratch = make([]Value, fn.NumRegs)
	}
	regs := scratch[:fn.NumRegs]
	for i := range regs {
		regs[i] = None
	}
	v, err := exec(fn, env, params, regs, &budget, 0)
	if errors.Is(err, ErrHalted) {
		// OpHalt terminates the function normally after notifying the host.
		return v, scratch, nil
	}
	return v, scratch, err
}

func exec(fn *Function, env *Env, params []Value, regs []Value, budget *int, depth int) (Value, error) {
	if depth > maxCallDepth {
		return None, errCallDepth
	}
	if regs == nil {
		regs = make([]Value, fn.NumRegs)
	}
	copy(regs, params)
	bid := Entry
	for {
		blk := &fn.Blocks[bid]
		for ii := range blk.Instrs {
			*budget--
			if *budget <= 0 {
				return None, ErrStepLimit
			}
			in := &blk.Instrs[ii]
			switch in.Op {
			case OpConst:
				regs[in.Dst] = in.Const
			case OpMov:
				regs[in.Dst] = regs[in.A]
			case OpArg:
				regs[in.Dst] = None
				if env.Args != nil {
					if v, ok := env.Args(in.Sym); ok {
						regs[in.Dst] = v
					}
				}
			case OpBindArg:
				regs[in.Dst] = None
				if env.BindArgs != nil {
					if v, ok := env.BindArgs(in.Sym); ok {
						regs[in.Dst] = v
					}
				}
			case OpLoad:
				if env.Globals != nil {
					regs[in.Dst] = env.Globals.Get(in.Sym)
				} else {
					regs[in.Dst] = None
				}
			case OpStore:
				if env.Globals != nil {
					env.Globals.Set(in.Sym, regs[in.A])
				}
			case OpBin:
				v, err := EvalBin(in.Bin, regs[in.A], regs[in.B])
				if err != nil {
					return None, fmt.Errorf("%s: b%d[%d]: %w", fn.Name, bid, ii, err)
				}
				regs[in.Dst] = v
			case OpUn:
				regs[in.Dst] = EvalUn(in.Un, regs[in.A])
			case OpCall:
				intr, ok := env.Intrinsics[in.Sym]
				if !ok {
					return None, fmt.Errorf("%s: %w: %q", fn.Name, ErrNoIntrinsic, in.Sym)
				}
				args := make([]Value, len(in.Args))
				for i, r := range in.Args {
					args[i] = regs[r]
				}
				regs[in.Dst] = intr.Fn(args)
			case OpCallFn:
				callee, ok := env.Funcs[in.Sym]
				if !ok {
					return None, fmt.Errorf("%s: %w: %q", fn.Name, ErrNoFunc, in.Sym)
				}
				args := make([]Value, len(in.Args))
				for i, r := range in.Args {
					args[i] = regs[r]
				}
				v, err := exec(callee, env, args, nil, budget, depth+1)
				if err != nil && !errors.Is(err, ErrHalted) {
					return None, err
				}
				regs[in.Dst] = v
				if errors.Is(err, ErrHalted) {
					return None, ErrHalted
				}
			case OpRaise:
				if env.Raise != nil {
					args := make([]NamedValue, len(in.Args))
					for i, r := range in.Args {
						args[i] = NamedValue{Name: in.ArgNames[i], Val: regs[r]}
					}
					env.Raise(in.Sym, in.Async, in.Delay, args)
				}
			case OpHalt:
				if env.Halt != nil {
					env.Halt()
				}
				return None, ErrHalted
			default:
				return None, fmt.Errorf("%s: unknown op %v", fn.Name, in.Op)
			}
		}
		t := blk.Term
		switch t.Kind {
		case TermJump:
			bid = t.To
		case TermBranch:
			if regs[t.Cond].Bool() {
				bid = t.To
			} else {
				bid = t.Else
			}
		case TermReturn:
			if t.Ret != NoReg {
				return regs[t.Ret], nil
			}
			return None, nil
		default:
			return None, fmt.Errorf("%s: unknown terminator", fn.Name)
		}
	}
}

// EvalBin evaluates a binary operator on two values. Arithmetic and
// bitwise operators work on integer views; comparisons Eq/Ne compare
// structurally, the ordered comparisons compare integer views, and
// Add concatenates strings or byte slices when both operands match.
func EvalBin(op BinOp, a, b Value) (Value, error) {
	switch op {
	case Eq:
		return BoolVal(a.Equal(b)), nil
	case Ne:
		return BoolVal(!a.Equal(b)), nil
	}
	if op == Add {
		if a.Kind == KStr && b.Kind == KStr {
			return StrVal(a.S + b.S), nil
		}
		if a.Kind == KBytes && b.Kind == KBytes {
			out := make([]byte, 0, len(a.B)+len(b.B))
			out = append(out, a.B...)
			out = append(out, b.B...)
			return BytesVal(out), nil
		}
	}
	x, y := a.Int(), b.Int()
	switch op {
	case Add:
		return IntVal(x + y), nil
	case Sub:
		return IntVal(x - y), nil
	case Mul:
		return IntVal(x * y), nil
	case Div:
		if y == 0 {
			return None, ErrDivByZero
		}
		return IntVal(x / y), nil
	case Mod:
		if y == 0 {
			return None, ErrDivByZero
		}
		return IntVal(x % y), nil
	case And:
		return IntVal(x & y), nil
	case Or:
		return IntVal(x | y), nil
	case Xor:
		return IntVal(x ^ y), nil
	case Shl:
		return IntVal(x << (uint64(y) & 63)), nil
	case Shr:
		return IntVal(x >> (uint64(y) & 63)), nil
	case Lt:
		return BoolVal(x < y), nil
	case Le:
		return BoolVal(x <= y), nil
	case Gt:
		return BoolVal(x > y), nil
	case Ge:
		return BoolVal(x >= y), nil
	default:
		return None, fmt.Errorf("hir: unknown binop %v", op)
	}
}

// EvalUn evaluates a unary operator.
func EvalUn(op UnOp, a Value) Value {
	switch op {
	case Neg:
		return IntVal(-a.Int())
	case Not:
		return BoolVal(!a.Bool())
	case BNot:
		return IntVal(^a.Int())
	case Len:
		switch a.Kind {
		case KStr:
			return IntVal(int64(len(a.S)))
		case KBytes:
			return IntVal(int64(len(a.B)))
		default:
			return IntVal(0)
		}
	default:
		return None
	}
}
