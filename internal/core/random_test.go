package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hirrt"
	"eventopt/internal/profile"
	"eventopt/internal/trace"
)

// genHIRSystem builds a random all-HIR event system: a DAG of nEvents
// events (handlers may synchronously raise only strictly-higher events,
// so activation always terminates), each with 1..3 generated handler
// bodies mixing state arithmetic, argument reads, bind-time constants,
// branches, impure intrinsic calls, nested raises and halts. An oracle
// system runs its handlers through the reference interpreter.
func genHIRSystem(seed int64, nEvents int, oracle bool) (*event.System, *hirrt.Module, []event.ID, *[]string) {
	rng := rand.New(rand.NewSource(seed))
	sys := event.New()
	mod := hirrt.NewModule(sys)
	bind := mod.Bind
	if oracle {
		bind = mod.BindInterpreted
	}
	callLog := &[]string{}
	mod.RegisterIntrinsic("emit", false, func(a []hir.Value) hir.Value {
		*callLog = append(*callLog, fmt.Sprintf("emit(%s)", a[0]))
		return hir.None
	})
	mod.RegisterIntrinsic("mix", true, func(a []hir.Value) hir.Value {
		return hir.IntVal(a[0].Int()*31 ^ a[1].Int())
	})

	ids := make([]event.ID, nEvents)
	for i := range ids {
		ids[i] = sys.Define(fmt.Sprintf("E%d", i))
	}

	genBody := func(name string, evIdx int) *hir.Function {
		b := hir.NewBuilder(name, 0)
		cells := []string{"c0", "c1", "c2", "c3"}
		var regs []hir.Reg
		pick := func() hir.Reg { return regs[rng.Intn(len(regs))] }
		regs = append(regs, b.Arg("n"))
		regs = append(regs, b.BindArg("k"))
		steps := 4 + rng.Intn(8)
		for s := 0; s < steps; s++ {
			switch rng.Intn(8) {
			case 0:
				regs = append(regs, b.Int(int64(rng.Intn(11)-5)))
			case 1:
				regs = append(regs, b.Load(cells[rng.Intn(len(cells))]))
			case 2:
				ops := []hir.BinOp{hir.Add, hir.Sub, hir.Mul, hir.Xor, hir.And, hir.Or, hir.Lt, hir.Eq}
				regs = append(regs, b.Bin(ops[rng.Intn(len(ops))], pick(), pick()))
			case 3:
				b.Store(cells[rng.Intn(len(cells))], pick())
			case 4:
				regs = append(regs, b.Call("mix", pick(), pick()))
			case 5:
				b.Call("emit", pick())
			case 6:
				// Synchronous raise of a strictly-higher event.
				if evIdx+1 < nEvents {
					target := evIdx + 1 + rng.Intn(nEvents-evIdx-1)
					b.Raise(fmt.Sprintf("E%d", target), []string{"n"}, []hir.Reg{pick()})
				}
			case 7:
				// A diamond: branch on a fresh comparison, both arms
				// store, control rejoins and emission continues there.
				c := b.Bin(hir.Gt, pick(), pick())
				cur := b.Current()
				thenB := b.NewBlock()
				elseB := b.NewBlock()
				join := b.NewBlock()
				b.SetBlock(cur)
				b.Branch(c, thenB, elseB)
				b.SetBlock(thenB)
				b.Store(cells[rng.Intn(len(cells))], pick())
				b.Jump(join)
				b.SetBlock(elseB)
				b.Store(cells[rng.Intn(len(cells))], pick())
				b.Jump(join)
				b.SetBlock(join)
			}
		}
		b.Return(hir.NoReg)
		return b.Fn()
	}

	for i := 0; i < nEvents; i++ {
		nh := 1 + rng.Intn(3)
		for h := 0; h < nh; h++ {
			name := fmt.Sprintf("h%d_%d", i, h)
			bind(ids[i], name, genBody(name, i),
				event.WithOrder(h), event.WithBindArgs(event.A("k", rng.Intn(50))))
		}
	}
	return sys, mod, ids, callLog
}

// runWorkload drives the system deterministically and returns the final
// state snapshot plus the impure-intrinsic call log.
func runWorkload(sys *event.System, mod *hirrt.Module, ids []event.ID, callLog *[]string, seed int64) (map[string]hir.Value, []string) {
	*callLog = nil
	// Zero every cell the generator can touch: profiling runs populate
	// different subsets, and an absent cell reads as None rather than 0.
	for _, c := range []string{"c0", "c1", "c2", "c3"} {
		mod.Globals.Set(c, hir.IntVal(0))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 25; i++ {
		sys.Raise(ids[rng.Intn(len(ids))], event.A("n", i))
	}
	return mod.Globals.Snapshot(), append([]string(nil), *callLog...)
}

func optimizeRandom(t testingT, sys *event.System, mod *hirrt.Module, ids []event.ID, seed int64, opts Options) bool {
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	sys.SetTracer(rec)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 40; i++ {
		sys.Raise(ids[rng.Intn(len(ids))], event.A("n", i))
	}
	sys.SetTracer(nil)
	prof, err := profile.Analyze(rec.Entries())
	if err != nil {
		t.Logf("analyze: %v", err)
		return false
	}
	if _, _, err := Apply(sys, prof, mod, opts); err != nil {
		t.Logf("apply: %v", err)
		return false
	}
	return true
}

type testingT interface {
	Logf(format string, args ...any)
}

// TestQuickHIRFusionSoundness is the repository's strongest equivalence
// property: for random all-HIR event systems and every optimization
// level (steps-only, per-segment fusion, full fusion with static
// subsumption), the optimized system leaves the same state and performs
// the same impure intrinsic calls in the same order as the original. The
// original runs on the reference interpreter and the optimized system on
// compiled code, so the property checks the compiler with the plan.
func TestQuickHIRFusionSoundness(t *testing.T) {
	variants := []struct {
		name string
		mk   func() Options
	}{
		{"steps", func() Options { o := DefaultOptions(); o.MergeAll = true; o.FuseHIR = false; return o }},
		{"fused", func() Options { o := DefaultOptions(); o.MergeAll = true; return o }},
		{"full", func() Options {
			o := DefaultOptions()
			o.MergeAll = true
			o.FullFusion = true
			o.Partitioned = false
			return o
		}},
	}
	f := func(seed int64) bool {
		nEvents := 3 + int(uint64(seed)%4)
		refSys, refMod, refIDs, refLog := genHIRSystem(seed, nEvents, true)
		wantState, wantCalls := runWorkload(refSys, refMod, refIDs, refLog, seed+7)

		for _, v := range variants {
			sys, mod, ids, log := genHIRSystem(seed, nEvents, false)
			if !optimizeRandom(t, sys, mod, ids, seed+13, v.mk()) {
				return false
			}
			gotState, gotCalls := runWorkload(sys, mod, ids, log, seed+7)
			if !reflect.DeepEqual(wantCalls, gotCalls) {
				t.Logf("seed %d %s: call logs diverge\nwant %v\ngot  %v", seed, v.name, wantCalls, gotCalls)
				return false
			}
			for k, wv := range wantState {
				if gv, ok := gotState[k]; !ok || !gv.Equal(wv) {
					t.Logf("seed %d %s: cell %s = %v, want %v", seed, v.name, k, gv, wv)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
