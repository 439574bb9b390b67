package hirrt

import (
	"eventopt/internal/event"
	"eventopt/internal/hir"
)

// BindInterpreted is Bind with the body run by the reference interpreter
// (hir.ExecReuse) instead of compiled code. It is the test oracle only:
// equivalence tests bind their reference systems through it, so that
// "optimized and compiled ≡ generic and interpreted" checks the compiler
// along with the plan. Nothing on the runtime path uses it.
func (m *Module) BindInterpreted(ev event.ID, name string, body *hir.Function, opts ...event.BindOption) event.Binding {
	return m.Sys.Bind(ev, name, m.interpretedHandler(body), append(opts, event.WithIR(body))...)
}

// interpretedHandler adapts a body to the interpreter with the same
// contract as HandlerFunc: a reused environment, one register file per
// live nesting depth, and a panic on execution errors.
func (m *Module) interpretedHandler(body *hir.Function) event.HandlerFunc {
	env, setCtx := m.newEnv()
	var scratch [][]hir.Value // one register file per live nesting depth
	return activate(body.Name, setCtx, func(d int) error {
		if d == len(scratch) {
			scratch = append(scratch, nil)
		}
		var err error
		_, scratch[d], err = hir.ExecReuse(body, env, scratch[d])
		return err
	})
}
