package bench

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"eventopt/internal/event"
	"eventopt/internal/trace"
)

var allocSink int

// allocScenario is one measured dispatch configuration. Its allocation
// budget is the allocs gate's bound on <name>.allocs_per_op.
type allocScenario struct {
	name string
	op   func() // one steady-state raise (system prebuilt, args hoisted)
}

// allocScenarios builds the measured systems. Argument slices are hoisted
// so the measurement charges the dispatcher, not caller-side boxing.
func allocScenarios() []allocScenario {
	args := []event.Arg{{Name: "n", Val: 7}, {Name: "s", Val: "x"}}
	handler := func(ctx *event.Ctx) { allocSink += ctx.Args.Int("n") }

	generic := event.New()
	gev := generic.Define("hot")
	generic.Bind(gev, "h", handler, event.WithParams("n", "s"))

	fast := event.New()
	fev := fast.Define("hot")
	fast.Bind(fev, "h", handler, event.WithParams("n", "s"))
	sh := &event.SuperHandler{
		Entry: fev,
		Segments: []event.Segment{{
			Event: fev, EventName: "hot", Version: fast.Version(fev),
			Steps: []event.Step{{Event: fev, EventName: "hot", Handler: "h", Fn: handler}},
		}},
	}
	if err := fast.InstallFastPath(sh); err != nil {
		panic(err)
	}

	async := event.New()
	aev := async.Define("hot")
	async.Bind(aev, "h", handler)

	traced := event.New()
	tev := traced.Define("hot")
	traced.Bind(tev, "h", handler)
	traced.SetTracer(trace.NewRecorder())

	return []allocScenario{
		{"sync-generic", func() { _ = generic.Raise(gev, args...) }},
		{"sync-fastpath", func() { _ = fast.Raise(fev, args...) }},
		{"async-raise+step", func() { async.RaiseAsync(aev, args...); async.Step() }},
		{"traced-sync", func() { _ = traced.Raise(tev, args...) }},
	}
}

// sampleAllocs measures allocations and time per raise on the hot
// dispatch paths: the same budgets TestAllocRegression applies in the
// test suite, measured here so CI archives the numbers next to the
// throughput report.
func sampleAllocs(w io.Writer, ops int) (Metrics, error) {
	header(w, "Hot-path allocations (steady state, args hoisted)")
	fmt.Fprintf(w, "%-18s %12s %12s\n", "Scenario", "allocs/op", "ns/op")
	m := Metrics{}
	for _, sc := range allocScenarios() {
		sc.op() // warm pools, scratch slots, trace chunks
		allocs := testing.AllocsPerRun(ops, sc.op)
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			sc.op()
		}
		perOp := float64(time.Since(t0).Nanoseconds()) / float64(ops)
		m[sc.name+".allocs_per_op"], m[sc.name+".ns_per_op"] = allocs, perOp
		fmt.Fprintf(w, "%-18s %12.2f %12.1f\n", sc.name, allocs, perOp)
	}
	return m, nil
}
