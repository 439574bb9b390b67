package main

import (
	"eventopt/internal/bench"
	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/hirrt"
	"eventopt/internal/profile"
	"eventopt/internal/trace"
)

// planStats counts what the paper's offline workflow produced in set-up:
// trace entries recorded, chains the profile found, plan entries, and
// fused HIR instructions installed.
type planStats struct {
	entries, chains, planEntries, fused int
}

// optimizeOffline runs the paper's offline workflow, each step in its own
// span: drive raises events on profiled under full instrumentation,
// profile.Analyze builds the profile, and core.Apply installs the plan on
// target with mod. profiled and target differ when the profile is taken
// on a twin of the measured system.
func (s *planStats) optimizeOffline(tr *tracer, profiled *event.System, drive func(),
	target *event.System, mod *hirrt.Module, opts core.Options) error {
	tr.begin(spanTraceRecord)
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	profiled.SetTracer(rec)
	drive()
	profiled.SetTracer(nil)
	entries := rec.Entries()
	tr.end()

	tr.begin(spanProfileAnalyze)
	prof, err := profile.Analyze(entries)
	tr.end()
	if err != nil {
		return err
	}

	tr.begin(spanCoreApply)
	plan, _, err := core.Apply(target, prof, mod, opts)
	tr.end()
	if err != nil {
		return err
	}
	s.entries += len(entries)
	s.chains += len(prof.Graph.ChainsAsync(0))
	s.planEntries += len(plan.Entries)
	s.fused += bench.MeasureCodeSize(target).Added
	return nil
}

func (s planStats) report(out map[string]float64) {
	out["trace.entries"] = float64(s.entries)
	out["profile.chains"] = float64(s.chains)
	out["core.plan_entries"] = float64(s.planEntries)
	out["core.fused_instrs"] = float64(s.fused)
}
