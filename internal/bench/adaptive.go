package bench

import (
	"fmt"
	"io"

	"eventopt/internal/adaptive"
	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/profile"
	"eventopt/internal/telemetry"
	"eventopt/internal/trace"
)

// AdaptiveGatePct is the convergence budget: after each phase shift the
// adaptive system's steady-state raise latency must come within this
// percentage of the statically-optimized oracle — and the unoptimized
// baseline must NOT be within it, or the workload isn't discriminating
// and the comparison is vacuous.
const AdaptiveGatePct = 15.0

// family is one event family of the phased workload: a head event with
// several handlers whose last synchronously raises a tail event.
type family struct {
	head, tail event.ID
	name       string
}

// adaptiveWorkload builds the three-family phased workload in sys.
// Every family has the same shape, so the only difference between
// phases is WHICH family is hot — exactly the situation an offline,
// whole-run profile cannot distinguish but a live controller can.
func adaptiveWorkload(sys *event.System) []family {
	sink := 0
	fams := make([]family, 3)
	for i := range fams {
		name := fmt.Sprintf("fam%d", i)
		head := sys.Define(name)
		tail := sys.Define(name + ".tail")
		for h := 0; h < 3; h++ {
			sys.Bind(head, fmt.Sprintf("h%d", h), func(*event.Ctx) { sink++ }, event.WithOrder(h))
		}
		sys.Bind(head, "chain", func(c *event.Ctx) { c.Raise(tail) }, event.WithOrder(3))
		sys.Bind(tail, "t0", func(*event.Ctx) { sink++ })
		fams[i] = family{head: head, tail: tail, name: name}
	}
	return fams
}

// adaptiveTelemetry is the telemetry configuration all three systems
// share (identical observation cost keeps the comparison fair): every
// dispatch feeds the graph so the controller sees exact rates, and the
// timed path stays sparse.
func adaptiveTelemetry() telemetry.Config {
	return telemetry.Config{SampleEvery: 1, TimeSampleEvery: 64}
}

// adaptivePhases is the number of hot-set rotations a sample runs.
const adaptivePhases = 3

// adaptiveBounds are the adaptive gate's bounds: after every rotation
// the adaptive steady state is within AdaptiveGatePct of the static
// oracle, and the unoptimized baseline is not.
func adaptiveBounds() []Bound {
	var bs []Bound
	for p := 0; p < adaptivePhases; p++ {
		bs = append(bs,
			atMost(fmt.Sprintf("phase%d.adaptive_vs_static_pct", p), AdaptiveGatePct),
			above(fmt.Sprintf("phase%d.baseline_vs_static_pct", p), AdaptiveGatePct))
	}
	return bs
}

// sampleAdaptive measures the closed-loop optimizer against the paper's
// offline workflow on a phased workload whose hot event family rotates
// mid-run. Three identical systems run the same phases:
//
//   - baseline: never optimized;
//   - static: the offline workflow's best case — profiled over every
//     family and optimized once up front (an oracle that already knows
//     the whole workload);
//   - adaptive: starts unoptimized; a controller ticks between warmup
//     batches and must discover each phase's hot family online.
//
// A phase whose hot family the controller never promotes fails the
// sample outright.
func sampleAdaptive(w io.Writer, ops int) (Metrics, error) {
	baseSys := event.New(event.WithTelemetry(adaptiveTelemetry()))
	baseFams := adaptiveWorkload(baseSys)

	// Static oracle: profile a representative run over EVERY family (the
	// offline workflow's whole-program trace), then optimize once.
	statSys := event.New(event.WithTelemetry(adaptiveTelemetry()))
	statFams := adaptiveWorkload(statSys)
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	statSys.SetTracer(rec)
	for _, f := range statFams {
		for i := 0; i < 400; i++ {
			if err := statSys.Raise(f.head); err != nil {
				return nil, err
			}
		}
	}
	statSys.SetTracer(nil)
	prof, err := profile.Analyze(rec.Entries())
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Threshold = 100
	if _, _, err := core.Apply(statSys, prof, nil, opts); err != nil {
		return nil, err
	}

	adapSys := event.New(event.WithTelemetry(adaptiveTelemetry()))
	adapFams := adaptiveWorkload(adapSys)
	ctl, err := adaptive.New(adapSys, nil, adaptive.Policy{
		// SampleEvery 1 and warm batches of 2000 raises put true rates in
		// the thousands; the default hysteresis pair scaled up keeps the
		// promote/demote dynamics proportional.
		PromoteThreshold: 400,
		CooldownTicks:    1,
	})
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	const (
		warmBatch = 2000
		warmTicks = 6
	)
	header(w, "Adaptive optimizer convergence (phased workload, hot set rotates)")
	fmt.Fprintf(w, "%-8s %-8s %14s %14s %14s %10s\n",
		"Phase", "Hot", "baseline", "adaptive", "static", "adp/static")
	m := Metrics{}
	for p := 0; p < adaptivePhases; p++ {
		hot := p % len(adapFams)

		// Warm the phase: identical traffic on all three systems; the
		// controller ticks between batches (a background loop compressed
		// into deterministic steps).
		for b := 0; b < warmTicks; b++ {
			for i := 0; i < warmBatch; i++ {
				if err := baseSys.Raise(baseFams[hot].head); err != nil {
					return nil, err
				}
				if err := statSys.Raise(statFams[hot].head); err != nil {
					return nil, err
				}
				if err := adapSys.Raise(adapFams[hot].head); err != nil {
					return nil, err
				}
			}
			ctl.Tick()
		}
		if adapSys.FastPath(adapFams[hot].head) == nil {
			return nil, fmt.Errorf("phase %d: controller never promoted %s", p, adapFams[hot].name)
		}

		// Steady state: the adaptive/static ratio is the headline number,
		// so those two alternate passes; the baseline is measured alone.
		bEv, sEv, aEv := baseFams[hot].head, statFams[hot].head, adapFams[hot].head
		dStat, dAdap := measurePair(ops,
			func() { _ = statSys.Raise(sEv) },
			func() { _ = adapSys.Raise(aEv) })
		dBase := measure(ops, func() { _ = baseSys.Raise(bEv) })

		key := fmt.Sprintf("phase%d.", p)
		m[key+"baseline_ns"], m[key+"adaptive_ns"], m[key+"static_ns"] = ns(dBase), ns(dAdap), ns(dStat)
		m[key+"adaptive_vs_static_pct"] = overPct(ns(dAdap), ns(dStat))
		m[key+"baseline_vs_static_pct"] = overPct(ns(dBase), ns(dStat))
		fmt.Fprintf(w, "%-8d %-8s %12.1fns %12.1fns %12.1fns %+9.1f%%\n",
			p, adapFams[hot].name, ns(dBase), ns(dAdap), ns(dStat), m[key+"adaptive_vs_static_pct"])
	}

	snap := ctl.Snapshot()
	m["promotions"], m["demotions"] = float64(snap.Promotions), float64(snap.Demotions)
	m["phase_shifts"], m["ticks"] = float64(snap.PhaseShifts), float64(snap.Tick)
	// Not every rotation registers as a phase shift: if the old entry's
	// EWMA decays below the demote threshold before the new entry
	// crosses the promote threshold, the ordinary hysteresis path
	// handles the swap instead.
	fmt.Fprintf(w, "controller: %d promotions, %d demotions, %d phase shifts over %d ticks\n",
		snap.Promotions, snap.Demotions, snap.PhaseShifts, snap.Tick)
	return m, nil
}
