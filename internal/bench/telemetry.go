package bench

import (
	"fmt"
	"io"

	"eventopt/internal/event"
	"eventopt/internal/telemetry"
)

// TelemetryGatePct is the CI budget: enabling the full telemetry layer
// (latency histogram, flight record, sampled graph feed) may not slow
// the sync raise path by more than this percentage.
const TelemetryGatePct = 10.0

func telemetrySystems() (off, on func()) {
	args := []event.Arg{{Name: "n", Val: 7}, {Name: "s", Val: "x"}}
	handler := func(ctx *event.Ctx) { allocSink += ctx.Args.Int("n") }

	plain := event.New()
	pev := plain.Define("hot")
	plain.Bind(pev, "h", handler, event.WithParams("n", "s"))

	tele := event.New(event.WithTelemetry(telemetry.Config{}))
	tev := tele.Define("hot")
	tele.Bind(tev, "h", handler, event.WithParams("n", "s"))

	return func() { _ = plain.Raise(pev, args...) },
		func() { _ = tele.Raise(tev, args...) }
}

// sampleTelemetry measures the latency cost of the live telemetry layer
// on the synchronous raise path; the telemetry gate bounds delta_pct by
// TelemetryGatePct. Both variants run the same handler over the same
// hoisted arguments; alternating minimum-of-passes measurement
// (measurePair) cancels drift.
func sampleTelemetry(w io.Writer, ops int) (Metrics, error) {
	off, on := telemetrySystems()
	dOff, dOn := measurePair(ops, off, on)
	m := Metrics{"off_ns": ns(dOff), "on_ns": ns(dOn), "delta_pct": overPct(ns(dOn), ns(dOff))}

	header(w, "Telemetry overhead (sync raise, histograms + flight + graph feed)")
	fmt.Fprintf(w, "%-16s %12s\n", "Variant", "ns/raise")
	fmt.Fprintf(w, "%-16s %12.1f\n", "telemetry off", m["off_ns"])
	fmt.Fprintf(w, "%-16s %12.1f\n", "telemetry on", m["on_ns"])
	fmt.Fprintf(w, "overhead: %+.1f%%\n", m["delta_pct"])
	return m, nil
}
