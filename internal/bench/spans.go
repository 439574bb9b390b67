package bench

import (
	"fmt"
	"io"

	"eventopt/internal/event"
	"eventopt/internal/span"
	"eventopt/internal/telemetry"
)

// SpansGatePct is the CI budget: span tracing stacked on the telemetry
// layer may not slow the sync raise path by more than this percentage
// over the telemetry-only baseline (the telemetry layer's own cost has
// its own gate, TelemetryGatePct).
const SpansGatePct = 10.0

func spanSystems() (off, tel, spans func()) {
	args := []event.Arg{{Name: "n", Val: 7}, {Name: "s", Val: "x"}}
	handler := func(ctx *event.Ctx) { allocSink += ctx.Args.Int("n") }

	plain := event.New()
	pev := plain.Define("hot")
	plain.Bind(pev, "h", handler, event.WithParams("n", "s"))

	tele := event.New(event.WithTelemetry(telemetry.Config{}))
	tev := tele.Define("hot")
	tele.Bind(tev, "h", handler, event.WithParams("n", "s"))

	// The shipped defaults: telemetry times 1-in-16 dispatches and span
	// tracing samples 1-in-16 roots. Head sampling is what keeps tracing
	// affordable — the fully-sampled path is gated for allocations (not
	// latency) in TestAllocRegression.
	both := event.New(
		event.WithTelemetry(telemetry.Config{}),
		event.WithSpanTracing(span.Config{}),
	)
	bev := both.Define("hot")
	both.Bind(bev, "h", handler, event.WithParams("n", "s"))

	return func() { _ = plain.Raise(pev, args...) },
		func() { _ = tele.Raise(tev, args...) },
		func() { _ = both.Raise(bev, args...) }
}

// sampleSpans measures the latency cost of span tracing stacked on the
// telemetry layer; the spans gate bounds delta_pct, the increment over
// the telemetry-only baseline, by SpansGatePct. combined_pct, the cost
// over bare dispatch, is informational. Measurement follows
// sampleTelemetry: alternating minimum-of-passes pairs cancel drift.
func sampleSpans(w io.Writer, ops int) (Metrics, error) {
	off, tel, spans := spanSystems()
	dTel, dSpans := measurePair(ops, tel, spans)
	dOff, _ := measurePair(ops, off, tel)
	m := Metrics{
		"sample_every": span.DefaultSampleEvery,
		"off_ns":       ns(dOff),
		"telemetry_ns": ns(dTel),
		"spans_ns":     ns(dSpans),
		"delta_pct":    overPct(ns(dSpans), ns(dTel)),
		"combined_pct": overPct(ns(dSpans), ns(dOff)),
	}

	header(w, "Span tracing overhead (sync raise, telemetry + sampled spans)")
	fmt.Fprintf(w, "%-20s %12s\n", "Variant", "ns/raise")
	fmt.Fprintf(w, "%-20s %12.1f\n", "observability off", m["off_ns"])
	fmt.Fprintf(w, "%-20s %12.1f\n", "telemetry only", m["telemetry_ns"])
	fmt.Fprintf(w, "%-20s %12.1f\n", "telemetry+spans", m["spans_ns"])
	fmt.Fprintf(w, "overhead: %+.1f%% over telemetry, %+.1f%% over bare\n", m["delta_pct"], m["combined_pct"])
	return m, nil
}
