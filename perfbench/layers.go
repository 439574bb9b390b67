package main

// perLayerUnits fixes every per-layer metric and its unit. Every
// workload reports all of them; a layer a workload bypasses reads 0.
var perLayerUnits = map[string]string{
	"trace.record_s":    "s",
	"trace.entries":     "count",
	"profile.analyze_s": "s",
	"profile.chains":    "count",
	"core.apply_s":      "s",
	"core.plan_entries": "count",
	"core.fused_instrs": "count",

	"ciphers.floor_us":    "us",
	"seccomm.push_us":     "us",
	"seccomm.pop_us":      "us",
	"seccomm.overhead_us": "us",

	"ctp.sendframe_us":       "us",
	"ctp.drain_us":           "us",
	"ctp.segments_per_op":    "count",
	"ctp.retransmits_per_op": "count",

	"event.handlers_per_op":     "count",
	"event.indirect_per_op":     "count",
	"event.marshals_per_op":     "count",
	"event.arg_resolves_per_op": "count",
	"event.locks_per_op":        "count",
	"event.fast_share":          "ratio",
	"event.fallback_ratio":      "ratio",
	"event.coalesce_ratio":      "ratio",
	"event.handoff_ratio":       "ratio",
	"event.queue_delay_p99_us":  "us",
	"event.backlog_max":         "count",
	"event.bind_us":             "us",

	"telemetry.snapshot_us":    "us",
	"telemetry.samples_per_op": "count",

	"span.roots_sampled_per_op": "count",
	"span.spans_per_op":         "count",
	"span.retained":             "count",

	"adaptive.tick_us":       "us",
	"adaptive.ticks_to_plan": "count",
	"adaptive.replans":       "count",
	"adaptive.promotions":    "count",
	"adaptive.batch_k_max":   "count",

	"bench.untraced_ops_per_s":   "1/s",
	"bench.traced_ops_per_s":     "1/s",
	"bench.tracing_overhead_pct": "%",
}

// selfPrefix names the per-op self time of each measured-phase span.
const selfPrefix = "self_us."

// measuredSpans are the spans whose self time per operation is reported.
var measuredSpans = []spanName{
	spanOp, spanPush, spanPop, spanSendFrame, spanDrain, spanRaiseAsync,
	spanWaitSink, spanBind, spanAdaptiveTick, spanTelemetrySnap,
	spanSpanStats, spanCheck,
}

func init() {
	for _, n := range measuredSpans {
		perLayerUnits[selfPrefix+spanNames[n]] = "us"
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer derives the per-layer metrics: counter deltas of the traced
// phase per operation, span times of the traced phase and of set-up,
// and the tracing overhead against the untraced phase.
func perLayer(w workload, untraced, traced *phase, setup *tracer) map[string]metric {
	out := map[string]float64{}
	for k := range perLayerUnits {
		out[k] = 0
	}
	d, tr := traced.delta.v, traced.tracer
	ops := float64(traced.m.ops)

	out["trace.record_s"] = setup.meanS(spanTraceRecord)
	out["profile.analyze_s"] = setup.meanS(spanProfileAnalyze)
	out["core.apply_s"] = setup.meanS(spanCoreApply)

	out["seccomm.push_us"] = tr.meanUs(spanPush)
	out["seccomm.pop_us"] = tr.meanUs(spanPop)
	out["ctp.sendframe_us"] = tr.meanUs(spanSendFrame)
	out["ctp.drain_us"] = tr.meanUs(spanDrain)
	out["event.bind_us"] = tr.meanUs(spanBind)
	out["telemetry.snapshot_us"] = tr.meanUs(spanTelemetrySnap)
	out["adaptive.tick_us"] = tr.meanUs(spanAdaptiveTick)

	out["event.handlers_per_op"] = d["handlers_run"] / ops
	out["event.indirect_per_op"] = d["indirect"] / ops
	out["event.marshals_per_op"] = d["marshals"] / ops
	out["event.arg_resolves_per_op"] = d["arg_resolves"] / ops
	out["event.locks_per_op"] = d["locks"] / ops
	out["event.fast_share"] = ratio(d["fast_runs"], d["fast_runs"]+d["generic"])
	out["event.fallback_ratio"] = ratio(d["fallbacks"]+d["seg_fallbacks"], d["fast_runs"]+d["fallbacks"])
	out["event.coalesce_ratio"] = ratio(d["coalesced"], d["coalesced"]+d["coalesce_fallbacks"])
	out["event.handoff_ratio"] = ratio(d["xdomain_handoffs"], d["xdomain_handoffs"]+d["xdomain_fallbacks"])
	out["event.queue_delay_p99_us"] = float64(traced.delta.qdelay.Quantile(0.99)) / 1e3
	out["telemetry.samples_per_op"] = d["tel_samples"] / ops
	out["adaptive.replans"] = d["replans"]
	out["adaptive.promotions"] = d["promotions"]

	for _, n := range measuredSpans {
		out[selfPrefix+spanNames[n]] = float64(tr.agg[n].self) / 1e3 / ops
	}

	u, t := untraced.m.opsPerSec(), traced.m.opsPerSec()
	out["bench.untraced_ops_per_s"] = u
	out["bench.traced_ops_per_s"] = t
	out["bench.tracing_overhead_pct"] = 100 * ratio(u-t, u)

	w.layers(traced, out)

	res := make(map[string]metric, len(out))
	for k, v := range out {
		unit, ok := perLayerUnits[k]
		if !ok {
			panic("perfbench: per-layer metric without a unit: " + k)
		}
		res[k] = metric{Value: v, Unit: unit}
	}
	return res
}
