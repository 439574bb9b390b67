package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Samples is the number of samples a bounded gate takes. Its bounds are
// checked on each metric's median over these samples, so a gate cannot
// pass on one lucky run.
const Samples = 10

// DefaultGates is the gate list paperbench runs by default: the paper's
// figures, the section 1 overhead share and the section 4.2 code-size
// note.
const DefaultGates = "fig5,fig6,fig8,fig10,fig11,fig12,fig13,overhead,codesize"

// Metrics is one sample's measurements by metric name.
type Metrics map[string]float64

// Bound is a fixed limit on the median of one metric.
type Bound struct {
	Metric string  `json:"metric"`
	Op     string  `json:"op"` // ">=", ">" or "<="
	Value  float64 `json:"value"`
	Pass   bool    `json:"pass"` // set in a Report
}

func atLeast(metric string, v float64) Bound { return Bound{Metric: metric, Op: ">=", Value: v} }
func above(metric string, v float64) Bound   { return Bound{Metric: metric, Op: ">", Value: v} }
func atMost(metric string, v float64) Bound  { return Bound{Metric: metric, Op: "<=", Value: v} }

func (b Bound) holds(v float64) bool {
	switch b.Op {
	case ">=":
		return v >= b.Value
	case ">":
		return v > b.Value
	}
	return v <= b.Value
}

// Gate is one entry of the evaluation registry: a figure, a table or a
// bounded CI gate.
type Gate struct {
	Name        string
	Quick, Full int // op counts; -quick selects Quick
	// Sample measures once at an op count, printing its table to w. An
	// error is a correctness failure that no other sample can excuse.
	Sample func(w io.Writer, ops int) (Metrics, error)
	// Bounds are checked on the per-metric medians of Samples samples.
	// A gate without bounds runs once.
	Bounds []Bound
}

// Stat summarizes one metric over a gate's samples.
type Stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Report is the serializable result of one gate (BENCH_<gate>.json).
type Report struct {
	Gate    string          `json:"gate"`
	CPUs    int             `json:"cpus"`
	Ops     int             `json:"ops"`
	Samples int             `json:"samples"`
	Metrics map[string]Stat `json:"metrics"`
	Bounds  []Bound         `json:"bounds,omitempty"`
	Pass    bool            `json:"pass"`
}

// WriteJSON serializes the report (indented, trailing newline).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Run measures g at its quick or full op count. The first sample prints
// the gate's table to w. A bounded gate takes Samples samples in all and
// then prints every metric's median and quartiles and each bound's
// verdict. The error reports a failed sample or a missed bound; the
// report holds whatever was measured.
func (g Gate) Run(w io.Writer, quick bool) (*Report, error) {
	ops, n := g.Full, 1
	if quick {
		ops = g.Quick
	}
	if len(g.Bounds) > 0 {
		n = Samples
	}
	return g.run(w, ops, n)
}

func (g Gate) run(w io.Writer, ops, n int) (*Report, error) {
	var samples []Metrics
	var err error
	for i := 0; i < n && err == nil; i++ {
		out := w
		if i > 0 {
			out = io.Discard
		}
		var m Metrics
		if m, err = g.Sample(out, ops); m != nil {
			samples = append(samples, m)
		}
	}
	rep := summarize(g, ops, samples)
	if err != nil {
		rep.Pass = false
		return rep, err
	}
	if len(g.Bounds) == 0 {
		return rep, nil
	}
	rep.print(w)
	if !rep.Pass {
		var missed []string
		for _, b := range rep.Bounds {
			if !b.Pass {
				missed = append(missed, fmt.Sprintf("%s %.3f (want %s %v)", b.Metric, rep.Metrics[b.Metric].Median, b.Op, b.Value))
			}
		}
		return rep, fmt.Errorf("median misses its bound: %s", strings.Join(missed, ", "))
	}
	return rep, nil
}

// summarize reduces the samples to per-metric medians and quartiles and
// checks g's bounds against the medians.
func summarize(g Gate, ops int, samples []Metrics) *Report {
	rep := &Report{
		Gate: g.Name, CPUs: runtime.NumCPU(), Ops: ops, Samples: len(samples),
		Metrics: make(map[string]Stat), Pass: true,
	}
	vals := make(map[string][]float64)
	for _, s := range samples {
		for k, v := range s {
			vals[k] = append(vals[k], v)
		}
	}
	for k, vs := range vals {
		sort.Float64s(vs)
		rep.Metrics[k] = Stat{Median: quantile(vs, 0.5), Q1: quantile(vs, 0.25), Q3: quantile(vs, 0.75)}
	}
	for _, b := range g.Bounds {
		st, ok := rep.Metrics[b.Metric]
		b.Pass = ok && b.holds(st.Median)
		rep.Pass = rep.Pass && b.Pass
		rep.Bounds = append(rep.Bounds, b)
	}
	return rep
}

// quantile interpolates linearly between the closest ranks of sorted
// values (the R-7 definition, so the 0.5 quantile of an even count is
// the mean of the middle two).
func quantile(sorted []float64, p float64) float64 {
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func (r *Report) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s: median [q1, q3] of %d samples\n", r.Gate, r.Samples)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		st := r.Metrics[k]
		fmt.Fprintf(w, "  %-36s %14.2f [%.2f, %.2f]\n", k, st.Median, st.Q1, st.Q3)
	}
	for _, b := range r.Bounds {
		verdict := "pass"
		if !b.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  bound %s %s %v: %s\n", b.Metric, b.Op, b.Value, verdict)
	}
}

// Select returns the gates named in a comma-separated list, in list
// order. An unknown name is an error that lists the valid ones.
func Select(gates []Gate, list string) ([]Gate, error) {
	byName := make(map[string]Gate, len(gates))
	names := make([]string, len(gates))
	for i, g := range gates {
		byName[g.Name] = g
		names[i] = g.Name
	}
	var out []Gate
	for _, name := range strings.Split(list, ",") {
		g, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown gate %q (valid: %s)", name, strings.Join(names, ","))
		}
		out = append(out, g)
	}
	return out, nil
}

// Gates is the evaluation registry, in paperbench's run order. dot adds
// DOT output to the graph figures.
func Gates(dot bool) []Gate {
	return []Gate{
		{Name: "fig5", Sample: func(w io.Writer, _ int) (Metrics, error) {
			g, err := RunFig5(w, dot)
			if err != nil {
				return nil, err
			}
			return Metrics{"nodes": float64(g.NumNodes()), "edges": float64(g.NumEdges())}, nil
		}},
		{Name: "fig6", Sample: func(w io.Writer, _ int) (Metrics, error) {
			g, err := RunFig6(w, 300, dot)
			if err != nil {
				return nil, err
			}
			return Metrics{"nodes": float64(g.NumNodes()), "edges": float64(g.NumEdges())}, nil
		}},
		{Name: "fig8", Sample: func(w io.Writer, _ int) (Metrics, error) {
			g, err := RunFig8(w, dot)
			if err != nil {
				return nil, err
			}
			return Metrics{"nodes": float64(len(g.Nodes())), "edges": float64(g.NumEdges())}, nil
		}},
		{Name: "fig10", Quick: 120, Full: 400, Sample: func(w io.Writer, frames int) (Metrics, error) {
			rows, err := RunFig10(w, frames)
			m := Metrics{}
			for _, r := range rows {
				m[fmt.Sprintf("rate%d.total_pct", r.Rate)] = pctOf(r.OrigTotal, r.OptTotal)
				m[fmt.Sprintf("rate%d.handler_pct", r.Rate)] = pctOf(r.OrigHandler, r.OptHandler)
			}
			return m, err
		}},
		{Name: "fig11", Quick: 400, Full: 2000, Sample: func(w io.Writer, iters int) (Metrics, error) {
			rows, err := RunFig11(w, iters)
			m := Metrics{}
			for _, r := range rows {
				m[r.Event+".pct"] = pctOf(r.Orig, r.Opt)
			}
			return m, err
		}},
		{Name: "fig12", Quick: 200, Full: 1000, Sample: func(w io.Writer, msgs int) (Metrics, error) {
			rows, err := RunFig12(w, msgs)
			m := Metrics{}
			for _, r := range rows {
				m[fmt.Sprintf("size%d.push_pct", r.Size)] = pctOf(r.PushOrig, r.PushOpt)
				m[fmt.Sprintf("size%d.pop_pct", r.Size)] = pctOf(r.PopOrig, r.PopOpt)
			}
			return m, err
		}},
		{Name: "fig13", Quick: 250, Full: 1000, Sample: func(w io.Writer, iters int) (Metrics, error) {
			rows, err := RunFig13(w, iters)
			m := Metrics{}
			for _, r := range rows {
				m[r.Event+".pct"] = pctOf(r.Orig, r.Opt)
			}
			return m, err
		}},
		{Name: "overhead", Quick: 150, Full: 400, Sample: func(w io.Writer, frames int) (Metrics, error) {
			share, err := RunOverhead(w, frames)
			return Metrics{"share_pct": 100 * share}, err
		}},
		{Name: "codesize", Sample: func(w io.Writer, _ int) (Metrics, error) { return RunCodeSize(w) }},
		{Name: "parallel", Quick: 60000, Full: 400000, Sample: sampleParallel},
		{Name: "allocs", Quick: 5000, Full: 20000, Sample: sampleAllocs, Bounds: []Bound{
			atMost("sync-generic.allocs_per_op", 0),
			atMost("sync-fastpath.allocs_per_op", 0),
			atMost("async-raise+step.allocs_per_op", 1),
			atMost("traced-sync.allocs_per_op", 0.5),
		}},
		// The telemetry and span deltas are single-digit nanoseconds on a
		// ~150ns raise, so these two gates take far more ops than the
		// allocation gate to resolve them above timer noise.
		{Name: "telemetry", Quick: 50000, Full: 200000, Sample: sampleTelemetry,
			Bounds: []Bound{atMost("delta_pct", TelemetryGatePct)}},
		{Name: "adaptive", Quick: 5000, Full: 20000, Sample: sampleAdaptive, Bounds: adaptiveBounds()},
		{Name: "batch", Quick: 40000, Full: 120000, Sample: sampleBatch, Bounds: []Bound{
			atLeast("d8.speedup", BatchGateSpeedup),
			atLeast("pipeline_speedup", 1.0),
		}},
		{Name: "xdomain", Quick: 30000, Full: 100000, Sample: sampleXDomain, Bounds: []Bound{
			atLeast("pipeline_speedup", XDomainGateSpeedup),
			atLeast("adaptive_vs_best_pct", -XDomainAdaptivePct),
		}},
		{Name: "spans", Quick: 50000, Full: 200000, Sample: sampleSpans,
			Bounds: []Bound{atMost("delta_pct", SpansGatePct)}},
		{Name: "codegen", Quick: 5000, Full: 20000, Sample: sampleCodegen, Bounds: []Bound{
			atLeast("best_vs_closure", CodegenGateSpeedup),
			atLeast("worst_vs_generic", 1.0),
		}},
	}
}

// pctOf is opt/orig as a percentage, the paper's (Opt/Orig)x100 column.
func pctOf(orig, opt time.Duration) float64 {
	if orig <= 0 {
		return 0
	}
	return 100 * float64(opt) / float64(orig)
}

// overPct is how far v lies above base, in percent of base.
func overPct(v, base float64) float64 { return 100 * (v - base) / base }

// ns converts a duration to float nanoseconds for a metric.
func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }
