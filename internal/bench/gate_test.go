package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestGateRegistry(t *testing.T) {
	gates := Gates(false)
	seen := map[string]bool{}
	for _, g := range gates {
		if seen[g.Name] {
			t.Errorf("duplicate gate name %q", g.Name)
		}
		seen[g.Name] = true
		if g.Sample == nil {
			t.Errorf("gate %q has no sample function", g.Name)
		}
		if g.Quick > g.Full {
			t.Errorf("gate %q: quick op count %d exceeds full %d", g.Name, g.Quick, g.Full)
		}
	}
	if _, err := Select(gates, DefaultGates); err != nil {
		t.Errorf("default gate list: %v", err)
	}
	_, err := Select(gates, "fig12,nosuch")
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) || !strings.Contains(err.Error(), "fig12") {
		t.Errorf("unknown gate error = %v, want the name and the valid list", err)
	}

	// Every gate list the CI workflow passes to paperbench must resolve.
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	lists := regexp.MustCompile(`-gates ([a-z0-9,]+)`).FindAllStringSubmatch(string(ci), -1)
	if len(lists) == 0 {
		t.Fatal("CI workflow passes no -gates list")
	}
	for _, l := range lists {
		if _, err := Select(gates, l[1]); err != nil {
			t.Errorf("CI gate list %q: %v", l[1], err)
		}
	}
}

// fakeGate samples the given values of metric "x" in order, erring on
// the sample at index failAt (-1 for never).
func fakeGate(vals []float64, failAt int, bounds ...Bound) Gate {
	i := 0
	return Gate{Name: "fake", Quick: 1, Full: 1, Bounds: bounds,
		Sample: func(w io.Writer, _ int) (Metrics, error) {
			fmt.Fprintln(w, "fake table")
			v := vals[i]
			i++
			if i-1 == failAt {
				return Metrics{"x": v}, fmt.Errorf("sample %d broke", failAt)
			}
			return Metrics{"x": v}, nil
		}}
}

func TestSamplerGatesOnMedian(t *testing.T) {
	// Only one sample of ten clears the bound: a retry-until-pass loop
	// would have passed this gate; the median fails it.
	lucky := []float64{1.0, 1.05, 1.1, 1.0, 1.02, 1.08, 1.3, 1.01, 1.04, 1.1}
	var out bytes.Buffer
	rep, err := fakeGate(lucky, -1, atLeast("x", 1.2)).Run(&out, true)
	if err == nil || rep.Pass || rep.Bounds[0].Pass {
		t.Fatalf("gate passed on 1 lucky sample of 10: err=%v report=%+v", err, rep)
	}
	if rep.Samples != Samples {
		t.Errorf("samples = %d, want %d", rep.Samples, Samples)
	}
	if n := strings.Count(out.String(), "fake table"); n != 1 {
		t.Errorf("sample table printed %d times, want once", n)
	}

	// Median and quartiles are exact (R-7 interpolation) on 1..10.
	rep, err = fakeGate([]float64{7, 3, 10, 1, 5, 9, 2, 8, 4, 6}, -1, atMost("x", 5.5)).Run(io.Discard, false)
	if err != nil || !rep.Pass {
		t.Fatalf("median 5.5 <= 5.5 failed: %v", err)
	}
	if got, want := rep.Metrics["x"], (Stat{Median: 5.5, Q1: 3.25, Q3: 7.75}); got != want {
		t.Errorf("stat = %+v, want %+v", got, want)
	}

	// A sample error is a hard failure, however good the other samples.
	rep, err = fakeGate([]float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 2, atLeast("x", 1)).Run(io.Discard, true)
	if err == nil || rep.Pass || rep.Samples != 3 {
		t.Errorf("broken sample: err=%v pass=%v samples=%d, want an error after 3 samples", err, rep.Pass, rep.Samples)
	}

	// An unbounded gate runs once.
	rep, err = fakeGate([]float64{4}, -1).Run(io.Discard, true)
	if err != nil || rep.Samples != 1 || rep.Metrics["x"].Median != 4 {
		t.Errorf("unbounded gate: err=%v report=%+v", err, rep)
	}
}

// positive asserts every named metric was measured as a positive value.
func positive(t *testing.T, rep *Report, names ...string) {
	t.Helper()
	for _, n := range names {
		if st, ok := rep.Metrics[n]; !ok || st.Median <= 0 {
			t.Errorf("metric %s not measured positive: %+v (present %v)", n, st, ok)
		}
	}
}

// perDomain expands metric suffixes over the 1/2/4/8-domain rows.
func perDomain(suffixes ...string) []string {
	var out []string
	for _, d := range []int{1, 2, 4, 8} {
		for _, s := range suffixes {
			out = append(out, fmt.Sprintf("d%d.%s", d, s))
		}
	}
	return out
}

// gateShapes holds, per registry gate, the op count a shape test runs it
// at, the table headers its output must carry and the domain assertions
// on its report.
var gateShapes = []struct {
	gate    string
	ops     int
	headers []string
	check   func(t *testing.T, rep *Report)
}{
	{"batch", 20000, []string{"Batched ring drains", "Async chain merging"}, func(t *testing.T, rep *Report) {
		positive(t, rep, perDomain("unbatched_eps", "batched_eps", "speedup")...)
		positive(t, rep, "pipeline_unmerged_ns", "pipeline_merged_ns", "pipeline_speedup")
	}},
	{"codegen", 4000, []string{"Generated-code tier"}, func(t *testing.T, rep *Report) {
		for _, d := range []string{"seccomm.push", "seccomm.pop", "video.Adapt", "video.SegFromUser", "video.Seg2Net"} {
			positive(t, rep, d+".generic_ns", d+".closure_ns", d+".generated_ns")
		}
		positive(t, rep, "best_vs_closure", "worst_vs_generic")
	}},
	{"parallel", 4000, []string{"Parallel dispatch throughput"}, func(t *testing.T, rep *Report) {
		positive(t, rep, perDomain("contended_rps", "sharded_rps", "speedup")...)
	}},
	{"spans", 50000, []string{"telemetry+spans"}, func(t *testing.T, rep *Report) {
		positive(t, rep, "off_ns", "telemetry_ns", "spans_ns", "sample_every")
		if len(rep.Bounds) != 1 || rep.Bounds[0].Value != SpansGatePct {
			t.Errorf("bounds = %+v, want delta_pct <= %v", rep.Bounds, SpansGatePct)
		}
	}},
	{"xdomain", 20000, []string{"Cross-domain continuation handoff", "Adaptive drain-batch tuning"}, func(t *testing.T, rep *Report) {
		positive(t, rep, "pipeline_unmerged_ns", "pipeline_merged_ns", "pipeline_speedup")
		positive(t, rep, "k1.eps", "k16.eps", "k64.eps", "k128.eps", "adaptive_eps", "best_static_eps")
		// The allocation check holds on any machine: it measures the
		// runtime, not the scheduler's luck. (Not under -race, whose
		// shadow allocations inflate the count.)
		if st, ok := rep.Metrics["sync_raise_allocs"]; !ok || (!raceEnabled && st.Median != 0) {
			t.Errorf("sync raise with coalescing: %+v (present %v), want 0 allocs/op", st, ok)
		}
	}},
}

func TestRunBatchReportShape(t *testing.T)    { checkGateShape(t, "batch") }
func TestRunCodegenReportShape(t *testing.T)  { checkGateShape(t, "codegen") }
func TestRunParallelReportShape(t *testing.T) { checkGateShape(t, "parallel") }
func TestRunSpansReportShape(t *testing.T)    { checkGateShape(t, "spans") }
func TestRunXDomainReportShape(t *testing.T)  { checkGateShape(t, "xdomain") }

// checkGateShape runs the named registry gate for one sample and checks
// its report and output against its gateShapes entry.
func checkGateShape(t *testing.T, gate string) {
	for _, tc := range gateShapes {
		if tc.gate != gate {
			continue
		}
		gs, err := Select(Gates(false), tc.gate)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		rep, err := gs[0].run(&out, tc.ops, 1)
		if err != nil {
			// The bounds are calibrated for the CI runner; on an
			// arbitrary loaded machine only the report shape is
			// asserted.
			t.Logf("gate (tolerated in unit test): %v", err)
		}
		if rep.Gate != tc.gate || rep.Ops != tc.ops || rep.Samples != 1 {
			t.Errorf("report header = %q ops %d samples %d", rep.Gate, rep.Ops, rep.Samples)
		}
		tc.check(t, rep)
		for _, h := range tc.headers {
			if !strings.Contains(out.String(), h) {
				t.Errorf("output missing %q", h)
			}
		}

		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		var back Report
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("report JSON does not round-trip: %v", err)
		}
		if !reflect.DeepEqual(&back, rep) {
			t.Errorf("round-trip mismatch:\n%+v\n%+v", back, *rep)
		}
		return
	}
	t.Fatalf("no shape case for gate %q", gate)
}
