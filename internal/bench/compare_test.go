package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReports(t *testing.T, dir string, reps ...*Report) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		f, err := os.Create(filepath.Join(dir, "BENCH_"+rep.Gate+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// xdomainReport is a report of the xdomain shape with the given medians
// and one bound on pipeline_speedup.
func xdomainReport(speedup, k16 float64) *Report {
	pass := speedup >= XDomainGateSpeedup
	b := atLeast("pipeline_speedup", XDomainGateSpeedup)
	b.Pass = pass
	return &Report{Gate: "xdomain", Samples: Samples, Pass: pass, Bounds: []Bound{b},
		Metrics: map[string]Stat{
			"pipeline_speedup": {Median: speedup},
			"k16.eps":          {Median: k16},
			"adaptive_eps":     {Median: 1000},
		}}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	oldDir, newDir := filepath.Join(dir, "old"), filepath.Join(dir, "new")
	writeReports(t, oldDir, xdomainReport(1.20, 900),
		&Report{Gate: "spans", Metrics: map[string]Stat{"delta_pct": {Median: 12}}})
	writeReports(t, newDir, xdomainReport(1.10, 990),
		&Report{Gate: "spans", Metrics: map[string]Stat{"delta_pct": {Median: 8}}, Pass: true},
		&Report{Gate: "batch", Metrics: map[string]Stat{"d8.speedup": {Median: 1.25}}, Pass: true})

	var out bytes.Buffer
	if err := CompareReports(&out, oldDir, newDir); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = line
		}
	}
	for key, want := range map[string]string{
		"xdomain.pipeline_speedup":      "-8.3%",  // 1.20 -> 1.10
		"xdomain.k16.eps":               "+10.0%", // 900 -> 990
		"xdomain.adaptive_eps":          "~",
		"xdomain.pipeline_speedup.pass": "true → false",
		"xdomain.pass":                  "true → false",
		"spans.pass":                    "false → true",
		"spans.delta_pct":               "-33.3%",
		"batch.d8.speedup":              "added",
	} {
		if !strings.HasSuffix(strings.TrimSpace(rows[key]), want) {
			t.Errorf("row %s = %q, want delta %q\n%s", key, rows[key], want, out.String())
		}
	}

	// Single report files compare the same way.
	out.Reset()
	if err := CompareReports(&out, filepath.Join(oldDir, "BENCH_xdomain.json"), filepath.Join(newDir, "BENCH_xdomain.json")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "xdomain.pass") || strings.Contains(out.String(), "spans.") {
		t.Errorf("file compare output:\n%s", out.String())
	}
	if err := CompareReports(&out, filepath.Join(dir, "missing.json"), newDir); err == nil {
		t.Error("missing file did not error")
	}
}
