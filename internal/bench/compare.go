package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// CompareReports reads two sets of gate reports, each a BENCH_<gate>.json
// file or a directory of them as paperbench -out writes, and prints a
// benchstat-style delta table keyed gate.metric: old median, new median
// and relative change. Pass flags, of each bound (gate.metric.pass) and
// of the whole gate (gate.pass), print as transitions. Returns an error
// only when a report cannot be read or parsed; a regressed gate is the
// reader's call, not this function's.
func CompareReports(w io.Writer, oldPath, newPath string) error {
	oldVals, err := loadReportValues(oldPath)
	if err != nil {
		return err
	}
	newVals, err := loadReportValues(newPath)
	if err != nil {
		return err
	}

	keys := make(map[string]bool, len(oldVals)+len(newVals))
	for k := range oldVals {
		keys[k] = true
	}
	for k := range newVals {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-44s %16s %16s %14s\n", "gate.metric", "old", "new", "delta")
	for _, name := range names {
		ov, haveOld := oldVals[name]
		nv, haveNew := newVals[name]
		switch {
		case !haveOld:
			fmt.Fprintf(w, "%-44s %16s %16s %14s\n", name, "-", formatVal(nv), "added")
		case !haveNew:
			fmt.Fprintf(w, "%-44s %16s %16s %14s\n", name, formatVal(ov), "-", "removed")
		default:
			fmt.Fprintf(w, "%-44s %16s %16s %14s\n",
				name, formatVal(ov), formatVal(nv), formatDelta(ov, nv))
		}
	}
	return nil
}

// loadReportValues flattens the reports at path into gate.metric
// medians (float64) and pass flags (bool).
func loadReportValues(path string) (map[string]any, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "BENCH_*.json")); err != nil {
			return nil, fmt.Errorf("bench: compare: %w", err)
		}
	}
	vals := make(map[string]any)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("bench: compare: %w", err)
		}
		var rep Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("bench: compare: %s: %w", f, err)
		}
		if rep.Gate == "" {
			return nil, fmt.Errorf("bench: compare: %s: not a gate report", f)
		}
		for k, st := range rep.Metrics {
			vals[rep.Gate+"."+k] = st.Median
		}
		for _, b := range rep.Bounds {
			vals[rep.Gate+"."+b.Metric+".pass"] = b.Pass
		}
		vals[rep.Gate+".pass"] = rep.Pass
	}
	return vals, nil
}

func formatVal(v any) string {
	switch t := v.(type) {
	case bool:
		return strconv.FormatBool(t)
	case float64:
		if t == math.Trunc(t) && math.Abs(t) < 1e15 {
			return strconv.FormatFloat(t, 'f', 0, 64)
		}
		return strconv.FormatFloat(t, 'f', 2, 64)
	}
	return fmt.Sprint(v)
}

// formatDelta renders the change new-vs-old the way benchstat does: a
// signed percentage, with ~ for no change and new/old shown outright
// when the base is zero. A pass flag that flips prints as a transition.
func formatDelta(oldV, newV any) string {
	if oldV == newV {
		return "~"
	}
	o, okOld := oldV.(float64)
	n, okNew := newV.(float64)
	switch {
	case !okOld || !okNew:
		return formatVal(oldV) + " → " + formatVal(newV)
	case o == 0:
		return "=" + formatVal(n)
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
}
