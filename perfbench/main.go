// Command perfbench is the repository benchmark. It builds each workload
// through the packages' exported APIs, sets it up the way a user would
// (profiling run, plan, install, warm-up), measures a closed-loop run of
// seeded operations, checks every output, and prints the end-to-end
// metrics. With -trace 1 it also wraps every call it makes into a layer
// in a span and reports per-layer counts, times and self times instead.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload seccomm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times a run builds its workload from nothing;
// setup_s is the median and the last build is the one measured.
const setupRounds = 11

// workload is one benchmark scenario. A value is built by its factory,
// set up once, measured, then settled and closed.
type workload interface {
	// setup builds the systems and takes them to ready-to-measure:
	// profiling run, plan, install and warm-up.
	setup(tr *tracer) error
	// batch runs a few operations, recording each in m.
	batch(m *meter, tr *tracer)
	// counts snapshots the program's cumulative counters.
	counts() counts
	// settle finishes outstanding outputs after the measured phase and
	// counts in m the operations that failed their output check late.
	settle(m *meter)
	// guard reports an error when the measured phase (counter deltas d)
	// did not exercise the layers the workload was chosen for.
	guard(d counts) error
	// layers adds the per-layer metrics only this workload can measure
	// (set-up counts, cipher floor, CTP and span counts) for phase p.
	layers(p *phase, out map[string]float64)
	// close stops every goroutine the workload started.
	close()
}

var factories = map[string]func(seed uint64) workload{
	"seccomm":  newSeccomm,
	"video":    newVideo,
	"pipeline": newPipeline,
	"rebind":   newRebind,
}

var workloadOrder = []string{"seccomm", "video", "pipeline", "rebind"}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "seccomm", "workload: "+strings.Join(workloadOrder, ", ")+" or all")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		if factories[n] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", n)
			os.Exit(2)
		}
		res, err := runWorkload(n, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		if len(names) == 1 {
			final = res
			break
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			final.Metrics[n+"/"+k] = v
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !final.Correct {
		os.Exit(1)
	}
}

// runWorkload sets one workload up setupRounds times, measures the last
// build, and returns its metrics: end-to-end ones untraced, or per-layer
// ones when traced (the measured time is then split between an untraced
// and a traced phase, whose throughputs give the tracing overhead).
func runWorkload(name string, seed uint64, d time.Duration, traced bool) (result, error) {
	fmt.Printf("workload %s  seed %d  measured %.1fs  trace %v  GOMAXPROCS %d  %s\n",
		name, seed, d.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.Version())

	setupTr := newTracer(traced)
	var w workload
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		w = factories[name](seed)
		t0 := time.Now()
		setupTr.begin(spanSetup)
		err := w.setup(setupTr)
		setupTr.end()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return result{}, fmt.Errorf("setup: %w", err)
		}
	}
	defer w.close()

	var untraced, tr *phase
	var err error
	if !traced {
		untraced, err = measure(w, d, newTracer(false), seed)
	} else if untraced, err = measure(w, d/2, newTracer(false), seed); err == nil {
		tr, err = measure(w, d/2, newTracer(true), seed)
	}
	if err != nil {
		return result{}, err
	}
	last := untraced
	if tr != nil {
		last = tr
	}
	w.settle(last.m)

	res := result{Correct: true}
	for _, p := range []*phase{untraced, tr} {
		if p == nil {
			continue
		}
		res.Attempted += p.m.ops
		res.Failed += p.m.failed
		if gerr := w.guard(p.delta); gerr != nil {
			fmt.Printf("SHAPE GUARD FAILED: %v\n", gerr)
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	e2e := endToEnd(untraced, median(setups))
	printEndToEnd(e2e, untraced, res)
	if !traced {
		res.Metrics = map[string]metric{}
		for _, e := range e2e {
			if e.name != "fail_ratio" {
				res.Metrics[e.name] = metric{Value: e.value, Unit: e.unit}
			}
		}
		return res, nil
	}
	res.Metrics = perLayer(w, untraced, tr, setupTr)
	printPerLayer(res.Metrics, tr.tracer)
	path, err := writeSpans(name, setupTr, tr.tracer)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("spans written to %s\n", path)
	return res, nil
}

// e2eMetric is one end-to-end metric as printed.
type e2eMetric struct {
	name, unit string
	value      float64
}

// endToEnd derives the end-to-end metrics of an untraced phase, in print
// order. fail_ratio is printed but left out of the JSON result line,
// which carries it as failed over attempted: a metric that is 0 on every
// correct run has no median to bound.
func endToEnd(p *phase, setupS float64) []e2eMetric {
	m := p.m
	ops := float64(max(m.ops, 1))
	p50 := func(w window) float64 { return w.p50 }
	p99 := func(w window) float64 { return w.p99 }
	heap := func(w window) float64 { return float64(w.heap) }
	return []e2eMetric{
		{"ops_per_s", "1/s", m.opsPerSec()},
		{"op_p50_us", "us", m.stat(0.25, p50) / 1e3},
		{"op_p99_us", "us", m.stat(0.25, p99) / 1e3},
		{"setup_s", "s", setupS},
		{"allocs_per_op", "count", float64(p.mallocs) / ops},
		// The latency reservoir is the benchmark's own; leave it out.
		{"peak_heap_mb", "MB", (m.stat(0.5, heap) - 4*windowSamples) / (1 << 20)},
		{"fail_ratio", "ratio", float64(m.failed) / ops},
	}
}

func printEndToEnd(e2e []e2eMetric, p *phase, res result) {
	m := p.m
	total, least := 0, windowSamples
	for i, w := range m.windows {
		total += w.samples
		if i < len(m.windows)-1 { // the last window is cut short
			least = min(least, w.samples)
		}
	}
	fmt.Printf("end-to-end (untraced, %d ops in %d windows of %v; %d latency samples, at least %d a full window):\n",
		m.ops, len(m.windows), windowLen, total, least)
	for _, e := range e2e {
		fmt.Printf("  %-16s %14.4f %s\n", e.name, e.value, e.unit)
	}
	fmt.Printf("  window medians: %.1f ops/s, p50 %.2f us, p99 %.2f us\n",
		m.stat(0.5, func(w window) float64 { return w.rate }),
		m.stat(0.5, func(w window) float64 { return w.p50 })/1e3,
		m.stat(0.5, func(w window) float64 { return w.p99 })/1e3)
	fmt.Printf("  attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
}

func printPerLayer(ms map[string]metric, tr *tracer) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("per-layer (traced phase; set-up metrics are means over the set-ups):")
	for _, k := range names {
		fmt.Printf("  %-30s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
	fmt.Printf("  spans recorded %d, kept %d\n", tr.recorded, len(tr.kept))
}

// writeSpans writes the kept set-up and traced-phase spans as JSON lines
// into the build directory of the checkout.
func writeSpans(name string, setup, measured *tracer) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, "spans-"+name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	werr := setup.writeJSONL(f, "setup")
	if werr == nil {
		werr = measured.writeJSONL(f, "measured")
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("write spans: %w", werr)
	}
	return path, nil
}
