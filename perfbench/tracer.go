package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// spanName identifies a layer boundary the benchmark wraps in a span:
// a call from the benchmark into one package of the program, or the
// benchmark's own bookkeeping around it.
type spanName uint8

const (
	spanSetup          spanName = iota // one build of the workload, root of the set-up spans
	spanTraceRecord                    // instrumented profiling run (trace)
	spanProfileAnalyze                 // profile.Analyze
	spanCoreApply                      // core.Apply
	spanWarmup                         // warm-up until pools are filled and plans installed
	spanOp                             // one measured operation (root of the run spans)
	spanPush                           // seccomm Endpoint.Push
	spanPop                            // seccomm Endpoint.HandlePacket
	spanCipherFloor                    // DES+XOR encrypt and decrypt, called directly
	spanSendFrame                      // ctp Sender.SendFrame
	spanDrain                          // event System.DrainFor (ctp timers, acks)
	spanRaiseAsync                     // event System.RaiseAsync of a head event
	spanWaitSink                       // waiting for the pipeline sink to catch up
	spanBind                           // event System.Bind / Unbind
	spanAdaptiveTick                   // adaptive Controller.Tick
	spanTelemetrySnap                  // telemetry Telemetry.Events
	spanSpanStats                      // span Collector.Stats
	spanCheck                          // the benchmark's output check
	numSpans
)

var spanNames = [numSpans]string{
	"setup", "trace.record", "profile.analyze", "core.apply", "warmup",
	"op", "seccomm.push", "seccomm.pop", "ciphers.floor", "ctp.sendframe",
	"ctp.drain", "event.raise_async", "event.wait_sink", "event.bind",
	"adaptive.tick", "telemetry.snapshot", "span.stats", "bench.check",
}

// keptPerName bounds the spans of each name kept for writing out, so
// every layer appears in the file; aggregates cover every span.
const keptPerName = 4096

// spanRec is one finished span as written out.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Op     int64  `json:"op"`     // operation id (0 outside an operation)
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	id       int64
	name     spanName
	start    int64
	children int64 // ns covered by finished child spans
}

// agg is the per-name aggregate: span count, total and self time.
type agg struct {
	n           int64
	total, self int64
}

// tracer records spans from the single driving goroutine of a run. A
// disabled tracer costs one branch per call.
type tracer struct {
	on       bool
	base     time.Time
	nextID   int64
	op       int64 // id of the last operation opened
	curOp    int64 // id of the open operation, 0 outside one
	stack    []openSpan
	agg      [numSpans]agg
	kept     []spanRec
	recorded int64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, base: time.Now(), stack: make([]openSpan, 0, 8)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span as a child of the innermost open one; a spanOp
// span opens a new operation.
func (t *tracer) begin(n spanName) {
	if !t.on {
		return
	}
	if n == spanOp {
		t.op++
		t.curOp = t.op
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, name: n, start: t.now()})
}

// end closes the innermost open span, crediting its duration to the
// parent's covered time so self time excludes children.
func (t *tracer) end() {
	if !t.on {
		return
	}
	end := t.now()
	top := len(t.stack) - 1
	s := t.stack[top]
	t.stack = t.stack[:top]
	dur := end - s.start
	a := &t.agg[s.name]
	a.n++
	a.total += dur
	a.self += dur - s.children
	var parent int64
	if top > 0 {
		t.stack[top-1].children += dur
		parent = t.stack[top-1].id
	}
	t.recorded++
	if a.n <= keptPerName {
		t.kept = append(t.kept, spanRec{ID: s.id, Parent: parent, Op: t.curOp,
			Name: spanNames[s.name], Start: s.start, End: end})
	}
	if s.name == spanOp {
		t.curOp = 0
	}
}

// meanUs is the mean duration of the named span in microseconds.
func (t *tracer) meanUs(n spanName) float64 {
	a := t.agg[n]
	if a.n == 0 {
		return 0
	}
	return float64(a.total) / float64(a.n) / 1e3
}

// meanS is the mean duration of the named span in seconds.
func (t *tracer) meanS(n spanName) float64 { return t.meanUs(n) / 1e6 }

func (t *tracer) writeJSONL(w io.Writer, phase string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.kept {
		if err := enc.Encode(struct {
			Phase string `json:"phase"`
			spanRec
		}{phase, s}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
