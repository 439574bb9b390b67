package bench

import (
	"bytes"
	"fmt"

	"eventopt/internal/profile"
	"strings"
	"testing"
	"time"
)

func TestRunFig5ProducesGraph(t *testing.T) {
	var buf bytes.Buffer
	g, err := RunFig5(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < 12 {
		t.Errorf("nodes = %d, want the Fig. 5 vocabulary", g.NumNodes())
	}
	out := buf.String()
	for _, want := range []string{"SegFromUser", "Seg2Net", "ControllerFiring", "digraph"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig6ReducesToHotSpine(t *testing.T) {
	var buf bytes.Buffer
	r, err := RunFig6(&buf, 300, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumEdges() == 0 {
		t.Fatal("reduced graph empty at threshold 300")
	}
	// Every surviving edge is hot.
	for _, e := range r.Edges() {
		if e.Weight < 300 {
			t.Errorf("edge below threshold survived: %+v", e)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "SegFromUser") || !strings.Contains(out, "event chains") {
		t.Errorf("output incomplete:\n%s", out)
	}
	// Startup events (weight-1 edges) must be gone.
	if strings.Contains(out, "AddSysInput") {
		t.Error("cold startup edge survived reduction")
	}
}

func TestRunFig10ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	retryShape(t, func(t *testing.T) string {
		var buf bytes.Buffer
		rows, err := RunFig10(&buf, 120)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
		var handlerOrig, handlerOpt time.Duration
		for _, r := range rows {
			handlerOrig += r.OrigHandler
			handlerOpt += r.OptHandler
			if float64(r.OptHandler) > float64(r.OrigHandler)*1.05 {
				return fmt.Sprintf("rate %d: handler time regressed: %v vs %v", r.Rate, r.OptHandler, r.OrigHandler)
			}
			if r.OptTotal > r.OrigTotal {
				return fmt.Sprintf("rate %d: total regressed: %v vs %v", r.Rate, r.OptTotal, r.OrigTotal)
			}
		}
		if handlerOpt >= handlerOrig {
			return fmt.Sprintf("aggregate handler time not improved: %v vs %v", handlerOpt, handlerOrig)
		}
		// Idle absorbs savings at 10fps: totals nearly equal there; the
		// busy-bound top rate must show a larger relative win.
		lowGain := float64(rows[0].OrigTotal-rows[0].OptTotal) / float64(rows[0].OrigTotal)
		highGain := float64(rows[3].OrigTotal-rows[3].OptTotal) / float64(rows[3].OrigTotal)
		if highGain < lowGain {
			return fmt.Sprintf("crossover shape violated: low-rate gain %.3f, high-rate gain %.3f", lowGain, highGain)
		}
		return ""
	})
}

func TestRunFig11SpeedupsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	retryShape(t, func(t *testing.T) string {
		var buf bytes.Buffer
		rows, err := RunFig11(&buf, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("rows = %d", len(rows))
		}
		// Sub-microsecond events tie occasionally under load; demand a
		// clear aggregate win and no meaningful per-event regression.
		var sumOrig, sumOpt time.Duration
		for _, r := range rows {
			sumOrig += r.Orig
			sumOpt += r.Opt
			if float64(r.Opt) > float64(r.Orig)*1.25 {
				return fmt.Sprintf("%s: regression: orig %v opt %v", r.Event, r.Orig, r.Opt)
			}
		}
		if sumOpt >= sumOrig {
			return fmt.Sprintf("aggregate event time not improved: %v vs %v", sumOpt, sumOrig)
		}
		return ""
	})
}

func TestRunFig12ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	retryShape(t, runFig12Shapes)
}

// retryShape runs a timing-shape check with one retry: margins of a few
// percent can be poisoned by a sustained interference burst on a shared
// machine; a real regression fails both attempts.
func retryShape(t *testing.T, f func(*testing.T) string) {
	t.Helper()
	first := f(t)
	if first == "" {
		return
	}
	if second := f(t); second == "" {
		t.Logf("first attempt flaked (%s), retry passed", first)
		return
	}
	t.Error(first)
}

// runFig12Shapes returns "" when the shapes hold, else the failure text.
func runFig12Shapes(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	rows, err := RunFig12(&buf, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	var pushOrig, pushOpt, popOrig, popOpt time.Duration
	for _, r := range rows {
		// Crypto dominates: time grows with size on both paths.
		if r.Size >= 512 && r.PushOrig < rows[0].PushOrig {
			return fmt.Sprintf("push time does not grow with size: %+v", r)
		}
		// The event-path savings are visible while packets are small;
		// from ~512 bytes up the cipher dominates and rows tie under
		// noise, so the strict assertion covers the small sizes.
		if r.Size > 256 {
			continue
		}
		pushOrig += r.PushOrig
		pushOpt += r.PushOpt
		popOrig += r.PopOrig
		popOpt += r.PopOpt
	}
	// The paper's improvements are a few percent to ~13% because the
	// cryptographic work dominates; individual rows can tie under noise,
	// but the aggregate must improve.
	if pushOpt >= pushOrig {
		return fmt.Sprintf("aggregate push not improved: %v vs %v", pushOpt, pushOrig)
	}
	// The pop path re-enters through a Drain and is the noisier of the
	// two; demand no meaningful regression there.
	if float64(popOpt) > float64(popOrig)*1.05 {
		return fmt.Sprintf("aggregate pop regressed: %v vs %v", popOpt, popOrig)
	}
	return ""
}

func TestRunFig13ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	retryShape(t, func(t *testing.T) string {
		var buf bytes.Buffer
		rows, err := RunFig13(&buf, 2000) // the paper used 250; more smooths noise
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 || rows[0].Event != "Scroll" || rows[1].Event != "Popup" {
			t.Fatalf("rows = %+v", rows)
		}
		var sumOrig, sumOpt time.Duration
		for _, r := range rows {
			sumOrig += r.Orig
			sumOpt += r.Opt
			if float64(r.Opt) > float64(r.Orig)*1.25 {
				return fmt.Sprintf("%s: regression: %v vs %v", r.Event, r.Orig, r.Opt)
			}
		}
		if sumOpt >= sumOrig {
			return fmt.Sprintf("aggregate X event time not improved: %v vs %v", sumOpt, sumOrig)
		}
		return ""
	})
}

func TestRunOverheadPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	retryShape(t, func(t *testing.T) string {
		var buf bytes.Buffer
		share, err := RunOverhead(&buf, 150)
		if err != nil {
			t.Fatal(err)
		}
		if share <= 0 {
			return fmt.Sprintf("overhead share = %.3f, want > 0", share)
		}
		return ""
	})
}

func TestRunCodeSize(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunCodeSize(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "video player") || !strings.Contains(out, "seccomm") {
		t.Errorf("output:\n%s", out)
	}
}

func TestMeasureCodeSizeCountsFused(t *testing.T) {
	_, _, err := secCommPair(false)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := secCommPair(true)
	if err != nil {
		t.Fatal(err)
	}
	cs := MeasureCodeSize(a.Sys)
	if cs.Base == 0 || cs.Added == 0 {
		t.Errorf("code size = %+v", cs)
	}
	if cs.Growth() <= 0 {
		t.Error("growth should be positive")
	}
}

func TestRunFig8NestingShape(t *testing.T) {
	var buf bytes.Buffer
	g, err := RunFig8(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	edge := func(fe, fh, te, th string) *profile.HandlerEdge {
		return g.EdgeBetween(
			profile.HandlerNode{EventName: fe, Handler: fh},
			profile.HandlerNode{EventName: te, Handler: th})
	}
	// The unshaded sequence of Fig. 8...
	if e := edge("SegFromUser", "FEC-SFU1", "SegFromUser", "SeqSeg-SFU"); e == nil || e.Weight < 100 {
		t.Errorf("FEC-SFU1 -> SeqSeg-SFU edge = %+v", e)
	}
	if e := edge("SegFromUser", "SeqSeg-SFU", "SegFromUser", "TDriver-SFU"); e == nil {
		t.Error("SeqSeg-SFU -> TDriver-SFU missing")
	}
	// ...with the shaded Seg2Net sequence nested inside TDriver-SFU...
	if e := edge("SegFromUser", "TDriver-SFU", "Seg2Net", "PAU-S2N"); e == nil || e.Weight < 100 {
		t.Errorf("TDriver-SFU -> PAU-S2N (nesting) = %+v", e)
	}
	if e := edge("Seg2Net", "PAU-S2N", "Seg2Net", "WFC-S2N"); e == nil {
		t.Error("PAU-S2N -> WFC-S2N missing")
	}
	// ...and control returning to FEC-SFU2 afterwards.
	if e := edge("Seg2Net", "TD-S2N", "SegFromUser", "FEC-SFU2"); e == nil || e.Weight < 100 {
		t.Errorf("TD-S2N -> FEC-SFU2 (return) = %+v", e)
	}
	if !strings.Contains(buf.String(), "cluster_") {
		t.Error("DOT clusters missing")
	}
}
