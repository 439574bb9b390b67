package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"eventopt/internal/core"
	"eventopt/internal/ctp"
	"eventopt/internal/event"
	"eventopt/internal/span"
	"eventopt/internal/telemetry"
	"eventopt/internal/video"
)

const (
	videoRate          = 25  // frames per virtual second: the top rate of Figs. 10-11
	videoLossEvery     = 13  // every 13th transmission is lost: prime, so losses drift across FEC groups
	videoProfileFrames = 200 // frames in the profiling run, as RunFig10 uses
	videoWarmupFrames  = 512
	videoFramePool     = 96  // seeded frames, cycled: 32 each of 1, 2 and 3 segments
	videoMaxSegments   = 3   // frames are 1 to 3 MTU-sized segments
	videoBatch         = 8   // frames per batch
	videoScrapeEvery   = 256 // frames between telemetry and span scrapes
	sessionMinFrames   = 512 // frames before a playback session may close
)

// videoWorkload plays seeded frames through the CTP video player on its
// virtual clock, with loss, telemetry and span tracing on, and checks
// that a reassembling receiver delivers every data segment in order.
type videoWorkload struct {
	rng      splitmix
	frames   [][]byte
	s        *ctp.Sender
	interval event.Duration
	horizon  event.Duration
	i        int
	sess     *session

	plan planStats
}

// session is one playback session: a fresh reassembling receiver and
// the frames sent while it was attached, which it must deliver as one
// in-order byte stream.
type session struct {
	r       *ctp.Receiver
	frames  [][]byte
	fi, off int   // stream position: frame index and byte offset
	lastSeq int64 // last sequence number delivered
	bad     bool  // a delivery did not match the stream
}

func (s *session) onFrame(seq int64, payload []byte) {
	if s.bad {
		return
	}
	if seq <= s.lastSeq || s.fi >= len(s.frames) {
		s.bad = true
		return
	}
	f := s.frames[s.fi]
	if s.off+len(payload) > len(f) || !bytes.Equal(f[s.off:s.off+len(payload)], payload) {
		s.bad = true
		return
	}
	s.lastSeq = seq
	if s.off += len(payload); s.off == len(f) {
		s.fi, s.off = s.fi+1, 0
	}
}

// failedFrames is the number of frames of the session not delivered
// whole and in order; a mismatch fails every frame from it onwards.
func (s *session) failedFrames() int64 { return int64(len(s.frames) - s.fi) }

func newVideo(seed uint64) workload {
	w := &videoWorkload{rng: splitmix{s: seed}}
	cfg := ctp.DefaultConfig()
	w.frames = make([][]byte, videoFramePool)
	for i := range w.frames {
		w.frames[i] = make([]byte, cfg.MTU*(1+i%videoMaxSegments))
		w.rng.fill(w.frames[i])
	}
	w.rng.shuffle(videoFramePool, func(i, j int) { w.frames[i], w.frames[j] = w.frames[j], w.frames[i] })
	return w
}

func (w *videoWorkload) setup(tr *tracer) error {
	cfg := ctp.DefaultConfig()
	cfg.LossEvery = videoLossEvery
	cfg.MaxRetransmits = -1 // retry until delivered: loss never becomes a gap
	p, err := video.NewPlayer(cfg, videoRate, cfg.MTU*2,
		event.WithTelemetry(telemetry.Config{}), event.WithSpanTracing(span.Config{}))
	if err != nil {
		return err
	}
	w.s = p.Sender
	w.interval = event.Duration(int64(time.Second) / videoRate)

	if err := w.plan.optimizeOffline(tr, w.s.Sys, func() { p.Run(videoProfileFrames) },
		w.s.Sys, w.s.Mod, core.DefaultOptions()); err != nil {
		return err
	}

	tr.begin(spanWarmup)
	defer tr.end()
	w.horizon = w.s.Sys.Now()
	w.newSession()
	m := newMeter(0, 1)
	for w.i < videoWarmupFrames {
		w.batch(m, newTracer(false))
	}
	if m.failed > 0 {
		return fmt.Errorf("%d of %d warm-up frames failed their check", m.failed, m.ops)
	}
	return nil
}

// newSession attaches a fresh receiver at the sender's current
// position. Late retransmissions of segments an earlier session already
// resolved are dropped before they reach it.
func (w *videoWorkload) newSession() {
	start := w.s.Seq() + 1
	s := &session{r: ctp.NewReceiverAt(w.s.Cfg.FECInterval, start), lastSeq: start - 1}
	s.r.OnFrame = s.onFrame
	w.s.OnSegment(func(seq int64, payload []byte, parity bool) {
		if seq >= start {
			s.r.Segment(seq, payload, parity)
		}
	})
	w.sess = s
}

// closeSession closes the session once it is long enough and its
// receiver has resolved every sequence number sent (or when forced),
// failing the frames it did not deliver.
func (w *videoWorkload) closeSession(m *meter, force bool) {
	s := w.sess
	if !force && (len(s.frames) < sessionMinFrames || s.r.Next() != w.s.Seq()+1) {
		return
	}
	m.failed += s.failedFrames()
	w.newSession()
}

// op sends one frame and drains the protocol for one frame interval:
// acknowledgements, retransmission timers, the controller chain and
// sampling all fire inside the drain.
func (w *videoWorkload) op(m *meter, tr *tracer) {
	f := w.frames[w.i%videoFramePool]
	key := w.i%10 == 0
	w.i++
	w.sess.frames = append(w.sess.frames, f)
	w.horizon += w.interval

	tr.begin(spanOp)
	t0 := time.Now()
	tr.begin(spanSendFrame)
	w.s.SendFrame(f, key)
	tr.end()
	tr.begin(spanDrain)
	w.s.Sys.DrainFor(w.horizon)
	tr.end()
	ns := int64(time.Since(t0))
	tr.end()
	m.record(ns, true)
}

func (w *videoWorkload) batch(m *meter, tr *tracer) {
	for j := 0; j < videoBatch; j++ {
		w.op(m, tr)
		if w.i%videoScrapeEvery == 0 {
			tr.begin(spanTelemetrySnap)
			w.s.Sys.Telemetry().Events()
			tr.end()
			tr.begin(spanSpanStats)
			w.s.Sys.Spans().Stats()
			tr.end()
		}
	}
	tr.begin(spanCheck)
	w.closeSession(m, false)
	tr.end()
}

func (w *videoWorkload) counts() counts {
	c := newCounts()
	c.addStats(w.s.Sys.StatsAggregate())
	c.addTelemetry(w.s.Sys.Telemetry())
	st := w.s.Sys.Spans().Stats()
	c.v["roots_sampled"] = float64(st.RootsSampled)
	c.v["spans"] = float64(st.Spans)
	c.v["retained"] = float64(st.Retained)
	c.v["segments"] = float64(w.s.Stats.Segments)
	c.v["retransmits"] = float64(w.s.Stats.Retransmits)
	return c
}

// settle plays out the tail: one virtual second without new frames lets
// every retransmission land, then the last session must be complete.
func (w *videoWorkload) settle(m *meter) {
	w.horizon += event.Duration(time.Second)
	w.s.Sys.DrainFor(w.horizon)
	if w.sess.r.Next() != w.s.Seq()+1 {
		fmt.Printf("video: receiver stopped at seq %d of %d\n", w.sess.r.Next(), w.s.Seq())
	}
	w.closeSession(m, true)
}

func (w *videoWorkload) guard(d counts) error {
	switch {
	case d.droppedWork() > 0:
		return fmt.Errorf("%v activations panicked, dead-lettered or dropped", d.droppedWork())
	case d.v["fast_runs"] == 0:
		return errors.New("video never took an installed fast path")
	case d.v["roots_sampled"] == 0:
		return errors.New("video sampled no span root")
	case d.v["retransmits"] == 0:
		return errors.New("video never retransmitted a segment")
	}
	return nil
}

func (w *videoWorkload) layers(p *phase, out map[string]float64) {
	w.plan.report(out)
	ops := float64(p.m.ops)
	out["ctp.segments_per_op"] = p.delta.v["segments"] / ops
	out["ctp.retransmits_per_op"] = p.delta.v["retransmits"] / ops
	out["span.roots_sampled_per_op"] = p.delta.v["roots_sampled"] / ops
	out["span.spans_per_op"] = p.delta.v["spans"] / ops
	out["span.retained"] = p.delta.v["retained"]
}

func (w *videoWorkload) close() {}
