package main

import (
	"testing"
	"time"
)

// These tests show that each workload's output checker counts one
// corrupted output as a failed operation, and a clean run as none.

func setupOrFatal(t *testing.T, w workload) {
	t.Helper()
	if err := w.setup(newTracer(false)); err != nil {
		t.Fatalf("setup: %v", err)
	}
	t.Cleanup(w.close)
}

func TestSeccommCorruptDeliveryFails(t *testing.T) {
	w := newSec(1, false)
	setupOrFatal(t, w)
	m := newMeter(time.Second, 1)
	w.batch(m, newTracer(false))
	if m.failed != 0 {
		t.Fatalf("clean batch: %d of %d failed", m.failed, m.ops)
	}
	corrupted := false
	w.b.OnDeliver(func(p []byte) {
		w.got = append(w.got[:0], p...)
		if !corrupted {
			w.got[0] ^= 1
			corrupted = true
		}
		w.delivered = true
	})
	m = newMeter(time.Second, 1)
	w.batch(m, newTracer(false))
	if m.failed != 1 {
		t.Fatalf("one corrupted delivery: %d of %d failed, want 1", m.failed, m.ops)
	}
}

func TestSeccommEndpointErrorFails(t *testing.T) {
	w := newSec(1, false)
	setupOrFatal(t, w)
	w.a.Errors++
	m := newMeter(time.Second, 1)
	w.op(m, newTracer(false))
	if m.failed != 1 {
		t.Fatalf("endpoint error: %d of %d failed, want 1", m.failed, m.ops)
	}
}

func TestRebindAuditMismatchFails(t *testing.T) {
	w := newSec(1, true)
	setupOrFatal(t, w)
	m := newMeter(time.Second, 1)
	for i := 0; i < 64; i++ {
		w.batch(m, newTracer(false))
	}
	w.settle(m)
	if m.failed != 0 || w.toggles == 0 {
		t.Fatalf("clean run: %d of %d failed after %d toggles", m.failed, m.ops, w.toggles)
	}
	w.audit[2]++ // one stale count: a fused body ran a handler it should not have
	w.settle(m)
	if m.failed != 1 {
		t.Fatalf("audit mismatch: %d failed, want 1", m.failed)
	}
}

func TestVideoCorruptSegmentFails(t *testing.T) {
	w := newVideo(1).(*videoWorkload)
	setupOrFatal(t, w)
	m := newMeter(time.Second, 1)
	w.settle(m)
	if m.failed != 0 {
		t.Fatalf("clean run: %d frames failed", m.failed)
	}
	s := w.sess
	corrupted := false
	s.r.OnFrame = func(seq int64, p []byte) {
		if !corrupted {
			p = append([]byte(nil), p...)
			p[len(p)-1] ^= 1
			corrupted = true
		}
		s.onFrame(seq, p)
	}
	w.op(m, newTracer(false))
	w.settle(m)
	if m.failed != 1 {
		t.Fatalf("one corrupted segment: %d of %d frames failed, want 1", m.failed, m.ops)
	}
}

func TestPipelineReorderAndLossFail(t *testing.T) {
	w := newPipeline(1).(*pipeline)
	setupOrFatal(t, w)
	m := newMeter(time.Second, 1)
	w.batch(m, newTracer(false))
	if m.failed != 0 {
		t.Fatalf("clean burst: %d of %d failed", m.failed, m.ops)
	}

	const n = 4
	w.got.Store(n)
	for k := 0; k < n; k++ {
		w.arr[k] = int32(k)
	}
	w.arr[1], w.arr[2] = 2, 1
	m = newMeter(time.Second, 1)
	w.check(m, n)
	if m.failed != 2 {
		t.Fatalf("two swapped events: %d of %d failed, want 2", m.failed, m.ops)
	}

	w.got.Store(n - 1)
	w.arr[1], w.arr[2] = 1, 2
	m = newMeter(time.Second, 1)
	w.check(m, n)
	if m.failed != n {
		t.Fatalf("one lost event: %d of %d failed, want the whole burst", m.failed, m.ops)
	}
}
