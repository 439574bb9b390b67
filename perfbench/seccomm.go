package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"eventopt/internal/adaptive"
	"eventopt/internal/ciphers"
	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/seccomm"
	"eventopt/internal/telemetry"
)

const (
	msgPool        = 256 // distinct seeded messages, cycled; small enough to stay in cache
	profileMsgs    = 50  // messages per endpoint in the profiling run (as in Fig. 12)
	secWarmupOps   = 512
	secBatch       = 16
	rebindTickMsgs = 256 // messages between adaptive ticks
	auditOrder     = 25  // audit handler position among the privacy stages
	maxPlanTicks   = 64  // ticks allowed for the adaptive optimizer to converge
	floorPasses    = 16  // passes of the cipher floor over the message pool
)

// secConfig is the paper's Fig. 12 configuration: coordinator + DES + XOR.
func secConfig() seccomm.Config {
	return seccomm.Config{
		DESKey: []byte("8bytekey"),
		XORKey: []byte{0x5A, 0xA5, 0x3C},
		IV:     []byte("initvect"),
	}
}

// secMessages makes n seeded messages of 64 to 2048 bytes, skewed
// small: the size is 64·2^(5u²). The u are stratified, one per n-th of
// [0,1), and shuffled, so the seed changes the order and contents of the
// messages but hardly their size distribution.
func secMessages(r *splitmix, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		u := (float64(i) + r.float()) / float64(n)
		out[i] = make([]byte, int(64*math.Exp2(5*u*u)))
		r.fill(out[i])
	}
	r.shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// secWorkload drives a SecComm endpoint pair. In the seccomm workload
// the pair is optimized offline as RunFig12 does it and every message
// goes from A to B; in rebind the adaptive optimizer replaces the
// offline plan, messages go both ways, and an audit handler is bound
// and unbound on a seeded schedule.
type secWorkload struct {
	rebind bool
	rng    splitmix
	msgs   [][]byte
	dirs   []bool // rebind: true sends from B to A (half of them)
	a, b   *seccomm.Endpoint
	ctl    []*adaptive.Controller

	i         int
	pkt, got  []byte
	delivered bool
	errBase   int

	// Set-up outcome of the last build.
	plan        planStats
	ticksToPlan int

	// rebind: audit handlers on A.PushMsg, A.PopMsg, B.PushMsg, B.PopMsg.
	audit, expect [4]int64
	bindings      [4]event.Binding
	bound         bool
	nextToggle    int
	sinceTick     int
	toggles       int
}

func newSeccomm(seed uint64) workload { return newSec(seed, false) }
func newRebind(seed uint64) workload  { return newSec(seed, true) }

func newSec(seed uint64, rebind bool) *secWorkload {
	w := &secWorkload{rebind: rebind, rng: splitmix{s: seed}}
	w.msgs = secMessages(&w.rng, msgPool)
	w.dirs = make([]bool, msgPool)
	if rebind {
		for i := range w.dirs {
			w.dirs[i] = i%2 == 1
		}
		w.rng.shuffle(msgPool, func(i, j int) { w.dirs[i], w.dirs[j] = w.dirs[j], w.dirs[i] })
		w.nextToggle = w.toggleGap()
	}
	return w
}

// toggleGap draws the seeded number of messages until the next audit
// bind or unbind: 200 to 599.
func (w *secWorkload) toggleGap() int { return 200 + w.rng.intn(400) }

func (w *secWorkload) setup(tr *tracer) error {
	var opts []event.Option
	if w.rebind {
		opts = append(opts, event.WithTelemetry(telemetry.Config{}))
	}
	var err error
	if w.a, err = seccomm.New(secConfig(), opts...); err != nil {
		return err
	}
	if w.b, err = seccomm.New(secConfig(), opts...); err != nil {
		return err
	}
	if w.rebind {
		for _, e := range []*seccomm.Endpoint{w.a, w.b} {
			c, err := adaptive.New(e.Sys, e.Mod, adaptive.Policy{})
			if err != nil {
				return err
			}
			w.ctl = append(w.ctl, c)
		}
	} else {
		prof := secMessages(&splitmix{s: w.rng.next()}, profileMsgs)
		for _, e := range []*seccomm.Endpoint{w.a, w.b} {
			if err := w.optimize(e, prof, tr); err != nil {
				return err
			}
		}
	}
	w.wire()

	tr.begin(spanWarmup)
	defer tr.end()
	m := newMeter(0, 1)
	for i := 0; i < secWarmupOps; i++ {
		w.op(m, newTracer(false))
	}
	if w.rebind {
		for w.ticksToPlan = 1; ; w.ticksToPlan++ {
			w.batch(m, newTracer(false))
			for w.sinceTick != 0 {
				w.batch(m, newTracer(false))
			}
			if w.converged() {
				break
			}
			if w.ticksToPlan == maxPlanTicks {
				return fmt.Errorf("adaptive optimizer installed no plan on both endpoints in %d ticks", maxPlanTicks)
			}
		}
	}
	if m.failed > 0 {
		return fmt.Errorf("%d of %d warm-up messages failed their check", m.failed, m.ops)
	}
	return nil
}

// optimize profiles one endpoint on its own push and pop of msgs and
// installs the plan exactly as RunFig12 does: every handler carries HIR,
// so full fusion with merging everywhere applies.
func (w *secWorkload) optimize(e *seccomm.Endpoint, msgs [][]byte, tr *tracer) error {
	var pkt []byte
	e.OnSend(func(p []byte) { pkt = append(pkt[:0], p...) })
	defer e.OnSend(nil)
	opts := core.DefaultOptions()
	opts.MergeAll = true
	opts.FullFusion = true
	opts.Partitioned = false
	return w.plan.optimizeOffline(tr, e.Sys, func() {
		for _, msg := range msgs {
			e.Push(msg)
			e.HandlePacket(pkt)
		}
	}, e.Sys, e.Mod, opts)
}

// wire routes each endpoint's push output into the benchmark and its
// pop output into the delivery buffer the checker reads.
func (w *secWorkload) wire() {
	for _, e := range []*seccomm.Endpoint{w.a, w.b} {
		e.OnSend(func(p []byte) { w.pkt = append(w.pkt[:0], p...) })
		e.OnDeliver(func(p []byte) {
			w.got = append(w.got[:0], p...)
			w.delivered = true
		})
	}
	w.errBase = w.a.Errors + w.b.Errors
}

// converged reports whether the adaptive optimizer has installed plans
// on both endpoints for both the push and the pop entry.
func (w *secWorkload) converged() bool {
	for _, c := range w.ctl {
		if len(c.InstalledEntries()) < 2 {
			return false
		}
	}
	return true
}

// op sends one message from one endpoint to the other and checks that
// the bytes delivered are the bytes sent.
func (w *secWorkload) op(m *meter, tr *tracer) {
	k := w.i % msgPool
	w.i++
	msg, from, to := w.msgs[k], w.a, w.b
	if w.dirs[k] {
		from, to = w.b, w.a
	}
	w.pkt, w.delivered = w.pkt[:0], false

	tr.begin(spanOp)
	t0 := time.Now()
	tr.begin(spanPush)
	from.Push(msg)
	tr.end()
	tr.begin(spanPop)
	to.HandlePacket(w.pkt)
	tr.end()
	ns := int64(time.Since(t0))
	tr.begin(spanCheck)
	ok := len(w.pkt) > 0 && w.delivered && bytes.Equal(w.got, msg) && w.a.Errors+w.b.Errors == w.errBase
	tr.end()
	tr.end()
	m.record(ns, ok)
	w.errBase = w.a.Errors + w.b.Errors

	if w.bound {
		if from == w.a {
			w.expect[0]++
			w.expect[3]++
		} else {
			w.expect[2]++
			w.expect[1]++
		}
	}
}

func (w *secWorkload) batch(m *meter, tr *tracer) {
	for j := 0; j < secBatch; j++ {
		w.op(m, tr)
		if !w.rebind {
			continue
		}
		if w.nextToggle--; w.nextToggle == 0 {
			w.toggle(m, tr)
			w.nextToggle = w.toggleGap()
		}
		if w.sinceTick++; w.sinceTick == rebindTickMsgs {
			w.sinceTick = 0
			for _, c := range w.ctl {
				tr.begin(spanAdaptiveTick)
				c.Tick()
				tr.end()
			}
		}
	}
}

// auditEvents lists the events the audit handler binds to, in the
// order of the audit/expect arrays.
func (w *secWorkload) auditEvents() [4]struct {
	sys *event.System
	ev  event.ID
} {
	return [4]struct {
		sys *event.System
		ev  event.ID
	}{{w.a.Sys, w.a.PushMsg}, {w.a.Sys, w.a.PopMsg}, {w.b.Sys, w.b.PushMsg}, {w.b.Sys, w.b.PopMsg}}
}

// toggle binds or unbinds the audit handlers, after checking that each
// counted exactly the messages sent while it was bound.
func (w *secWorkload) toggle(m *meter, tr *tracer) {
	w.checkAudit(m)
	for k, t := range w.auditEvents() {
		tr.begin(spanBind)
		if w.bound {
			if err := t.sys.Unbind(w.bindings[k]); err != nil {
				m.failed++
			}
		} else {
			k := k
			w.bindings[k] = t.sys.Bind(t.ev, "audit", func(*event.Ctx) { w.audit[k]++ }, event.WithOrder(auditOrder))
		}
		tr.end()
	}
	w.bound = !w.bound
	w.toggles++
}

// checkAudit fails one operation per message an audit handler missed or
// counted twice; a mismatch means a stale fused body ran.
func (w *secWorkload) checkAudit(m *meter) {
	for k := range w.audit {
		if d := w.audit[k] - w.expect[k]; d != 0 {
			m.failed += max(d, -d)
			w.audit[k] = w.expect[k]
		}
	}
}

func (w *secWorkload) counts() counts {
	c := newCounts()
	for _, e := range []*seccomm.Endpoint{w.a, w.b} {
		c.addStats(e.Sys.StatsAggregate())
		c.addTelemetry(e.Sys.Telemetry())
	}
	for _, ctl := range w.ctl {
		s := ctl.Snapshot()
		c.v["replans"] += float64(s.Replans)
		c.v["promotions"] += float64(s.Promotions)
	}
	c.v["toggles"] = float64(w.toggles)
	return c
}

func (w *secWorkload) settle(m *meter) { w.checkAudit(m) }

func (w *secWorkload) guard(d counts) error {
	if d.droppedWork() > 0 {
		return fmt.Errorf("%v activations panicked, dead-lettered or dropped", d.droppedWork())
	}
	if !w.rebind {
		if d.v["async_raises"] != 0 {
			return fmt.Errorf("seccomm made %v async raises; it must stay synchronous", d.v["async_raises"])
		}
		if d.v["fast_runs"] == 0 {
			return errors.New("seccomm never took an installed fast path")
		}
		return nil
	}
	if d.v["fallbacks"]+d.v["seg_fallbacks"] == 0 {
		return errors.New("rebind never fell back from a stale guard")
	}
	if d.v["replans"] == 0 {
		return errors.New("rebind never re-planned after a binding change")
	}
	return nil
}

// layers adds the set-up counts and, for the traced phase, the cipher
// floor: DES+XOR encryption and decryption of the pooled messages,
// called directly floorPasses times over, against which push+pop time is
// the event-system overhead of the paper's section 1. Both are means
// over the same message pool, so the overhead is a difference of means.
func (w *secWorkload) layers(p *phase, out map[string]float64) {
	w.plan.report(out)
	out["adaptive.ticks_to_plan"] = float64(w.ticksToPlan)

	cfg := secConfig()
	des, err := ciphers.NewDES(cfg.DESKey)
	if err != nil {
		panic(err) // the key is a constant of the benchmark
	}
	xor := ciphers.NewXOR(cfg.XORKey)
	tr := p.tracer
	for pass := 0; pass < floorPasses; pass++ {
		for _, msg := range w.msgs {
			tr.begin(spanCipherFloor)
			ct, _ := des.EncryptCBC(cfg.IV, msg)
			ct = xor.Apply(ct)
			pt, _ := des.DecryptCBC(cfg.IV, xor.Apply(ct))
			tr.end()
			if !bytes.Equal(pt, msg) {
				panic("perfbench: cipher floor did not round-trip")
			}
		}
	}
	floor := tr.meanUs(spanCipherFloor)
	out["ciphers.floor_us"] = floor
	out["seccomm.overhead_us"] = tr.meanUs(spanPush) + tr.meanUs(spanPop) - floor
}

func (w *secWorkload) close() {
	for _, c := range w.ctl {
		c.Close()
	}
}
