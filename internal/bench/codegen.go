package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"eventopt/internal/codegen/gen"
	"eventopt/internal/codegen/genplan"
	"eventopt/internal/core"
	"eventopt/internal/seccomm"
	"eventopt/internal/video"
)

// CodegenGateSpeedup is the CI budget: on at least one workload drive
// the generated tier must beat the compiled-closure tier by this much,
// and it must never lose to generic dispatch anywhere.
const CodegenGateSpeedup = 1.1

// codegenSeccomm builds the three seccomm tiers, all primed with the
// identical genplan profiling drive so protocol state matches.
func codegenSeccomm() (generic, closure, generated *seccomm.Endpoint, err error) {
	build := func(tier string) (*seccomm.Endpoint, error) {
		e, err := genplan.SecCommEndpoint()
		if err != nil {
			return nil, err
		}
		plan, err := genplan.SecCommPlan(e)
		if err != nil {
			return nil, err
		}
		switch tier {
		case "generic":
		case "closure":
			for _, entry := range plan.Entries {
				sh, err := core.BuildSuper(e.Sys, e.Mod, entry, plan.Options())
				if err != nil {
					return nil, err
				}
				if err := e.Sys.InstallFastPath(sh); err != nil {
					return nil, err
				}
			}
		case "generated":
			if _, err := core.InstallGenerated(e.Sys, e.Mod, gen.SeccommSupers()); err != nil {
				return nil, err
			}
		}
		return e, nil
	}
	if generic, err = build("generic"); err != nil {
		return
	}
	if closure, err = build("closure"); err != nil {
		return
	}
	generated, err = build("generated")
	return
}

// codegenVideo builds the three video-player tiers on the Fig. 11
// configuration, primed with the genplan 200-frame profiling run.
func codegenVideo() (generic, closure, generated *video.Player, err error) {
	build := func(tier string) (*video.Player, error) {
		p, err := genplan.VideoPlayer()
		if err != nil {
			return nil, err
		}
		plan, err := genplan.VideoPlan(p)
		if err != nil {
			return nil, err
		}
		switch tier {
		case "generic":
		case "closure":
			for _, entry := range plan.Entries {
				sh, err := core.BuildSuper(p.Sender.Sys, p.Sender.Mod, entry, plan.Options())
				if err != nil {
					return nil, err
				}
				if err := p.Sender.Sys.InstallFastPath(sh); err != nil {
					return nil, err
				}
			}
		case "generated":
			if _, err := core.InstallGenerated(p.Sender.Sys, p.Sender.Mod, gen.VideoplayerSupers()); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	if generic, err = build("generic"); err != nil {
		return
	}
	if closure, err = build("closure"); err != nil {
		return
	}
	generated, err = build("generated")
	return
}

// measureTriple interleaves three variants (generic, closure, generated)
// the way measurePair interleaves two, returning each one's best
// per-call duration.
func measureTriple(n int, fs [3]func()) [3]time.Duration {
	warm := n / 10
	if warm < 1 {
		warm = 1
	}
	for i := 0; i < warm; i++ {
		fs[0]()
		fs[1]()
		fs[2]()
	}
	const passes = 5
	per := n / passes
	if per < 1 {
		per = 1
	}
	var best [3]time.Duration
	for p := 0; p < passes; p++ {
		for v := 0; v < 3; v++ {
			runtime.GC()
			t0 := time.Now()
			for i := 0; i < per; i++ {
				fs[v]()
			}
			d := time.Since(t0) / time.Duration(per)
			if best[v] == 0 || d < best[v] {
				best[v] = d
			}
		}
	}
	return best
}

// seccommPushOp drives one push through an endpoint (send side of the
// Fig. 12 table).
func seccommPushOp(e *seccomm.Endpoint, msg []byte) func() {
	e.OnSend(func([]byte) {})
	e.Push(msg) // dummy initialization push, as in Fig. 12
	return func() { e.Push(msg) }
}

// seccommPopOp replays one captured packet through the receive chain.
func seccommPopOp(e *seccomm.Endpoint, msg []byte) func() {
	var pkt []byte
	e.OnSend(func(p []byte) { pkt = append([]byte(nil), p...) })
	e.Push(msg)
	e.OnDeliver(func([]byte) {})
	return func() {
		e.HandlePacket(pkt)
		e.Sys.Drain()
	}
}

// videoOp returns the Fig. 11 drive for one hot event of the player.
func videoOp(p *video.Player, name string) func() {
	s := p.Sender
	seg := make([]byte, 900)
	seq := s.Seq() + 1e6
	switch name {
	case "Adapt":
		return func() {
			s.Sys.Raise(s.Ev.Adapt)
			s.Sys.DrainFor(s.Sys.Now())
		}
	case "SegFromUser":
		i := 0
		return func() {
			s.Sys.Raise(s.Ev.SegFromUser, evA("seg", seg), evA("len", len(seg)))
			if i++; i&63 == 0 {
				s.Sys.DrainFor(s.Sys.Now() + s.Cfg.RTT + 1e6)
			}
		}
	case "Seg2Net":
		i := 0
		return func() {
			seq++
			s.Sys.Raise(s.Ev.Seg2Net, evA("seg", seg), evA("seq", seq), evA("fec", 0))
			if i++; i&63 == 0 {
				s.Sys.DrainFor(s.Sys.Now() + s.Cfg.RTT + 1e6)
			}
		}
	}
	return nil
}

// sampleCodegen measures the AOT generated-Go tier against the
// compiled-closure tier and generic dispatch on both golden workloads
// (the Fig. 11 and Fig. 12 drive patterns). The codegen gate requires
// the generated tier to beat closures by CodegenGateSpeedup on its best
// drive (best_vs_closure) and never to lose to generic dispatch
// (worst_vs_generic).
func sampleCodegen(w io.Writer, iters int) (Metrics, error) {
	sGen, sClo, sAot, err := codegenSeccomm()
	if err != nil {
		return nil, err
	}
	vGen, vClo, vAot, err := codegenVideo()
	if err != nil {
		return nil, err
	}
	type drive struct {
		name string
		fs   [3]func() // generic, closure, generated
	}
	msg := make([]byte, 256)
	specs := []drive{
		{"seccomm.push", [3]func(){seccommPushOp(sGen, msg), seccommPushOp(sClo, msg), seccommPushOp(sAot, msg)}},
		{"seccomm.pop", [3]func(){seccommPopOp(sGen, msg), seccommPopOp(sClo, msg), seccommPopOp(sAot, msg)}},
	}
	for _, op := range []string{"Adapt", "SegFromUser", "Seg2Net"} {
		specs = append(specs, drive{"video." + op, [3]func(){videoOp(vGen, op), videoOp(vClo, op), videoOp(vAot, op)}})
	}

	header(w, fmt.Sprintf("Generated-code tier vs closure tier vs generic (%d iters)", iters))
	fmt.Fprintf(w, "%-22s %12s %12s %12s %10s %10s\n",
		"drive", "generic", "closure", "generated", "vs clos", "vs gen")
	m := Metrics{"best_vs_closure": 0, "worst_vs_generic": math.Inf(1)}
	for _, sp := range specs {
		d := measureTriple(iters, sp.fs)
		gen, clo, aot := ns(d[0]), ns(d[1]), ns(d[2])
		vsClo, vsGen := clo/aot, gen/aot
		m[sp.name+".generic_ns"], m[sp.name+".closure_ns"], m[sp.name+".generated_ns"] = gen, clo, aot
		m[sp.name+".vs_closure"], m[sp.name+".vs_generic"] = vsClo, vsGen
		m["best_vs_closure"] = math.Max(m["best_vs_closure"], vsClo)
		m["worst_vs_generic"] = math.Min(m["worst_vs_generic"], vsGen)
		fmt.Fprintf(w, "%-22s %11.1fn %11.1fn %11.1fn %9.2fx %9.2fx\n", sp.name, gen, clo, aot, vsClo, vsGen)
	}
	fmt.Fprintf(w, "best generated-vs-closure speedup: %.2fx\n", m["best_vs_closure"])
	return m, nil
}
