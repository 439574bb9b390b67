package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"eventopt/internal/codegen/gen"
	"eventopt/internal/codegen/genplan"
	"eventopt/internal/core"
	"eventopt/internal/seccomm"
	"eventopt/internal/video"
)

// CodegenRow compares one drive pattern across the three execution
// tiers: generic dispatch, the compiled-closure (HIR) tier, and the
// ahead-of-time generated-Go tier.
type CodegenRow struct {
	Workload    string  `json:"workload"`
	Op          string  `json:"op"`
	GenericNs   float64 `json:"generic_ns_per_op"`
	ClosureNs   float64 `json:"closure_ns_per_op"`
	GeneratedNs float64 `json:"generated_ns_per_op"`
	VsClosure   float64 `json:"vs_closure"` // closure / generated
	VsGeneric   float64 `json:"vs_generic"` // generic / generated
}

// CodegenReport is the serializable result of RunCodegen (uploaded by CI
// as BENCH_codegen.json).
type CodegenReport struct {
	CPUs        int          `json:"cpus"`
	Iters       int          `json:"iters"`
	Rows        []CodegenRow `json:"rows"`
	BestClosure float64      `json:"best_vs_closure"`
	GateSpeedup float64      `json:"gate_speedup"`
	Pass        bool         `json:"pass"`
}

// WriteJSON serializes the report (indented, trailing newline).
func (r *CodegenReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

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

// RunCodegen measures the AOT generated-Go tier against the
// compiled-closure tier and generic dispatch on both golden workloads
// (the Fig. 11 and Fig. 12 drive patterns). The gate requires the
// generated tier to beat closures by CodegenGateSpeedup somewhere and to
// never lose to generic dispatch; loaded CI machines get a few attempts
// and the best rows count.
func RunCodegen(w io.Writer, iters int) (*CodegenReport, error) {
	rep := &CodegenReport{
		CPUs: runtime.NumCPU(), Iters: iters, GateSpeedup: CodegenGateSpeedup,
	}

	type opSpec struct {
		workload, op string
		fs           [3]func()
	}
	collect := func() ([]opSpec, error) {
		sGen, sClo, sAot, err := codegenSeccomm()
		if err != nil {
			return nil, err
		}
		vGen, vClo, vAot, err := codegenVideo()
		if err != nil {
			return nil, err
		}
		msg := make([]byte, 256)
		specs := []opSpec{
			{"seccomm", "push", [3]func(){seccommPushOp(sGen, msg), seccommPushOp(sClo, msg), seccommPushOp(sAot, msg)}},
			{"seccomm", "pop", [3]func(){seccommPopOp(sGen, msg), seccommPopOp(sClo, msg), seccommPopOp(sAot, msg)}},
		}
		for _, op := range []string{"Adapt", "SegFromUser", "Seg2Net"} {
			specs = append(specs, opSpec{"video", op, [3]func(){videoOp(vGen, op), videoOp(vClo, op), videoOp(vAot, op)}})
		}
		return specs, nil
	}

	var rows []CodegenRow
	best := 0.0
	pass := false
	for try := 0; try < 4 && !pass; try++ {
		specs, err := collect()
		if err != nil {
			return nil, err
		}
		rows = rows[:0]
		best = 0.0
		neverSlower := true
		for _, sp := range specs {
			d := measureTriple(iters, sp.fs)
			row := CodegenRow{
				Workload:    sp.workload,
				Op:          sp.op,
				GenericNs:   float64(d[0].Nanoseconds()),
				ClosureNs:   float64(d[1].Nanoseconds()),
				GeneratedNs: float64(d[2].Nanoseconds()),
			}
			if row.GeneratedNs > 0 {
				row.VsClosure = row.ClosureNs / row.GeneratedNs
				row.VsGeneric = row.GenericNs / row.GeneratedNs
			}
			if row.VsClosure > best {
				best = row.VsClosure
			}
			if row.VsGeneric < 1.0 {
				neverSlower = false
			}
			rows = append(rows, row)
		}
		pass = best >= CodegenGateSpeedup && neverSlower
	}
	rep.Rows = rows
	rep.BestClosure = best
	rep.Pass = pass

	header(w, fmt.Sprintf("Generated-code tier vs closure tier vs generic (%d iters)", iters))
	fmt.Fprintf(w, "%-10s %-12s %12s %12s %12s %10s %10s\n",
		"workload", "op", "generic", "closure", "generated", "vs clos", "vs gen")
	for _, row := range rep.Rows {
		fmt.Fprintf(w, "%-10s %-12s %11.1fn %11.1fn %11.1fn %9.2fx %9.2fx\n",
			row.Workload, row.Op, row.GenericNs, row.ClosureNs, row.GeneratedNs,
			row.VsClosure, row.VsGeneric)
	}
	fmt.Fprintf(w, "best generated-vs-closure speedup: %.2fx (gate %.2fx)\n", rep.BestClosure, rep.GateSpeedup)

	if !rep.Pass {
		return rep, fmt.Errorf("codegen gate failed: best vs-closure %.2fx (want >= %.2fx) or generated lost to generic",
			rep.BestClosure, rep.GateSpeedup)
	}
	return rep, nil
}
