package explore

import (
	"fmt"
	"sort"

	"eventopt/internal/adaptive"
	"eventopt/internal/core"
	"eventopt/internal/ctp"
	"eventopt/internal/event"
	"eventopt/internal/profile"
	"eventopt/internal/seccomm"
	"eventopt/internal/telemetry"
	"eventopt/internal/trace"
)

// This file defines the explorable workloads: seccomm, the video-player
// transport, a rebind-churn workload driven by the adaptive controller,
// and a quarantine/dead-letter fault ladder. Each scenario builds
// deterministically (virtual clocks, fixed keys and payloads), so the
// explorer can replay any schedule prefix exactly.

func sysOpts(vc *event.VirtualClock, domains int, hook event.SchedHook, extra ...event.Option) []event.Option {
	opts := []event.Option{event.WithClock(vc), event.WithDomains(domains)}
	if hook != nil {
		opts = append(opts, event.WithSchedHook(hook))
	}
	return append(opts, extra...)
}

// seccommConfig is the XOR-only endpoint configuration: the privacy
// transform is cheap and deterministic, which keeps per-schedule cost
// low without changing the chain structure the optimizer sees.
func seccommConfig() seccomm.Config {
	return seccomm.Config{XORKey: []byte("explore-key")}
}

// seccommProfile runs a throwaway endpoint through both chains and
// returns the analyzed profile. Ciphertexts of the given messages are
// returned alongside, for injecting packets during exploration.
func seccommProfile(packets [][]byte) (*profile.Profile, [][]byte, error) {
	ep, err := seccomm.New(seccommConfig())
	if err != nil {
		return nil, nil, err
	}
	var lastPkt []byte
	ep.OnSend(func(pkt []byte) { lastPkt = append([]byte(nil), pkt...) })

	cts := make([][]byte, len(packets))
	for i, msg := range packets {
		ep.Push(msg)
		cts[i] = lastPkt
	}

	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	ep.Sys.SetTracer(rec)
	for i := 0; i < 3; i++ {
		ep.Push([]byte("profile-push"))
		ep.HandlePacket(lastPkt)
	}
	ep.Sys.SetTracer(nil)
	prof, err := profile.Analyze(rec.Entries())
	return prof, cts, err
}

// SeccommScenario explores the secure-communication endpoint on two
// domains: the push chain enters through domain 0, the pop chain through
// domain 1 (IDs alternate across domains). One thread pushes
// application messages, another injects ciphertext packets from the
// link; the endpoint's own send output also loops back into the pop
// chain. The optimized variant installs the profile-directed plan over
// both chains.
func SeccommScenario() (Scenario, error) {
	prof, cts, err := seccommProfile([][]byte{[]byte("xray"), []byte("york"), []byte("zulu")})
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{
		Name: "seccomm",
		// Every domain step may run nested cross-domain raises.
		StepFP: func(int) Footprint { return TouchAll },
	}
	sc.Build = func(optimized bool, hook event.SchedHook) (*Instance, error) {
		vc := event.NewVirtualClock()
		ep, err := seccomm.New(seccommConfig(), sysOpts(vc, 2, hook)...)
		if err != nil {
			return nil, err
		}
		var delivered []string
		ep.OnDeliver(func(msg []byte) { delivered = append(delivered, string(msg)) })
		// Loop the link back: everything pushed comes around through the
		// pop chain as an asynchronous cross-domain handoff.
		ep.OnSend(func(pkt []byte) {
			ep.Sys.RaiseAsync(ep.MsgFromNet, event.A("msg", append([]byte(nil), pkt...)))
		})
		if optimized {
			if _, _, err := core.Apply(ep.Sys, prof, ep.Mod, core.DefaultOptions()); err != nil {
				return nil, err
			}
		}
		inst := &Instance{
			Sys:   ep.Sys,
			Clock: vc,
			Threads: []Thread{
				{Name: "sender", Ops: []Op{
					{Name: "push-alpha", FP: Dom(0), Run: func(*Instance) {
						ep.Sys.RaiseAsync(ep.MsgFromUser, event.A("msg", []byte("alpha")))
					}},
					{Name: "push-bravo", FP: Dom(0), Run: func(*Instance) {
						ep.Sys.RaiseAsync(ep.MsgFromUser, event.A("msg", []byte("bravo")))
					}},
					{Name: "push-coral", FP: Dom(0), Run: func(*Instance) {
						ep.Sys.RaiseAsync(ep.MsgFromUser, event.A("msg", []byte("coral")))
					}},
				}},
				{Name: "link", Ops: []Op{
					{Name: "pkt-xray", FP: Dom(1), Run: func(*Instance) {
						ep.Sys.RaiseAsync(ep.MsgFromNet, event.A("msg", cts[0]))
					}},
					{Name: "pkt-york", FP: Dom(1), Run: func(*Instance) {
						ep.Sys.RaiseAsync(ep.MsgFromNet, event.A("msg", cts[1]))
					}},
					{Name: "pkt-zulu", FP: Dom(1), Run: func(*Instance) {
						ep.Sys.RaiseAsync(ep.MsgFromNet, event.A("msg", cts[2]))
					}},
				}},
			},
			Observe: func() any {
				return struct {
					Delivered []string
					Errors    int
				}{delivered, ep.Errors}
			},
		}
		return inst, nil
	}
	return sc, nil
}

// videoConfig is a scaled-down transport: small window and short timer
// periods so a handful of clock advances exercises acknowledgments,
// controller firings and sampling inside the horizon.
func videoConfig() ctp.Config {
	return ctp.Config{
		MTU:               400,
		FECInterval:       4,
		Window:            8,
		RTT:               20e6, // 20ms
		RetransmitTimeout: 80e6,
		ControllerPeriod:  60e6,
		SamplePeriod:      45e6,
		MaxRetransmits:    2,
	}
}

func videoProfile() (*profile.Profile, error) {
	vc := event.NewVirtualClock()
	s, err := ctp.New(videoConfig(), event.WithClock(vc))
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	s.Sys.SetTracer(rec)
	s.Start()
	for i := 0; i < 4; i++ {
		s.SendFrame(make([]byte, 900), i%2 == 0)
	}
	s.Sys.DrainFor(150e6)
	s.Sys.SetTracer(nil)
	return profile.Analyze(rec.Entries())
}

// VideoPlayerScenario explores the video player's transport protocol on
// two domains under virtual time: frames enter synchronously, while
// acknowledgments, retransmission deadlines, the congestion controller
// and the sampler all arrive through the timer heap, so clock-advance
// choices interleave with frame submission. The optimized variant
// installs the plan built from a profiled throwaway run (the paper's
// Fig. 8 chain).
func VideoPlayerScenario() (Scenario, error) {
	prof, err := videoProfile()
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{
		Name:    "videoplayer",
		Horizon: 150e6, // ctp's clocks re-arm forever; bound virtual time
		StepFP:  func(int) Footprint { return TouchAll },
	}
	sc.Build = func(optimized bool, hook event.SchedHook) (*Instance, error) {
		vc := event.NewVirtualClock()
		s, err := ctp.New(videoConfig(), sysOpts(vc, 2, hook)...)
		if err != nil {
			return nil, err
		}
		s.Start()
		if optimized {
			if _, _, err := core.Apply(s.Sys, prof, s.Mod, core.DefaultOptions()); err != nil {
				return nil, err
			}
		}
		frame := func(n int, hi bool) Op {
			return Op{Name: fmt.Sprintf("frame-%d", n), FP: TouchAll, Run: func(*Instance) {
				s.SendFrame(make([]byte, 900), hi)
			}}
		}
		inst := &Instance{
			Sys:   s.Sys,
			Clock: vc,
			Threads: []Thread{
				{Name: "app", Ops: []Op{frame(1, true), frame(2, false)}},
				{Name: "app2", Ops: []Op{frame(3, false)}},
			},
			Observe: func() any {
				st := s.Stats
				return struct{ Frames, Segments, Delivered, Acked int }{
					st.FramesSent, st.Segments, st.Delivered, st.Acked}
			},
		}
		return inst, nil
	}
	return sc, nil
}

// RebindChurnScenario explores registry churn racing the adaptive
// controller: one thread raises through a two-event chain, one unbinds
// and rebinds the downstream handler (bumping binding versions under
// the optimizer's feet), and one drives controller ticks that promote
// and demote fast paths from live telemetry. The generic variant runs
// the same schedule with the controller ops as no-ops, so every
// promotion, stale-guard fallback and demotion must be semantically
// invisible.
func RebindChurnScenario() Scenario {
	sc := Scenario{
		Name:   "rebind-churn",
		StepFP: func(int) Footprint { return TouchAll },
	}
	sc.Build = func(optimized bool, hook event.SchedHook) (*Instance, error) {
		vc := event.NewVirtualClock()
		tel := event.WithTelemetry(telemetry.Config{SampleEvery: 1, TimeSampleEvery: 1})
		s := event.New(sysOpts(vc, 2, hook, tel)...)
		ping := s.Define("ping") // domain 0
		pong := s.Define("pong") // domain 1
		var pongRuns, pingRuns int
		s.Bind(ping, "ping1", func(ctx *event.Ctx) {
			pingRuns++
			ctx.Raise(pong)
		})
		pongFn := func(ctx *event.Ctx) { pongRuns++ }
		cur := s.Bind(pong, "pong1", pongFn)

		tick := func(*Instance) {}
		if optimized {
			ctrl, err := adaptive.New(s, nil, adaptive.Policy{
				Alpha:              1,
				PromoteThreshold:   1,
				CooldownTicks:      1,
				DeoptCooldownTicks: 1,
				MinGainNs:          -1, // promote on traversal evidence alone
				MaxPlans:           4,
			})
			if err != nil {
				return nil, err
			}
			tick = func(*Instance) { ctrl.Tick() }
		}
		raise := func(n int) Op {
			return Op{Name: fmt.Sprintf("raise-%d", n), FP: Dom(0), Run: func(*Instance) {
				s.RaiseAsync(ping)
			}}
		}
		inst := &Instance{
			Sys:   s,
			Clock: vc,
			Threads: []Thread{
				{Name: "raiser", Ops: []Op{raise(1), raise(2), raise(3), raise(4)}},
				{Name: "churn", Ops: []Op{
					{Name: "unbind-pong", FP: TouchAll, Run: func(*Instance) { s.Unbind(cur) }},
					{Name: "rebind-pong", FP: TouchAll, Run: func(*Instance) { cur = s.Bind(pong, "pong1", pongFn) }},
				}},
				{Name: "ctrl", Ops: []Op{
					{Name: "tick-1", FP: TouchAll, Run: tick},
					{Name: "tick-2", FP: TouchAll, Run: tick},
				}},
			},
			Observe: func() any {
				return struct{ Ping, Pong int }{pingRuns, pongRuns}
			},
		}
		return inst, nil
	}
	return sc
}

// QuarantineLadderScenario explores the fault-supervision ladder across
// two domains: a handler that panics on demand, async retry with
// backoff timers, dead-lettering into the second domain, quarantine
// tripping and timed re-admission. The optimized variant installs a
// manual super-handler over the faulting event, so faults take the
// deopt-and-replay path; retries, dead letters and the final observable
// state must match the generic run exactly.
func QuarantineLadderScenario() Scenario {
	sc := Scenario{
		Name:   "quarantine-ladder",
		StepFP: func(int) Footprint { return TouchAll },
	}
	sc.Build = func(optimized bool, hook event.SchedHook) (*Instance, error) {
		vc := event.NewVirtualClock()
		s := event.New(sysOpts(vc, 2, hook,
			event.WithFaultConfig(event.FaultConfig{
				Policy:           event.Quarantine,
				FailureThreshold: 2,
				Backoff:          10e6,
			}),
			event.WithRetryConfig(event.RetryConfig{
				MaxAttempts: 2,
				Backoff:     5e6,
				DeadLetter:  "dead",
			}),
		)...)
		work := s.Define("work") // domain 0
		dead := s.Define("dead") // domain 1

		var done []int
		var deadLetters []string
		workFn := func(ctx *event.Ctx) {
			n := ctx.Args.Int("n")
			if n < 0 {
				panic(fmt.Sprintf("bad payload %d", n))
			}
			done = append(done, n)
		}
		s.Bind(work, "worker", workFn)
		s.Bind(dead, "undertaker", func(ctx *event.Ctx) {
			deadLetters = append(deadLetters,
				fmt.Sprintf("%s/%d", ctx.Args.String("event"), ctx.Args.Int("attempts")))
		})

		if optimized {
			sh := &event.SuperHandler{
				Entry: work,
				Segments: []event.Segment{{
					Event: work, EventName: "work", Version: s.Version(work),
					Steps: []event.Step{{Event: work, EventName: "work", Handler: "worker", Fn: workFn}},
				}},
			}
			if err := s.InstallFastPath(sh); err != nil {
				return nil, err
			}
		}
		submit := func(name string, n int) Op {
			return Op{Name: name, FP: Dom(0), Run: func(*Instance) {
				s.RaiseAsync(work, event.A("n", n))
			}}
		}
		inst := &Instance{
			Sys:   s,
			Clock: vc,
			Threads: []Thread{
				{Name: "good", Ops: []Op{submit("good-1", 1), submit("good-2", 2), submit("good-3", 3)}},
				{Name: "bad", Ops: []Op{submit("bad-1", -1), submit("bad-2", -2)}},
			},
			Observe: func() any {
				ds := append([]int(nil), done...)
				sort.Ints(ds)
				dl := append([]string(nil), deadLetters...)
				sort.Strings(dl)
				return struct {
					Done []int
					Dead []string
				}{ds, dl}
			},
		}
		return inst, nil
	}
	return sc
}

// AsyncPipelineCoverage accumulates, across every explored schedule,
// how often the optimized variant's speculative coalescing took each
// branch. The explorer's equivalence check never sees these numbers
// (route counters differ between variants by design); the test asserts
// both branches were exercised.
type AsyncPipelineCoverage struct {
	Coalesced int64 // async raises captured as continuations
	Fallbacks int64 // async raises demoted to a real enqueue
}

// AsyncPipelineScenario explores speculative async chain merging on a
// two-domain pipeline: produce and process live on domain 0, deliver on
// domain 1. Handlers chain produce ~> process ~> deliver through
// asynchronous raises. The optimized variant installs an async-aware
// plan (AsyncChains) built from a manually-weighted event graph, so the
// produce super-handler covers the whole pipeline: its interior raise
// of process is speculatively coalesced when domain 0's queue permits,
// while the cross-domain raise of deliver is captured onto domain 1's
// continuation list (or enqueued for real when domain 1 is busy). A
// rival thread raises process directly, forcing queue-not-empty
// fallbacks on schedules where it gets ahead of the producer. Every
// schedule must observe the exact generic delivery order and stats.
func AsyncPipelineScenario() (Scenario, *AsyncPipelineCoverage) {
	cov := &AsyncPipelineCoverage{}
	g := profile.NewEventGraph()
	// IDs are assigned in Define order below: produce=first (domain 0),
	// deliver=second (domain 1), process=third (domain 0). The graph uses
	// the same order, purely-async edges, and full dominance.
	sc := Scenario{
		Name: "async-pipeline",
		StepFP: func(d int) Footprint {
			if d == 1 {
				return Dom(1) // deliver handlers never leave domain 1
			}
			return Dom(0, 1) // domain-0 steps may hand off to domain 1
		},
	}
	sc.Build = func(optimized bool, hook event.SchedHook) (*Instance, error) {
		vc := event.NewVirtualClock()
		s := event.New(sysOpts(vc, 2, hook)...)
		produce := s.Define("produce") // domain 0
		deliver := s.Define("deliver") // domain 1
		process := s.Define("process") // domain 0

		var delivered []int
		s.Bind(produce, "producer", func(ctx *event.Ctx) {
			ctx.RaiseAsync(process, event.A("n", ctx.Args.Int("n")))
		})
		s.Bind(process, "processor", func(ctx *event.Ctx) {
			ctx.RaiseAsync(deliver, event.A("n", ctx.Args.Int("n")*10))
		})
		s.Bind(deliver, "sink", func(ctx *event.Ctx) {
			delivered = append(delivered, ctx.Args.Int("n"))
		})

		if optimized {
			if g.NumEdges() == 0 {
				g.SetName(produce, "produce")
				g.SetName(process, "process")
				g.SetName(deliver, "deliver")
				g.AddEdge(produce, process, 100, 0) // purely async
				g.AddEdge(process, deliver, 100, 0)
			}
			prof := profile.GraphProfile(g)
			opts := core.Options{
				Subsume: true, GraphChains: true, AsyncChains: true,
				Partitioned: true, MaxChainLen: 8, Threshold: 1,
			}
			if _, _, err := core.Apply(s, prof, nil, opts); err != nil {
				return nil, err
			}
		}
		produceOp := func(n int) Op {
			return Op{Name: fmt.Sprintf("produce-%d", n), FP: Dom(0), Run: func(*Instance) {
				s.RaiseAsync(produce, event.A("n", n))
			}}
		}
		rivalOp := func(n int) Op {
			return Op{Name: fmt.Sprintf("rival-%d", n), FP: Dom(0), Run: func(*Instance) {
				s.RaiseAsync(process, event.A("n", n))
			}}
		}
		inst := &Instance{
			Sys:   s,
			Clock: vc,
			Threads: []Thread{
				{Name: "producer", Ops: []Op{produceOp(1), produceOp(2), produceOp(3), produceOp(4)}},
				{Name: "rival", Ops: []Op{rivalOp(7), rivalOp(8)}},
			},
			Observe: func() any {
				if optimized {
					st := s.StatsAggregate()
					cov.Coalesced += st.Coalesced
					cov.Fallbacks += st.CoalesceFallbacks
				}
				return struct{ Delivered []int }{append([]int(nil), delivered...)}
			},
		}
		return inst, nil
	}
	return sc, cov
}

// XDomainPipelineCoverage accumulates, across every explored schedule,
// how often the optimized variant's cross-domain handoff took each
// branch. Like AsyncPipelineCoverage these are route counters the
// equivalence check deliberately ignores; the test asserts both
// branches were exercised so the proof is not vacuous.
type XDomainPipelineCoverage struct {
	Handoffs  int64 // continuations captured onto another domain's list
	Fallbacks int64 // cross-domain raises demoted to a real enqueue
}

// XDomainPipelineScenario explores cross-domain continuation handoff on
// a pipeline that ping-pongs between domains: produce (domain 0) ~>
// relay (domain 1) ~> deliver (domain 0), chained through asynchronous
// raises. The optimized variant installs an async-aware plan over the
// whole pipeline, so both interior raises cross a domain edge: each is
// captured onto the target domain's continuation list when that
// domain is verifiably idle, and demoted to a real enqueue otherwise. A
// rival thread raises relay directly, landing activations in domain 1's
// queue so schedules exist where the capture guard must refuse. Every
// schedule must observe the exact generic delivery order and stats.
func XDomainPipelineScenario() (Scenario, *XDomainPipelineCoverage) {
	cov := &XDomainPipelineCoverage{}
	g := profile.NewEventGraph()
	sc := Scenario{
		Name: "xdomain-pipeline",
		// Every step on either domain can hand a continuation to the
		// other (produce's chain reaches into domain 1, relay's reaches
		// back into domain 0), so all steps conflict.
		StepFP: func(int) Footprint { return TouchAll },
	}
	sc.Build = func(optimized bool, hook event.SchedHook) (*Instance, error) {
		vc := event.NewVirtualClock()
		s := event.New(sysOpts(vc, 2, hook)...)
		produce := s.Define("produce") // domain 0
		relay := s.Define("relay")     // domain 1
		deliver := s.Define("deliver") // domain 0

		var delivered []int
		s.Bind(produce, "producer", func(ctx *event.Ctx) {
			ctx.RaiseAsync(relay, event.A("n", ctx.Args.Int("n")))
		})
		s.Bind(relay, "relayer", func(ctx *event.Ctx) {
			ctx.RaiseAsync(deliver, event.A("n", ctx.Args.Int("n")+100))
		})
		s.Bind(deliver, "sink", func(ctx *event.Ctx) {
			delivered = append(delivered, ctx.Args.Int("n"))
		})

		if optimized {
			if g.NumEdges() == 0 {
				g.SetName(produce, "produce")
				g.SetName(relay, "relay")
				g.SetName(deliver, "deliver")
				g.AddEdge(produce, relay, 100, 0) // purely async
				g.AddEdge(relay, deliver, 100, 0)
			}
			prof := profile.GraphProfile(g)
			opts := core.Options{
				Subsume: true, GraphChains: true, AsyncChains: true,
				Partitioned: true, MaxChainLen: 8, Threshold: 1,
			}
			if _, _, err := core.Apply(s, prof, nil, opts); err != nil {
				return nil, err
			}
		}
		produceOp := func(n int) Op {
			return Op{Name: fmt.Sprintf("produce-%d", n), FP: Dom(0), Run: func(*Instance) {
				s.RaiseAsync(produce, event.A("n", n))
			}}
		}
		rivalOp := func(n int) Op {
			return Op{Name: fmt.Sprintf("rival-%d", n), FP: Dom(1), Run: func(*Instance) {
				s.RaiseAsync(relay, event.A("n", n))
			}}
		}
		inst := &Instance{
			Sys:   s,
			Clock: vc,
			Threads: []Thread{
				{Name: "producer", Ops: []Op{produceOp(1), produceOp(2), produceOp(3), produceOp(4)}},
				{Name: "rival", Ops: []Op{rivalOp(7), rivalOp(8)}},
			},
			Observe: func() any {
				if optimized {
					st := s.StatsAggregate()
					cov.Handoffs += st.XDomainHandoffs
					cov.Fallbacks += st.XDomainFallbacks
				}
				return struct{ Delivered []int }{append([]int(nil), delivered...)}
			},
		}
		return inst, nil
	}
	return sc, cov
}

// SeededBugScenario is the harness's own sensitivity check: the
// "optimized" variant installs, mid-schedule, a super-handler whose
// guard version is correct but whose body is stale — it raises yOld
// where the current binding raises yNew. Schedules where a raise runs
// after the install diverge from the generic run; schedules where every
// raise pops first pass. The explorer must find both kinds.
func SeededBugScenario() Scenario {
	sc := Scenario{
		Name:   "seeded-bug",
		StepFP: func(int) Footprint { return TouchAll },
	}
	sc.Build = func(optimized bool, hook event.SchedHook) (*Instance, error) {
		vc := event.NewVirtualClock()
		s := event.New(sysOpts(vc, 2, hook)...)
		x := s.Define("x")
		yNew := s.Define("yNew")
		yOld := s.Define("yOld")
		s.Bind(x, "hx", func(ctx *event.Ctx) { ctx.Raise(yNew) })
		s.Bind(yNew, "hNew", func(*event.Ctx) {})
		s.Bind(yOld, "hOld", func(*event.Ctx) {})

		install := func(*Instance) {}
		if optimized {
			install = func(*Instance) {
				sh := &event.SuperHandler{
					Entry: x,
					Segments: []event.Segment{{
						Event: x, EventName: "x", Version: s.Version(x),
						// Stale body: compiled against a superseded binding.
						Steps: []event.Step{{Event: x, EventName: "x", Handler: "hx",
							Fn: func(ctx *event.Ctx) { ctx.Raise(yOld) }}},
					}},
				}
				s.InstallFastPath(sh)
			}
		}
		inst := &Instance{
			Sys:   s,
			Clock: vc,
			Threads: []Thread{
				{Name: "installer", Ops: []Op{{Name: "install-stale", FP: TouchAll, Run: install}}},
				{Name: "raiser", Ops: []Op{
					{Name: "raise-1", FP: Dom(0), Run: func(*Instance) { s.RaiseAsync(x) }},
					{Name: "raise-2", FP: Dom(0), Run: func(*Instance) { s.RaiseAsync(x) }},
				}},
			},
			Observe: func() any { return nil },
		}
		return inst, nil
	}
	return sc
}
