package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// Reliability property tests: every recovery path — loss retransmission,
// crash/rejoin, whole-plane switch failover — must leave the training
// math untouched. Integer-valued gradients are exact in float32
// regardless of summation order, so "untouched" is testable as
// bit-identical applied aggregates against a clean run.

const relIters = 8
const relCrashRound = 4

// relTopoSpecs returns the three fabric shapes under test. Worker
// counts differ (6, 6, 8) because fat-trees derive theirs from KAry.
func relTopoSpecs() []ClusterSpec {
	return []ClusterSpec{
		{Topology: TopoStar, Workers: 6},
		{Topology: TopoTree, Workers: 6, PerRack: 3},
		{Topology: TopoFatTree, KAry: 4, HostsPerEdge: 1},
	}
}

// relSpec fills in the shared fields of a reliability-test spec.
func relSpec(topo ClusterSpec, nFloats int, cfg *ISWConfig, plan *netsim.FaultPlan, horizon sim.Time) ClusterSpec {
	topo.Mode = ModeISW
	topo.ModelFloats = nFloats
	topo.Link = testLink()
	topo.Uplink = netsim.FortyGbE()
	topo.ISW = cfg
	topo.Dedup = true
	topo.LivenessHorizon = horizon
	topo.Faults = plan
	return topo
}

// runReliability trains integer agents over Build(spec) under a
// wall-clock watchdog (a recovery bug shows up as a hang) and returns
// the agents, the cluster, and the virtual makespan.
func runReliability(t *testing.T, spec ClusterSpec, iters int) ([]*intAgent, *ISWCluster, sim.Time) {
	t.Helper()
	return runReliabilityWith(t, spec, iters, func(a *intAgent) rl.Agent { return a })
}

// runReliabilityWith is runReliability with each worker's intAgent
// wrapped by the caller (an agent that watches what it is handed).
func runReliabilityWith(t *testing.T, spec ClusterSpec, iters int, wrap func(*intAgent) rl.Agent) ([]*intAgent, *ISWCluster, sim.Time) {
	t.Helper()
	k := sim.NewKernel()
	c := Build(k, spec).ISW
	n := len(c.Workers())
	agents := make([]rl.Agent, n)
	ints := make([]*intAgent, n)
	services := make([]Service, n)
	for i := range agents {
		ints[i] = newIntAgent(i, spec.ModelFloats)
		agents[i] = wrap(ints[i])
		services[i] = c.Client(i)
	}
	var stats *RunStats
	done := make(chan struct{})
	go func() {
		stats = RunSync(k, agents, services, SyncConfig{Iterations: iters,
			LocalCompute: 200 * time.Microsecond, WeightUpdate: 50 * time.Microsecond})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("simulation hung: recovery failed to terminate")
	}
	return ints, c, stats.Total
}

// requireBitIdentical checks that every worker of the faulted run
// applied exactly the clean run's aggregates and reached the clean
// run's final weights.
func requireBitIdentical(t *testing.T, clean, faulted []*intAgent, iters int) {
	t.Helper()
	for w := range faulted {
		if len(faulted[w].applied) != iters {
			t.Fatalf("worker %d applied %d of %d rounds", w, len(faulted[w].applied), iters)
		}
		for it := range faulted[w].applied {
			for i, got := range faulted[w].applied[it] {
				if want := clean[w].applied[it][i]; got != want {
					t.Fatalf("worker %d iter %d elem %d: faulted %v, clean %v (recovery corrupted the sum)",
						w, it, i, got, want)
				}
			}
		}
		for i, got := range faulted[w].params {
			if want := clean[w].params[i]; got != want {
				t.Fatalf("worker %d final weight %d: faulted %v, clean %v", w, i, got, want)
			}
		}
	}
}

// TestLossRecoveryBitIdentical: under heavy per-link loss, Help-driven
// retransmission with shadow slots and the contributor bitmap must
// reproduce the clean run exactly on every topology.
func TestLossRecoveryBitIdentical(t *testing.T) {
	nFloats := 2*protocolFloats + 9
	for _, topo := range relTopoSpecs() {
		t.Run(topo.Topology.String(), func(t *testing.T) {
			cfg := DefaultISWConfig()
			cfg.RecoveryTimeout = 2 * time.Millisecond
			clean, _, _ := runReliability(t, relSpec(topo, nFloats, &cfg, nil, 0), relIters)

			plan := &netsim.FaultPlan{
				Seed: 42,
				Links: []netsim.LinkFault{
					{Worker: 0, Dir: netsim.DirBoth, Loss: 0.10},
					{Worker: 1, Dir: netsim.DirUp, Loss: 0.05},
					{Worker: 2, Dir: netsim.DirDown, Loss: 0.05},
				},
			}
			faulted, c, _ := runReliability(t, relSpec(topo, nFloats, &cfg, plan, 0), relIters)
			var drops uint64
			for _, h := range c.Workers() {
				drops += h.Port().Dropped + h.Port().Peer().Dropped
			}
			if drops == 0 {
				t.Fatal("loss injection did not fire; test proves nothing")
			}
			requireBitIdentical(t, clean, faulted, relIters)
		})
	}
}

// TestCrashRejoinBitIdentical: a worker that dies mid-upload and
// rejoins re-contributes its round; duplicates are absorbed by the
// bitmap, so the whole run stays bit-identical to a crash-free one.
func TestCrashRejoinBitIdentical(t *testing.T) {
	nFloats := 2*protocolFloats + 9
	for _, topo := range relTopoSpecs() {
		t.Run(topo.Topology.String(), func(t *testing.T) {
			cfg := DefaultISWConfig()
			cfg.RecoveryTimeout = 2 * time.Millisecond
			clean, _, _ := runReliability(t, relSpec(topo, nFloats, &cfg, nil, 0), relIters)

			plan := &netsim.FaultPlan{Crashes: []netsim.CrashFault{
				{Worker: 2, AtRound: relCrashRound, PartialSegs: 2, Rejoin: true, Outage: 5 * time.Millisecond},
			}}
			faulted, c, _ := runReliability(t, relSpec(topo, nFloats, &cfg, plan, 0), relIters)
			if c.Rejoins != 1 {
				t.Fatalf("expected 1 rejoin, got %d", c.Rejoins)
			}
			requireBitIdentical(t, clean, faulted, relIters)
		})
	}
}

// TestSwitchFailoverBitIdentical: when the whole aggregation plane dies
// mid-run, every worker fails over to the relay worker, whose host runs
// the switch's engine behind core.hostDriver, and the relay's sums
// reproduce the in-switch sums exactly (integer gradients make any
// arrival order exact; the property pinned here is that no
// contribution is lost or double-counted).
func TestSwitchFailoverBitIdentical(t *testing.T) {
	nFloats := 2*protocolFloats + 9
	for _, topo := range relTopoSpecs() {
		t.Run(topo.Topology.String(), func(t *testing.T) {
			cleanCfg := DefaultISWConfig()
			cleanCfg.RecoveryTimeout = 2 * time.Millisecond
			clean, _, cleanTotal := runReliability(t, relSpec(topo, nFloats, &cleanCfg, nil, 0), relIters)

			cfg := cleanCfg
			cfg.FailoverAfter = 3
			plan := &netsim.FaultPlan{Switches: []netsim.SwitchFault{{Switch: -1, At: cleanTotal / 2}}}
			faulted, c, _ := runReliability(t, relSpec(topo, nFloats, &cfg, plan, 0), relIters)
			if int(c.Failovers) != len(clean) {
				t.Fatalf("expected all %d workers to fail over, got %d", len(clean), c.Failovers)
			}
			requireBitIdentical(t, clean, faulted, relIters)
		})
	}
}

// TestPermanentCrashEvictionSurvivors: a permanent crash leaves the
// round incomplete until the liveness horizon evicts the corpse; after
// that every surviving replica must apply identical survivor-only sums
// — exactly the direct-computation reference, before and after the
// crash round.
func TestPermanentCrashEvictionSurvivors(t *testing.T) {
	nFloats := 2*protocolFloats + 9
	const crashed = 2
	for _, topo := range relTopoSpecs() {
		t.Run(topo.Topology.String(), func(t *testing.T) {
			cfg := DefaultISWConfig()
			cfg.RecoveryTimeout = 2 * time.Millisecond
			plan := &netsim.FaultPlan{Crashes: []netsim.CrashFault{
				{Worker: crashed, AtRound: relCrashRound, PartialSegs: 0},
			}}
			faulted, c, _ := runReliability(t, relSpec(topo, nFloats, &cfg, plan, 4*cfg.RecoveryTimeout), relIters)

			var evicted uint64
			for _, is := range c.Switches() {
				evicted += is.Evicted
			}
			if evicted == 0 {
				t.Fatal("no eviction recorded; the dead worker was never removed")
			}
			if got := len(faulted[crashed].applied); got >= relIters {
				t.Fatalf("crashed worker applied %d rounds; wanted fewer than %d", got, relIters)
			}

			// Direct-computation reference: all workers contribute before
			// the crash round, survivors only from it on (the corpse died
			// before transmitting anything).
			n := len(faulted)
			ref := make([]*intAgent, n)
			for i := range ref {
				ref[i] = newIntAgent(i, nFloats)
			}
			g := make([]float32, nFloats)
			for it := 1; it <= relIters; it++ {
				want := make([]float32, nFloats)
				for w, a := range ref {
					if w == crashed && it >= relCrashRound {
						continue
					}
					a.ComputeGradient(g)
					for i := range want {
						want[i] += g[i]
					}
				}
				for w, a := range faulted {
					if w == crashed {
						continue
					}
					if len(a.applied) != relIters {
						t.Fatalf("survivor %d applied %d of %d rounds", w, len(a.applied), relIters)
					}
					for i := range want {
						if a.applied[it-1][i] != want[i] {
							t.Fatalf("round %d survivor %d elem %d: got %v want %v",
								it, w, i, a.applied[it-1][i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestChaosRandomFaultPlans: randomized fault plans — loss up to 5% on
// arbitrary links, up to two crash/rejoin events, an optional
// whole-plane failover — over several seeds and all topologies. Every
// run must terminate in bounded rounds and stay bit-identical to the
// clean run (rejoining crashes and failover preserve exactness; only
// permanent crashes, excluded here, change the sums by design).
func TestChaosRandomFaultPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many simulations")
	}
	nFloats := 2*protocolFloats + 9
	topos := relTopoSpecs()
	for seed := int64(0); seed < 4; seed++ {
		for ti, topo := range topos {
			t.Run(fmt.Sprintf("seed%d-%s", seed, topo.Topology.String()), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*97 + int64(ti)))

				cleanCfg := DefaultISWConfig()
				cleanCfg.RecoveryTimeout = 2 * time.Millisecond
				clean, cleanC, cleanTotal := runReliability(t, relSpec(topo, nFloats, &cleanCfg, nil, 0), relIters)
				nWorkers := len(cleanC.Workers())

				plan := &netsim.FaultPlan{Seed: seed + 1}
				for w := 0; w < nWorkers; w++ {
					if rng.Float64() < 0.5 {
						plan.Links = append(plan.Links, netsim.LinkFault{
							Worker: w,
							Dir:    netsim.LinkDir(rng.Intn(3)),
							Loss:   rng.Float64() * 0.05,
						})
					}
				}
				crashers := rng.Perm(nWorkers)[:rng.Intn(3)] // 0..2 distinct workers
				for _, w := range crashers {
					plan.Crashes = append(plan.Crashes, netsim.CrashFault{
						Worker:      w,
						AtRound:     1 + rng.Intn(relIters),
						PartialSegs: rng.Intn(3),
						Rejoin:      true,
						Outage:      time.Duration(1+rng.Intn(8)) * time.Millisecond,
					})
				}
				cfg := cleanCfg
				if rng.Float64() < 0.5 {
					cfg.FailoverAfter = 3
					at := cleanTotal/4 + sim.Time(rng.Int63n(int64(cleanTotal/2)))
					plan.Switches = []netsim.SwitchFault{{Switch: -1, At: at}}
				}
				if err := plan.Validate(); err != nil {
					t.Fatalf("generated an invalid plan: %v", err)
				}

				faulted, _, total := runReliability(t, relSpec(topo, nFloats, &cfg, plan, 0), relIters)
				requireBitIdentical(t, clean, faulted, relIters)
				// Bounded recovery. The generous factor accommodates the
				// worst composition drawn here — a crash outage spanning the
				// failover instant forces the rejoiner through several
				// exponential-backoff escalation levels — while still
				// catching unbounded retry loops (a true livelock never
				// terminates at all and trips the wall-clock watchdog).
				if total > 500*cleanTotal {
					t.Fatalf("faulted run took %v vs clean %v — recovery livelock", total, cleanTotal)
				}
			})
		}
	}
}
