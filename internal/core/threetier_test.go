package core

import (
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// Three-level hierarchical aggregation (ToR → AGG → Core, Figure 10):
// 2 AGGs × 2 ToRs × 3 workers = 12 workers; sums must match the direct
// element-wise reference at every level of the hierarchy.
func TestThreeTierAggregation(t *testing.T) {
	const nAGGs, torsPerAGG, hostsPerToR = 2, 2, 3
	const nWorkers = nAGGs * torsPerAGG * hostsPerToR
	const nFloats = 900
	const iters = 2

	k := sim.NewKernel()
	edge, agg, coreLink := netsim.DefaultThreeTierLinks()
	c := Build(k, ClusterSpec{Topology: TopoThreeTier, Mode: ModeISW, AGGs: nAGGs, ToRsPerAGG: torsPerAGG, HostsPerToR: hostsPerToR,
		ModelFloats: nFloats, Link: edge, Uplink: agg, CoreLink: coreLink}).ISW

	agents := make([]rl.Agent, nWorkers)
	ints := make([]*intAgent, nWorkers)
	services := make([]Service, nWorkers)
	for i := range agents {
		ints[i] = newIntAgent(i, nFloats)
		agents[i] = ints[i]
		services[i] = c.Client(i)
	}
	stats := RunSync(k, agents, services, SyncConfig{Iterations: iters,
		LocalCompute: 100 * time.Microsecond, WeightUpdate: 20 * time.Microsecond})

	// Reference.
	ref := make([]*intAgent, nWorkers)
	for i := range ref {
		ref[i] = newIntAgent(i, nFloats)
	}
	g := make([]float32, nFloats)
	for it := 0; it < iters; it++ {
		want := make([]float32, nFloats)
		for _, a := range ref {
			a.ComputeGradient(g)
			for i := range want {
				want[i] += g[i]
			}
		}
		for w, a := range ints {
			if len(a.applied) != iters {
				t.Fatalf("worker %d applied %d updates", w, len(a.applied))
			}
			for i := range want {
				if a.applied[it][i] != want[i] {
					t.Fatalf("iter %d worker %d elem %d: got %v want %v",
						it, w, i, a.applied[it][i], want[i])
				}
			}
		}
	}

	// Each level forwarded/aggregated the expected volumes.
	segs := uint64((nFloats + 365) / 366)
	sws := c.Switches() // core, then the AGGs, then the ToRs
	for i, tor := range sws[1+nAGGs:] {
		if tor.UpForwards != segs*iters {
			t.Errorf("tor %d upforwards = %d, want %d", i, tor.UpForwards, segs*iters)
		}
	}
	for i, aggSW := range sws[1 : 1+nAGGs] {
		if aggSW.UpForwards != segs*iters {
			t.Errorf("agg %d upforwards = %d, want %d", i, aggSW.UpForwards, segs*iters)
		}
	}
	if sws[0].Broadcasts != segs*iters {
		t.Errorf("core broadcasts = %d, want %d", sws[0].Broadcasts, segs*iters)
	}
	if stats.MeanIter() <= 0 {
		t.Fatal("no timing recorded")
	}
	t.Logf("three-tier per-iteration %v (agg %v)", stats.MeanIter(), stats.MeanAgg())
}

// The three-tier fabric must also carry asynchronous training: the
// hierarchy aggregates H=12 contributions per update end-to-end.
func TestThreeTierAsync(t *testing.T) {
	const nWorkers, nFloats = 12, 300
	k := sim.NewKernel()
	edge, agg, coreLink := netsim.DefaultThreeTierLinks()
	c := Build(k, ClusterSpec{Topology: TopoThreeTier, Mode: ModeISW, AGGs: 2, ToRsPerAGG: 2, HostsPerToR: 3,
		ModelFloats: nFloats, Link: edge, Uplink: agg, CoreLink: coreLink}).ISW
	agents := make([]rl.Agent, nWorkers)
	ints := make([]*intAgent, nWorkers)
	for i := range agents {
		ints[i] = newIntAgent(i, nFloats)
		agents[i] = ints[i]
	}
	cfg := AsyncConfig{Updates: 8, StalenessBound: 4,
		LocalCompute: 100 * time.Microsecond, WeightUpdate: 20 * time.Microsecond}
	stats := RunAsyncISW(k, agents, c, cfg)
	if stats.Committed == 0 {
		t.Fatal("nothing committed")
	}
	for w, a := range ints {
		if int64(len(a.applied)) != cfg.Updates {
			t.Fatalf("worker %d applied %d updates, want %d", w, len(a.applied), cfg.Updates)
		}
		for i := range a.params {
			if a.params[i] != ints[0].params[i] {
				t.Fatalf("worker %d replica diverged", w)
			}
		}
	}
}
