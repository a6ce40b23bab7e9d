package core

import (
	"testing"
	"testing/quick"
	"time"

	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// Property: Ring-AllReduce matches the direct element-wise sum for any
// worker count (2–6) and vector length, including lengths that do not
// divide evenly into ring chunks.
func TestAllReduceEquivalenceQuick(t *testing.T) {
	f := func(workers8, nFloats16 uint16) bool {
		nWorkers := int(workers8%5) + 2   // 2..6
		nFloats := int(nFloats16%700) + 1 // 1..700

		k := sim.NewKernel()
		c := Build(k, starSpec(ModeAllReduce, nWorkers, nFloats)).AR
		agents := make([]rl.Agent, nWorkers)
		ints := make([]*intAgent, nWorkers)
		services := make([]Service, nWorkers)
		for i := range agents {
			ints[i] = newIntAgent(i, nFloats)
			agents[i] = ints[i]
			services[i] = c.Client(i)
		}
		RunSync(k, agents, services, SyncConfig{Iterations: 1,
			LocalCompute: 10 * time.Microsecond, WeightUpdate: time.Microsecond})

		ref := make([]*intAgent, nWorkers)
		for i := range ref {
			ref[i] = newIntAgent(i, nFloats)
		}
		want := make([]float32, nFloats)
		g := make([]float32, nFloats)
		for _, a := range ref {
			a.ComputeGradient(g)
			for i := range want {
				want[i] += g[i]
			}
		}
		for _, a := range ints {
			if len(a.applied) != 1 {
				return false
			}
			for i := range want {
				if a.applied[0][i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the iSwitch path matches the direct sum for any worker
// count and custom packet payload size.
func TestISWEquivalenceQuick(t *testing.T) {
	f := func(workers8, nFloats16, perPkt16 uint16) bool {
		nWorkers := int(workers8%5) + 2
		nFloats := int(nFloats16%700) + 1
		perPkt := int(perPkt16%300) + 1

		k := sim.NewKernel()
		cfg := DefaultISWConfig()
		cfg.FloatsPerPacket = perPkt
		spec := starSpec(ModeISW, nWorkers, nFloats)
		spec.ISW = &cfg
		c := Build(k, spec).ISW
		agents := make([]rl.Agent, nWorkers)
		ints := make([]*intAgent, nWorkers)
		services := make([]Service, nWorkers)
		for i := range agents {
			ints[i] = newIntAgent(i, nFloats)
			agents[i] = ints[i]
			services[i] = c.Client(i)
		}
		RunSync(k, agents, services, SyncConfig{Iterations: 1,
			LocalCompute: 10 * time.Microsecond, WeightUpdate: time.Microsecond})

		ref := make([]*intAgent, nWorkers)
		for i := range ref {
			ref[i] = newIntAgent(i, nFloats)
		}
		want := make([]float32, nFloats)
		g := make([]float32, nFloats)
		for _, a := range ref {
			a.ComputeGradient(g)
			for i := range want {
				want[i] += g[i]
			}
		}
		for _, a := range ints {
			if len(a.applied) != 1 {
				return false
			}
			for i := range want {
				if a.applied[0][i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: two identical simulations produce identical timing.
func TestSimulationDeterministic(t *testing.T) {
	run := func() (time.Duration, time.Duration) {
		k := sim.NewKernel()
		c := Build(k, starSpec(ModeISW, 4, 5000)).ISW
		agents := make([]rl.Agent, 4)
		services := make([]Service, 4)
		for i := range agents {
			agents[i] = newIntAgent(i, 5000)
			services[i] = c.Client(i)
		}
		stats := RunSync(k, agents, services, fastTiming(4))
		return stats.Total, stats.MeanAgg()
	}
	t1, a1 := run()
	t2, a2 := run()
	if t1 != t2 || a1 != a2 {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", t1, a1, t2, a2)
	}
}

// The asynchronous PS baseline must discard gradients beyond the bound
// when the server races ahead of slow workers.
func TestAsyncPSDiscardsStale(t *testing.T) {
	const nWorkers, nFloats = 4, 200
	k := sim.NewKernel()
	c := Build(k, starSpec(ModeAsyncPS, nWorkers, nFloats)).PS
	agents := make([]rl.Agent, nWorkers)
	for i := range agents {
		agents[i] = newIntAgent(i, nFloats)
	}
	// S=0: only gradients computed against the very latest weights
	// commit; with 4 racing workers many must be stale.
	cfg := AsyncConfig{Updates: 12, StalenessBound: 0,
		LocalCompute: 300 * time.Microsecond, WeightUpdate: 20 * time.Microsecond}
	stats := RunAsyncPS(k, agents, newIntAgent(99, nFloats), c, cfg)
	if stats.Discarded == 0 {
		t.Fatalf("S=0 with %d racing workers discarded nothing (committed %d)",
			nWorkers, stats.Committed)
	}
	if stats.MeanStaleness() != 0 {
		t.Fatalf("committed staleness %v under S=0", stats.MeanStaleness())
	}
}
