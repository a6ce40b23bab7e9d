package core

import (
	"testing"
	"time"

	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// The three-stage pipeline (Figure 11): in asynchronous iSwitch
// training, local gradient computing overlaps aggregation and weight
// updates, so the time per update approaches the LGC time alone rather
// than the serial sum of all three stages.
func TestAsyncPipelineOverlapsStages(t *testing.T) {
	const nWorkers, nFloats = 4, 200_000 // big enough that agg time is visible
	const updates = 30
	compute := 3 * time.Millisecond
	update := 500 * time.Microsecond

	k := sim.NewKernel()
	c := Build(k, starSpec(ModeISW, nWorkers, nFloats)).ISW
	agents := make([]rl.Agent, nWorkers)
	for i := range agents {
		agents[i] = newIntAgent(i, nFloats)
	}
	stats := RunAsyncISW(k, agents, c, AsyncConfig{
		Updates: updates, StalenessBound: 4,
		LocalCompute: compute, WeightUpdate: update,
	})

	perUpdate := stats.MeanIter()
	// Serial execution would cost compute + aggregation + update per
	// iteration; the pipeline must land well under that and near the
	// LGC stage (the longest stage).
	syncRef := runISWSyncOnce(t, nWorkers, nFloats, compute, update)
	if perUpdate >= syncRef {
		t.Fatalf("pipeline gave %v per update, not faster than serial %v", perUpdate, syncRef)
	}
	if perUpdate > compute+compute/2 {
		t.Fatalf("pipeline per-update %v should approach LGC time %v", perUpdate, compute)
	}
	t.Logf("pipelined %v/update vs serial %v (LGC alone %v)", perUpdate, syncRef, compute)
}

// runISWSyncOnce measures the serial (synchronous) per-iteration time
// of the same cluster shape.
func runISWSyncOnce(t *testing.T, nWorkers, nFloats int, compute, update time.Duration) time.Duration {
	t.Helper()
	k := sim.NewKernel()
	c := Build(k, starSpec(ModeISW, nWorkers, nFloats)).ISW
	agents := make([]rl.Agent, nWorkers)
	services := make([]Service, nWorkers)
	for i := range agents {
		agents[i] = newIntAgent(i, nFloats)
		services[i] = c.Client(i)
	}
	stats := RunSync(k, agents, services, SyncConfig{Iterations: 4,
		LocalCompute: compute, WeightUpdate: update})
	return stats.MeanIter()
}

// Empirical check of the paper's §4.2 convergence argument: the
// asynchronous iSwitch run is equivalent to a virtual parameter server
// applying the same aggregated gradients in sequence. Replaying worker
// 0's applied aggregates through a fresh replica must reproduce every
// worker's final parameters exactly.
func TestAlgorithm1VirtualPSEquivalence(t *testing.T) {
	const nWorkers, nFloats = 4, 500
	k := sim.NewKernel()
	c := Build(k, starSpec(ModeISW, nWorkers, nFloats)).ISW
	agents := make([]rl.Agent, nWorkers)
	ints := make([]*intAgent, nWorkers)
	for i := range agents {
		ints[i] = newIntAgent(i, nFloats)
		agents[i] = ints[i]
	}
	RunAsyncISW(k, agents, c, AsyncConfig{Updates: 15, StalenessBound: 3,
		LocalCompute: 100 * time.Microsecond, WeightUpdate: 10 * time.Microsecond})

	// Virtual parameter server: one centralized replica applying the
	// same aggregate sequence.
	virtual := newIntAgent(0, nFloats)
	for _, sum := range ints[0].applied {
		virtual.ApplyAggregated(sum, nWorkers)
	}
	for w, a := range ints {
		for i := range a.params {
			if a.params[i] != virtual.params[i] {
				t.Fatalf("worker %d param %d diverged from the virtual PS", w, i)
			}
		}
	}
}
