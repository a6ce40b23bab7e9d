package core

import (
	"slices"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// The Service contract: an Aggregate result is valid until the worker's
// next Aggregate call. The in-switch client returns its assembler's own
// vector, so the guarantee is exactly that and no more: the next round
// overwrites it. These tests pin both halves on every path that returns
// a result: the plain synchronous round, the asynchronous pipeline, a
// crash and rejoin, and the relay path after a switch failure (on the
// relay worker and on the others).

// aliasAgent keeps the slice it was handed, uncopied. The intAgent
// inside copies each aggregate as it applies it, which is what the
// slice is compared with.
type aliasAgent struct {
	*intAgent
	t     *testing.T
	async bool // the LGC thread computes while the LWU thread collects
	held  []float32
	ptrs  []*float32
	// rx, when set, reads the NIC's receive queue; busy notes that some
	// result was applied while later frames were already waiting there.
	rx   func() int
	busy bool
}

// ComputeGradient opens the next round: the last moment the previous
// result must still read as it did when it was applied. In between,
// the worker slept through its weight update while frames kept
// arriving.
func (a *aliasAgent) ComputeGradient(dst []float32) {
	if !a.async {
		a.requireHeldIntact("at the start of the next round")
	}
	a.intAgent.ComputeGradient(dst)
}

func (a *aliasAgent) ApplyAggregated(sum []float32, h int) {
	a.ptrs = append(a.ptrs, &sum[0])
	a.intAgent.ApplyAggregated(sum, h)
	a.held = sum
	a.busy = a.busy || a.rx != nil && a.rx() > 0
}

func (a *aliasAgent) requireHeldIntact(when string) {
	if a.held == nil {
		return
	}
	want := a.applied[len(a.applied)-1]
	for i, v := range a.held {
		if v != want[i] {
			// Errorf: this also runs on simulated processes' goroutines.
			a.t.Errorf("worker %d round %d: result elem %d reads %v %s, was %v when applied",
				a.id, len(a.applied), i, v, when, want[i])
			return
		}
	}
}

// requireOneBuffer: every round's result was the same backing array, so
// a caller that held one across rounds saw it overwritten.
func requireOneBuffer(t *testing.T, agents []*aliasAgent, rounds int) {
	t.Helper()
	for _, a := range agents {
		if len(a.ptrs) != rounds {
			t.Fatalf("worker %d applied %d of %d rounds", a.id, len(a.ptrs), rounds)
		}
		for r, p := range a.ptrs {
			if p != a.ptrs[0] {
				t.Fatalf("worker %d: round %d's result is a fresh buffer (a model-sized copy per round)", a.id, r)
			}
		}
		a.requireHeldIntact("after the run")
		if rounds > 1 && slices.Equal(a.applied[rounds-2], a.held) {
			t.Fatalf("worker %d: rounds %d and %d applied identical aggregates; the test cannot see an overwrite", a.id, rounds-2, rounds-1)
		}
	}
}

func TestISWAggregateResultAliasedUntilNextRound(t *testing.T) {
	nFloats := 2*protocolFloats + 9
	base := DefaultISWConfig()
	base.RecoveryTimeout = 2 * time.Millisecond
	star := ClusterSpec{Topology: TopoStar, Workers: 4}
	clean, _, cleanTotal := runReliability(t, relSpec(star, nFloats, &base, nil, 0), relIters)

	failover := base
	failover.FailoverAfter = 3
	paths := []struct {
		name string
		cfg  ISWConfig
		plan *netsim.FaultPlan
		took func(c *ISWCluster) bool
	}{
		{"sync", base, nil, func(*ISWCluster) bool { return true }},
		{"crash-rejoin", base, &netsim.FaultPlan{Crashes: []netsim.CrashFault{
			{Worker: 2, AtRound: relCrashRound, PartialSegs: 2, Rejoin: true, Outage: 5 * time.Millisecond}}},
			func(c *ISWCluster) bool { return c.Rejoins == 1 }},
		{"failover", failover, &netsim.FaultPlan{Switches: []netsim.SwitchFault{{Switch: -1, At: cleanTotal / 2}}},
			func(c *ISWCluster) bool { return c.Failovers == 4 }},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			var agents []*aliasAgent
			cfg := path.cfg
			ints, c, _ := runReliabilityWith(t, relSpec(star, nFloats, &cfg, path.plan, 0), relIters,
				func(a *intAgent) rl.Agent {
					agents = append(agents, &aliasAgent{intAgent: a, t: t})
					return agents[len(agents)-1]
				})
			if !path.took(c) {
				t.Fatalf("the run did not take the %s path (rejoins %d, failovers %d)", path.name, c.Rejoins, c.Failovers)
			}
			requireBitIdentical(t, clean, ints, relIters)
			requireOneBuffer(t, agents, relIters)
		})
	}

	t.Run("async", func(t *testing.T) {
		const updates = 12
		k := sim.NewKernel()
		c := Build(k, starSpec(ModeISW, 4, nFloats)).ISW
		agents := make([]*aliasAgent, 4)
		rlAgents := make([]rl.Agent, 4)
		for i := range agents {
			agents[i] = &aliasAgent{intAgent: newIntAgent(i, nFloats), t: t, async: true,
				rx: c.Workers()[i].RX.Len}
			rlAgents[i] = agents[i]
		}
		// The weight update is long enough that the next aggregate's
		// frames reach the NIC while this one is still being applied:
		// they must wait in the receive queue, not land in the result.
		RunAsyncISW(k, rlAgents, c, AsyncConfig{Updates: updates, StalenessBound: 3,
			LocalCompute: 50 * time.Microsecond, WeightUpdate: 80 * time.Microsecond})
		requireOneBuffer(t, agents, updates)
		for _, a := range agents {
			if !a.busy {
				t.Fatalf("worker %d never applied a result with frames waiting: the run does not test the overlap", a.id)
			}
		}
		for _, a := range agents[1:] {
			for u := range a.applied {
				if !slices.Equal(a.applied[u], agents[0].applied[u]) {
					t.Fatalf("worker %d update %d differs from worker 0's", a.id, u)
				}
			}
		}
	})
}
