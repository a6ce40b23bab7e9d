package core

import (
	"testing"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

const protocolFloats = protocol.FloatsPerPacket

// Synchronous training must survive packet loss: workers detect stalled
// broadcasts, send Help, and everyone retransmits; the switch's dedup
// bitmap keeps the sums exact.
func TestSyncSurvivesPacketLoss(t *testing.T) {
	const nWorkers, nFloats, iters = 4, protocolFloats*3 + 11, 6
	k := sim.NewKernel()
	cfg := DefaultISWConfig()
	cfg.RecoveryTimeout = 2 * time.Millisecond
	spec := starSpec(ModeISW, nWorkers, nFloats)
	spec.ISW = &cfg
	c := Build(k, spec).ISW
	c.Fabric.IS.SetDedup(true)
	// Worker 0's uplink loses 20% of packets; worker 1's downlink 10%.
	c.Workers()[0].Port().SetLoss(0.20, 7)
	c.Fabric.IS.Switch().Ports()[1].SetLoss(0.10, 9)

	agents := make([]rl.Agent, nWorkers)
	ints := make([]*intAgent, nWorkers)
	services := make([]Service, nWorkers)
	for i := range agents {
		ints[i] = newIntAgent(i, nFloats)
		agents[i] = ints[i]
		services[i] = c.Client(i)
	}
	stats := RunSync(k, agents, services, SyncConfig{Iterations: iters,
		LocalCompute: 200 * time.Microsecond, WeightUpdate: 50 * time.Microsecond})

	// Reference sums from loss-free direct computation.
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
				t.Fatalf("worker %d applied %d of %d updates", w, len(a.applied), iters)
			}
			for i := range want {
				if a.applied[it][i] != want[i] {
					t.Fatalf("iter %d worker %d elem %d: got %v want %v (loss corrupted the sum)",
						it, w, i, a.applied[it][i], want[i])
				}
			}
		}
	}
	dropped := c.Workers()[0].Port().Dropped + c.Fabric.IS.Switch().Ports()[1].Dropped
	if dropped == 0 {
		t.Fatal("loss injection did not fire; test proves nothing")
	}
	if c.Fabric.IS.Accelerator().Stats().DupDropped == 0 {
		t.Log("note: no duplicate retransmissions were needed this run")
	}
	t.Logf("survived %d dropped packets (%d duplicate retransmits absorbed, %d help relays) in %v",
		dropped, c.Fabric.IS.Accelerator().Stats().DupDropped, c.Fabric.IS.HelpRelayed, stats.Total)
}

// With recovery disabled and loss present, training must stall rather
// than silently mis-aggregate — the simulation ends with workers parked.
func TestSyncWithoutRecoveryStallsOnLoss(t *testing.T) {
	const nWorkers, nFloats = 2, 100
	k := sim.NewKernel()
	c := Build(k, starSpec(ModeISW, nWorkers, nFloats)).ISW
	c.Workers()[0].Port().SetLoss(1.0, 3) // lose everything from worker 0

	agents := make([]rl.Agent, nWorkers)
	ints := make([]*intAgent, nWorkers)
	services := make([]Service, nWorkers)
	for i := range agents {
		ints[i] = newIntAgent(i, nFloats)
		agents[i] = ints[i]
		services[i] = c.Client(i)
	}
	done := make(chan struct{})
	go func() {
		RunSync(k, agents, services, SyncConfig{Iterations: 2,
			LocalCompute: 100 * time.Microsecond, WeightUpdate: 10 * time.Microsecond})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("simulation did not terminate")
	}
	for w, a := range ints {
		if len(a.applied) != 0 {
			t.Fatalf("worker %d applied %d updates despite total loss", w, len(a.applied))
		}
	}
}

// Regression: a worker that loses the broadcast of the FINAL iteration
// has no active peers left to answer its Help — the switch's emission
// cache must re-serve the aggregate, or the worker (and the simulation)
// hangs forever.
func TestRecoverySurvivesFinalRoundDownlinkLoss(t *testing.T) {
	const nWorkers, nFloats, iters = 4, 2*protocolFloats + 9, 12
	k := sim.NewKernel()
	cfg := DefaultISWConfig()
	cfg.RecoveryTimeout = 3 * time.Millisecond
	spec := starSpec(ModeISW, nWorkers, nFloats)
	spec.ISW = &cfg
	c := Build(k, spec).ISW
	c.Fabric.IS.SetDedup(true)
	// Heavy downlink loss toward worker 0 makes a lost final-round
	// broadcast overwhelmingly likely across 12 iterations.
	c.Fabric.IS.Switch().Ports()[0].SetLoss(0.30, 5)

	agents := make([]rl.Agent, nWorkers)
	ints := make([]*intAgent, nWorkers)
	services := make([]Service, nWorkers)
	for i := range agents {
		ints[i] = newIntAgent(i, nFloats)
		agents[i] = ints[i]
		services[i] = c.Client(i)
	}
	done := make(chan struct{})
	go func() {
		RunSync(k, agents, services, SyncConfig{Iterations: iters,
			LocalCompute: 500 * time.Microsecond, WeightUpdate: 50 * time.Microsecond})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("simulation hung: final-round loss not recoverable")
	}
	for w, a := range ints {
		if len(a.applied) != iters {
			t.Fatalf("worker %d completed %d of %d iterations", w, len(a.applied), iters)
		}
	}
	if c.Fabric.IS.Switch().Ports()[0].Dropped == 0 {
		t.Fatal("loss injection did not fire")
	}
	t.Logf("dropped %d, help served from cache %d, relayed %d",
		c.Fabric.IS.Switch().Ports()[0].Dropped, c.Fabric.IS.HelpServed, c.Fabric.IS.HelpRelayed)
}
