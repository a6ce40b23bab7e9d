package multijob

import (
	"testing"
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// intAgent is a deterministic integer-gradient agent that records
// every aggregate it applied — the bit-identity witness for the
// preemption property tests (small integers sum exactly in float32,
// so any divergence is a real protocol bug, not rounding).
type intAgent struct {
	id, iter int
	n        int
	params   []float32
	applied  [][]float32
}

func newIntAgent(id, n int) *intAgent {
	return &intAgent{id: id, n: n, params: make([]float32, n)}
}

func (a *intAgent) Name() string { return "int" }
func (a *intAgent) GradLen() int { return a.n }
func (a *intAgent) ComputeGradient(dst []float32) {
	for i := range dst {
		dst[i] = float32((a.id + 1) * (a.iter + i%7) % 50)
	}
	a.iter++
}
func (a *intAgent) ApplyAggregated(sum []float32, h int) {
	a.applied = append(a.applied, append([]float32(nil), sum...))
	for i := range a.params {
		a.params[i] += sum[i] / float32(h)
	}
}
func (a *intAgent) ReadParams(dst []float32)  { copy(dst, a.params) }
func (a *intAgent) WriteParams(src []float32) { copy(a.params, src) }
func (a *intAgent) DrainEpisodes() []float64  { return nil }

// runPreemptScenario runs job A (preemptible) alone as the reference,
// then again with a higher-priority job B arriving mid-run on a fabric
// whose SRAM only fits one context, forcing A's checkpoint/restore.
// It asserts A was actually preempted and that A's applied aggregates
// and final parameters are bit-identical to the unpreempted run.
func runPreemptScenario(t *testing.T, newFabric func(k *sim.Kernel, cfg FabricConfig) *Fabric,
	nW int, faults *netsim.FaultPlan) {
	t.Helper()
	const floats, iters = 900, 6
	wl := ppoWorkload(t)
	demand := accel.ContextDemand(floats, protocol.FloatsPerPacket)

	specA := func(agents []*intAgent) JobSpec {
		return JobSpec{
			Name: "victim", Workload: wl, Workers: nW,
			Iterations: iters, ModelFloats: floats,
			Preemptible: true, RecoveryTimeout: 12 * time.Millisecond,
			Faults:   faults,
			NewAgent: func(i int) rl.Agent { return agents[i] },
		}
	}
	newAgents := func() []*intAgent {
		agents := make([]*intAgent, nW)
		for i := range agents {
			agents[i] = newIntAgent(i, floats)
		}
		return agents
	}

	// Reference: A alone (same fabric shape, same pool, no competitor).
	refAgents := newAgents()
	k1 := sim.NewKernel()
	f1 := newFabric(k1, FabricConfig{
		SRAMBytes: demand + demand/2, Policy: accel.PartitionDemand,
		Admission: PriorityPreempt(),
	})
	if _, err := Run(f1, []JobSpec{specA(refAgents)}); err != nil {
		t.Fatal(err)
	}

	// Contended: B (higher priority, non-preemptible) lands mid-run.
	agents := newAgents()
	k2 := sim.NewKernel()
	f2 := newFabric(k2, FabricConfig{
		SRAMBytes: demand + demand/2, Policy: accel.PartitionDemand,
		Admission: PriorityPreempt(),
	})
	res, err := Run(f2, []JobSpec{
		specA(agents),
		{Name: "urgent", Workload: wl, Workers: nW,
			Iterations: 3, ModelFloats: floats, Priority: 5,
			SubmitAt: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res[0], res[1]
	if a.Preemptions == 0 {
		t.Fatal("job A was never preempted — the scenario did not exercise checkpoint/restore")
	}
	if b.Queued || b.Preemptions != 0 {
		t.Fatalf("urgent job queued=%v preemptions=%d, want immediate admission via preemption", b.Queued, b.Preemptions)
	}
	if a.Rounds != iters || b.Rounds != 3 {
		t.Fatalf("rounds: A=%d (want %d) B=%d (want 3)", a.Rounds, iters, b.Rounds)
	}
	// A finished strictly later than in the reference (it lost the
	// switch for B's whole run) — but computed exactly the same thing.
	for w := range agents {
		if len(agents[w].applied) != len(refAgents[w].applied) {
			t.Fatalf("worker %d applied %d aggregates, reference %d",
				w, len(agents[w].applied), len(refAgents[w].applied))
		}
		for it := range agents[w].applied {
			got, want := agents[w].applied[it], refAgents[w].applied[it]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("worker %d iter %d aggregate[%d]: preempted run %v, reference %v",
						w, it, i, got[i], want[i])
				}
			}
		}
		for i := range agents[w].params {
			if agents[w].params[i] != refAgents[w].params[i] {
				t.Fatalf("worker %d param[%d]: preempted run %v, reference %v",
					w, i, agents[w].params[i], refAgents[w].params[i])
			}
		}
	}
	// No SRAM leaked across preempt/restore/evict cycles.
	for _, is := range f2.Switches {
		if pool := is.SRAMPool(); pool != nil && (pool.Jobs() != 0 || pool.Used() != 0) {
			t.Fatalf("switch %v leaked SRAM: %d jobs, %d bytes", is.Addr(), pool.Jobs(), pool.Used())
		}
	}
}

// TestPartialRestoreKeepsCheckpoints: three one-rack jobs share the
// root of a three-rack tree whose switches fit one context each. The
// urgent job preempts the victim; when it ends, the middle-priority job
// takes the root first, so the victim's restore succeeds on its ToR and
// is refused at the root. The victim goes back to waiting with both
// contexts detached, and restores in full once the middle job frees the
// root. A rollback that drops a detached context wedges the victim, so a
// hang fails the test.
func TestPartialRestoreKeepsCheckpoints(t *testing.T) {
	const floats = 900
	wl := ppoWorkload(t)
	demand := accel.ContextDemand(floats, protocol.FloatsPerPacket)
	f := NewTreeFabric(sim.NewKernel(), 6, 2, testLink(), testLink(), FabricConfig{
		SRAMBytes: demand + demand/2, Policy: accel.PartitionDemand,
		Admission: PriorityPreempt(),
	})
	spec := func(name string, iters, priority int, at time.Duration) JobSpec {
		return JobSpec{Name: name, Workload: wl, Workers: 2,
			Iterations: iters, ModelFloats: floats, Priority: priority, SubmitAt: at}
	}
	victim := spec("victim", 6, 0, 0)
	victim.Preemptible, victim.RecoveryTimeout = true, 12*time.Millisecond
	var res []*JobResult
	done := make(chan error, 1)
	go func() {
		var err error
		res, err = Run(f, []JobSpec{victim, spec("urgent", 3, 5, 20*time.Millisecond), spec("middle", 3, 3, 25*time.Millisecond)})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the victim never restored after its partial restore")
	}
	v, u, m := res[0], res[1], res[2]
	if v.Preemptions != 1 || v.Rounds != 6 {
		t.Fatalf("victim: %d preemptions, %d rounds; want 1, 6", v.Preemptions, v.Rounds)
	}
	if !m.Queued || m.Started != u.Finished || v.Finished <= m.Finished {
		t.Fatalf("the middle job did not hold the root across the victim's first restore: "+
			"urgent ends %v, middle runs %v..%v (queued %v), victim ends %v", u.Finished, m.Started, m.Finished, m.Queued, v.Finished)
	}
	for _, is := range f.Switches {
		if pool := is.SRAMPool(); pool.Jobs() != 0 || pool.Used() != 0 {
			t.Fatalf("switch %v leaked SRAM: %d jobs, %d bytes", is.Addr(), pool.Jobs(), pool.Used())
		}
	}
}

// TestPreemptRestoreBitIdenticalStar is the checkpoint/restore
// property pin on the single-switch fabric.
func TestPreemptRestoreBitIdenticalStar(t *testing.T) {
	runPreemptScenario(t, func(k *sim.Kernel, cfg FabricConfig) *Fabric {
		return NewStarFabric(k, 4, testLink(), cfg)
	}, 2, nil)
}

// TestPreemptRestoreBitIdenticalTree extends the pin to the rack tree:
// a job spanning both racks is checkpointed and restored on its two
// ToRs and the root together.
func TestPreemptRestoreBitIdenticalTree(t *testing.T) {
	uplink := netsim.LinkConfig{BitsPerSecond: 40e9, Propagation: 4 * time.Microsecond}
	runPreemptScenario(t, func(k *sim.Kernel, cfg FabricConfig) *Fabric {
		return NewTreeFabric(k, 8, 2, testLink(), uplink, cfg)
	}, 4, nil)
}

// TestPreemptRestoreBitIdenticalFatTree extends the pin to the fat-
// tree, k=2 and k=4: the victim's contexts are checkpointed and restored
// coherently across its whole edge→agg→core chain.
func TestPreemptRestoreBitIdenticalFatTree(t *testing.T) {
	uplink := netsim.LinkConfig{BitsPerSecond: 40e9, Propagation: 4 * time.Microsecond}
	for _, kAry := range []int{2, 4} {
		runPreemptScenario(t, func(k *sim.Kernel, cfg FabricConfig) *Fabric {
			return NewFatTreeFabric(k, kAry, 2, testLink(), uplink, uplink, cfg)
		}, kAry, nil)
	}
}

// TestPreemptRestoreBitIdenticalUnderFaults layers a lossy worker NIC
// (PR 7 FaultPlan) on top of the preemption: retransmissions, the
// dedup bitmap, and checkpoint/restore must compose without changing a
// single bit of the aggregates.
func TestPreemptRestoreBitIdenticalUnderFaults(t *testing.T) {
	fp := &netsim.FaultPlan{
		Seed:  7,
		Links: []netsim.LinkFault{{Worker: 0, Dir: netsim.DirBoth, Loss: 0.05}},
	}
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	runPreemptScenario(t, func(k *sim.Kernel, cfg FabricConfig) *Fabric {
		return NewStarFabric(k, 4, testLink(), cfg)
	}, 2, fp)
}
