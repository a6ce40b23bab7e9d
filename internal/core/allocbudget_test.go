package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// TestRecoveryRoundAllocBudget pins what a round of the recovery path
// may allocate once the run has touched its memory: the benchmark's
// fattree16-int32-lossy shape (k=4 fat-tree, 2 hosts per edge,
// int32block, dedup, the perfmodel's Help timer, 0.0005 loss under plan
// seed 1009) at 40 000 floats. Round 1 builds everything a round needs:
// retained gradients, assemblers, segment buffers, shadow slots, port
// rings and the frame pools. With every frame on a pooled header and an
// emission's sum written once, rounds 3 to 6 each allocate at most a
// quarter of that: a header per uplink frame, Help or Ack, or a segment
// buffer per up-forward, would each put them over.
func TestRecoveryRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const nFloats, rounds = 40000, 6
	link := netsim.TenGbE()
	w := perfmodel.Workload{Name: "int32-lossy", ModelBytes: 4 * nFloats,
		LocalCompute: 500 * time.Microsecond, WeightUpdate: 100 * time.Microsecond}
	cfg := DefaultISWConfig()
	cfg.RecoveryTimeout = RecoveryTimeoutFor(w, link)
	plan := &netsim.FaultPlan{Seed: 1009}
	for i := 0; i < 16; i++ {
		plan.Links = append(plan.Links, netsim.LinkFault{Worker: i, Dir: netsim.DirBoth, Loss: 0.0005})
	}
	k := sim.NewKernel()
	c := Build(k, ClusterSpec{Topology: TopoFatTree, Mode: ModeISW, KAry: 4, HostsPerEdge: 2,
		ModelFloats: nFloats, Link: link, Compression: protocol.CompInt32Block,
		ISW: &cfg, Dedup: true, Faults: plan}).ISW

	// total[r] is the process's cumulative allocation as worker 0 starts
	// round r+1. The rounds are synchronous, so between two readings lies
	// one round of every worker and every switch.
	var total [rounds + 1]uint64
	bar := sim.NewBarrier(k, len(c.Workers()))
	for i := range c.Workers() {
		a := &fracAgent{id: i, n: nFloats}
		svc := c.Client(i)
		k.Spawn(fmt.Sprintf("worker-%d", i), func(p *sim.Proc) {
			svc.Setup(p)
			bar.Wait(p)
			grad := make([]float32, nFloats)
			for r := 0; r <= rounds; r++ {
				if a.id == 0 {
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					total[r] = ms.TotalAlloc
				}
				if r == rounds {
					break
				}
				a.gradient(grad)
				p.Sleep(w.LocalCompute)
				svc.Aggregate(p, grad)
				p.Sleep(w.WeightUpdate)
			}
		})
	}
	k.Run()
	k.Shutdown()

	var drops uint64
	for _, h := range c.Workers() {
		drops += h.Port().Dropped + h.Port().Peer().Dropped
	}
	if drops == 0 || c.HelpsSent == 0 {
		t.Fatalf("%d frames lost, %d Helps sent: the recovery path did not run", drops, c.HelpsSent)
	}
	first := total[1] - total[0]
	for r := 3; r <= rounds; r++ {
		if got := total[r] - total[r-1]; 4*got > first {
			t.Errorf("round %d allocated %d KB, more than a quarter of round 1's %d KB",
				r, got>>10, first>>10)
		}
	}
	t.Logf("round 1: %d KB; rounds 2-%d: %v KB; %d frames lost, %d Helps",
		first>>10, rounds, func() (kb []uint64) {
			for r := 2; r <= rounds; r++ {
				kb = append(kb, (total[r]-total[r-1])>>10)
			}
			return kb
		}(), drops, c.HelpsSent)
}
