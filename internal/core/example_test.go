package core_test

import (
	"fmt"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// A run is a spec plus a job: the spec names the fabric, the strategy,
// the wire scheme and the faults; the job names how long to train and
// what each step costs. With no agent factory the job trains synthetic
// agents of the spec's model size.
func ExampleCluster_Run() {
	isw := core.DefaultISWConfig()
	isw.RecoveryTimeout = 4 * time.Millisecond // arm Help/retransmit recovery
	c := core.Build(sim.NewKernel(), core.ClusterSpec{
		Topology:    core.TopoTree,
		Mode:        core.ModeISW,
		Workers:     8,
		PerRack:     4,
		ModelFloats: 20_000,
		Link:        netsim.TenGbE(),
		Uplink:      netsim.FortyGbE(),
		ISW:         &isw,
		Dedup:       true,                    // arm switch-side recovery (shadow slots + bitmap)
		Compression: protocol.CompInt32Block, // block-scaled int32 wire scheme
		Faults: &netsim.FaultPlan{
			Seed:    42,
			Links:   []netsim.LinkFault{{Worker: 0, Dir: netsim.DirBoth, Loss: 0.02}},
			Crashes: []netsim.CrashFault{{Worker: 2, AtRound: 20, Rejoin: true, Outage: 10 * time.Millisecond}},
		},
	})
	stats, err := c.Run(core.Job{
		Iterations:   40,
		LocalCompute: 500 * time.Microsecond,
		WeightUpdate: 100 * time.Microsecond,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d workers x %d iterations in %v\n", len(stats.Workers), len(stats.Workers[0].Iters), stats.Total.Round(time.Millisecond))
	fmt.Printf("rejoins %d, Helps sent %v\n", c.ISW.Rejoins, c.ISW.HelpsSent > 0)
	// Output:
	// 8 workers x 40 iterations in 267ms
	// rejoins 1, Helps sent true
}
