// Rack-scale hierarchical aggregation: 12 workers in racks of three,
// ToR iSwitches aggregating locally and a root iSwitch aggregating
// across racks (paper §3.4, Figure 10).
//
// The example shows (1) that hierarchical aggregation produces exactly
// the same sums as a flat switch, with real DDPG training across the
// hierarchy, and (2) how each strategy's per-iteration time scales from
// 4 to 12 workers (the paper's Figure 15 shape).
//
//	go run ./examples/rackscale
package main

import (
	"fmt"

	"iswitch/internal/core"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

func main() {
	const perRack = 3
	w, _ := perfmodel.WorkloadByName("DDPG")

	// --- Functional: real DDPG training across a 4-rack hierarchy. ---
	const workers = 12
	agents := make([]rl.Agent, workers)
	for i := range agents {
		a, err := rl.NewWorkloadAgent(rl.WorkloadDDPG, 42, int64(800+i))
		if err != nil {
			panic(err)
		}
		agents[i] = a
	}
	cluster := core.Build(sim.NewKernel(), core.ClusterSpec{
		Topology:    core.TopoTree,
		Mode:        core.ModeISW,
		Workers:     workers,
		PerRack:     perRack,
		ModelFloats: agents[0].GradLen(),
		Link:        netsim.TenGbE(),
		Uplink:      netsim.FortyGbE(),
	})
	root, tors := cluster.ISW.Fabric.IS, cluster.Switches()[1:]
	fmt.Printf("training DDPG on %d workers across %d racks (hierarchical aggregation)...\n",
		workers, len(tors))
	stats, err := cluster.Run(core.Job{Iterations: 400, LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate,
		NewAgent: func(i int) rl.Agent { return agents[i] }})
	if err != nil {
		panic(err)
	}
	fmt.Printf("  %d iterations in %v virtual time (per-iteration %v)\n",
		400, stats.Total.Round(1e6), stats.MeanIter().Round(1e4))
	for r, tor := range tors {
		fmt.Printf("  rack %d ToR: %d packets in, %d partial aggregates forwarded up\n",
			r, tor.DataIn, tor.UpForwards)
	}
	fmt.Printf("  root switch: %d partial aggregates in, %d global broadcasts\n",
		root.DataIn, root.Broadcasts)

	// --- Timing: Figure 15-style scaling, full DDPG-size gradients. ---
	fmt.Printf("\nscaling DDPG-sized (%d KB) timing, racks of %d:\n", w.ModelBytes/1024, perRack)
	fmt.Printf("%-8s %-10s %-10s %-10s %-8s\n", "workers", "PS", "AR", "iSW", "Ideal")
	base := map[string]float64{}
	modes := map[string]core.Mode{"PS": core.ModePS, "AR": core.ModeAllReduce, "iSW": core.ModeISW}
	for _, n := range []int{4, 6, 9, 12} {
		row := fmt.Sprintf("%-8d", n)
		for _, strategy := range []string{"PS", "AR", "iSW"} {
			spec := core.ClusterSpec{
				Topology:    core.TopoTree,
				Mode:        modes[strategy],
				Workers:     n,
				PerRack:     perRack,
				ModelFloats: w.Floats(),
				Link:        netsim.TenGbE(),
				Uplink:      netsim.FortyGbE(),
			}
			st, err := core.Build(sim.NewKernel(), spec.WithWorkload(w)).Run(core.Job{
				Iterations: 2, LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate})
			if err != nil {
				panic(err)
			}
			perIter := st.MeanIter().Seconds()
			if n == 4 {
				base[strategy] = perIter
			}
			speedup := float64(n) / 4 * base[strategy] / perIter
			row += fmt.Sprintf(" %-10.2f", speedup)
		}
		row += fmt.Sprintf(" %-8.2f", float64(n)/4)
		fmt.Println(row)
	}
	fmt.Println("\n(iSwitch stays near the ideal line; AllReduce degrades with hop count,")
	fmt.Println(" PS saturates at the central server — the paper's Figure 15.)")
}
