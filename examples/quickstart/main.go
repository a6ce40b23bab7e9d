// Quickstart: synchronous distributed RL training with in-switch
// aggregation on a simulated 4-worker cluster.
//
// Four A2C agents learn CartPole; every iteration their gradients
// travel as iSwitch data packets over simulated 10GbE to a programmable
// switch whose accelerator sums them on the fly and broadcasts the
// aggregate back. The virtual clock reports how long the run would take
// on the paper's testbed.
//
//	go run ./examples/quickstart
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
	const workers = 4
	const iterations = 2500

	// Agents share the model seed (identical initial weights) and get
	// distinct exploration seeds.
	agents := make([]rl.Agent, workers)
	for i := range agents {
		a, err := rl.NewWorkloadAgent(rl.WorkloadA2C, 42, int64(100+i))
		if err != nil {
			panic(err)
		}
		agents[i] = a
	}

	// One iSwitch-enabled top-of-rack switch, one 10GbE link per worker.
	cluster := core.Build(sim.NewKernel(), core.ClusterSpec{
		Topology:    core.TopoStar,
		Mode:        core.ModeISW,
		Workers:     workers,
		ModelFloats: agents[0].GradLen(),
		Link:        netsim.TenGbE(),
	})

	// Stage durations from the paper's A2C calibration.
	w, _ := perfmodel.WorkloadByName("A2C")
	fmt.Printf("training %d iterations of distributed A2C (%d params) on %d workers...\n",
		iterations, agents[0].GradLen(), workers)
	stats, err := cluster.Run(core.Job{
		Iterations:   iterations,
		LocalCompute: w.LocalCompute,
		WeightUpdate: w.WeightUpdate,
		NewAgent:     func(i int) rl.Agent { return agents[i] },
	})
	if err != nil {
		panic(err)
	}

	rewards := stats.AllRewards()
	fmt.Printf("\n%-14s %-12s\n", "virtual time", "episode reward (moving avg)")
	step := len(rewards) / 10
	var windows []float64
	for i, r := range rewards {
		windows = append(windows, r.Reward)
		if step > 0 && (i+1)%step == 0 {
			avg := 0.0
			lo := len(windows) - 30
			if lo < 0 {
				lo = 0
			}
			for _, x := range windows[lo:] {
				avg += x
			}
			fmt.Printf("%-14v %8.1f\n", r.Time.Round(1e8), avg/float64(len(windows)-lo))
		}
	}
	fmt.Printf("\ncompleted in %v of virtual cluster time\n", stats.Total.Round(1e6))
	fmt.Printf("mean per-iteration %v (compute %v | in-switch aggregation %v | update %v)\n",
		stats.MeanIter().Round(1e4), stats.Workers[0].MeanCompute().Round(1e4),
		stats.MeanAgg().Round(1e4), stats.Workers[0].MeanUpdate().Round(1e4))
	fmt.Printf("switch stats: %d data packets in, %d segment broadcasts\n",
		cluster.ISW.Fabric.IS.DataIn, cluster.ISW.Fabric.IS.Broadcasts)
}
