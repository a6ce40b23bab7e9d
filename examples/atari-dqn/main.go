// Atari-style DQN workload: compare the three synchronous aggregation
// strategies on the paper's largest model (DQN, 6.41 MB gradients).
//
// The comparison has two halves, matching the paper's methodology:
//
//  1. Timing — synthetic full-size (6.41 MB) gradients through the
//     packet-level simulation under PS, Ring-AllReduce, and iSwitch.
//
//  2. Convergence — real DQN training on GridPong (the Atari Pong
//     stand-in); synchronous strategies are mathematically equivalent,
//     so one trajectory serves all three, reached at each strategy's
//     own wall-clock rate (the paper's Figure 13).
//
//     go run ./examples/atari-dqn
package main

import (
	"fmt"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/envs"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

func main() {
	const workers = 4
	w, _ := perfmodel.WorkloadByName("DQN")

	// --- Half 1: full-size timing under each strategy. ---
	perIter := map[string]time.Duration{}
	modes := map[string]core.Mode{"PS": core.ModePS, "AR": core.ModeAllReduce, "iSW": core.ModeISW}
	for _, strategy := range []string{"PS", "AR", "iSW"} {
		spec := core.ClusterSpec{
			Topology:    core.TopoStar,
			Mode:        modes[strategy],
			Workers:     workers,
			ModelFloats: w.Floats(),
			Link:        netsim.TenGbE(),
		}
		stats, err := core.Build(sim.NewKernel(), spec.WithWorkload(w)).Run(core.Job{
			Iterations: 3, LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate})
		if err != nil {
			panic(err)
		}
		perIter[strategy] = stats.MeanIter()
		fmt.Printf("%-4s per-iteration %8.2f ms (aggregation %8.2f ms)\n",
			strategy, float64(stats.MeanIter())/1e6, float64(stats.MeanAgg())/1e6)
	}
	fmt.Printf("iSwitch speedup: %.2fx vs PS, %.2fx vs AllReduce (paper: 3.66x, ~1.9x)\n\n",
		float64(perIter["PS"])/float64(perIter["iSW"]),
		float64(perIter["AR"])/float64(perIter["iSW"]))

	// --- Half 2: real convergence on the stand-in environment. ---
	const iterations = 4000
	agents := make([]*rl.DQN, workers)
	for i := range agents {
		agents[i] = rl.NewDQN(envs.NewGridPong(int64(10+i)), rl.DefaultDQNConfig(), 7, int64(20+i))
	}
	sum := make([]float32, agents[0].GradLen())
	g := make([]float32, agents[0].GradLen())
	var rewards []float64
	fmt.Printf("training DQN on GridPong, %d distributed iterations...\n", iterations)
	for it := 1; it <= iterations; it++ {
		for i := range sum {
			sum[i] = 0
		}
		for _, a := range agents {
			a.ComputeGradient(g)
			for i := range sum {
				sum[i] += g[i]
			}
		}
		for _, a := range agents {
			a.ApplyAggregated(sum, workers)
			rewards = append(rewards, a.DrainEpisodes()...)
		}
		if it%(iterations/8) == 0 {
			avg := 0.0
			lo := len(rewards) - 40
			if lo < 0 {
				lo = 0
			}
			for _, r := range rewards[lo:] {
				avg += r
			}
			avg /= float64(len(rewards) - lo)
			fmt.Printf("iter %5d  reward %6.2f | wall-clock: PS %7.1fs  AR %7.1fs  iSW %7.1fs\n",
				it, avg,
				float64(it)*perIter["PS"].Seconds(),
				float64(it)*perIter["AR"].Seconds(),
				float64(it)*perIter["iSW"].Seconds())
		}
	}
	fmt.Println("\nsame reward trajectory; iSwitch just gets there sooner (Figure 13).")
}
