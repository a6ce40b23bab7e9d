package experiments

import (
	"fmt"
	"strings"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/envs"
	"iswitch/internal/perfmodel"
	"iswitch/internal/rl"
	"iswitch/internal/tensor"
)

// Training-curve experiments (Figures 13 and 14): reward versus
// wall-clock time. Convergence trajectories come from real RL training
// on the stand-in environments; wall-clock scaling comes from the
// packet-level timing simulation at the paper's full model sizes
// (DESIGN.md records this composition).

// CurveOpts sizes the functional runs.
type CurveOpts struct {
	// SyncIters is the functional iteration count for Figure 13.
	SyncIters int
	// AsyncUpdatesISW / AsyncUpdatesPS are the Figure 14 update targets
	// (PS applies one gradient per update, iSwitch H per update, so PS
	// needs proportionally more updates for the same sample count).
	AsyncUpdatesISW, AsyncUpdatesPS int64
	// Points is how many checkpoints each curve prints.
	Points int
}

// DefaultCurveOpts is sized for minutes-scale runs; QuickCurveOpts for
// unit tests.
func DefaultCurveOpts() CurveOpts {
	return CurveOpts{SyncIters: 6000, AsyncUpdatesISW: 1500, AsyncUpdatesPS: 6000, Points: 12}
}

// QuickCurveOpts keeps CI runs short.
func QuickCurveOpts() CurveOpts {
	return CurveOpts{SyncIters: 1200, AsyncUpdatesISW: 300, AsyncUpdatesPS: 1200, Points: 6}
}

// movingAvg returns the mean of the last k values (or all, if fewer).
func movingAvg(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo := len(xs) - k
	if lo < 0 {
		lo = 0
	}
	var s float64
	for _, x := range xs[lo:] {
		s += x
	}
	return s / float64(len(xs)-lo)
}

// Figure13 reproduces the synchronous DQN training curves: the same
// reward trajectory (sync PS, AR, and iSwitch are mathematically
// equivalent — proven by core's equivalence tests) reached at each
// strategy's own wall-clock rate. The trajectory is trained for real on
// GridPong with 4 distributed workers; per-iteration times come from
// the DQN-sized timing simulation.
func Figure13(opts CurveOpts) Result {
	const workers = 4
	agents := make([]*rl.DQN, workers)
	for i := range agents {
		agents[i] = rl.NewDQN(newGridPong(int64(200+i)), rl.DefaultDQNConfig(), 42, int64(300+i))
	}
	gl := agents[0].GradLen()
	sum := make([]float32, gl)
	g := make([]float32, gl)

	type point struct {
		iter   int
		reward float64
	}
	var curve []point
	var rewards []float64
	step := opts.SyncIters / opts.Points
	for it := 1; it <= opts.SyncIters; it++ {
		tensor.Zero(sum)
		for _, a := range agents {
			a.ComputeGradient(g)
			tensor.Add(sum, g)
		}
		for _, a := range agents {
			a.ApplyAggregated(sum, workers)
			rewards = append(rewards, a.DrainEpisodes()...)
		}
		if it%step == 0 {
			curve = append(curve, point{iter: it, reward: movingAvg(rewards, 40)})
		}
	}

	// Wall-clock scale per strategy from the timing simulation, one
	// pooled cell per strategy.
	w, _ := perfmodel.WorkloadByName("DQN")
	strats := SyncStrategies()
	iters := parMap(len(strats), func(i int) time.Duration {
		return simSync(w, strats[i], workers, 0, 3).MeanIter()
	})
	perIter := map[string]time.Duration{}
	for i, s := range strats {
		perIter[s] = iters[i]
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s | %-12s %-12s %-12s\n",
		"iter", "avg reward", "PS time", "AR time", "iSW time")
	for _, pt := range curve {
		fmt.Fprintf(&b, "%-8d %-10.2f | %9.1f s  %9.1f s  %9.1f s\n",
			pt.iter, pt.reward,
			float64(pt.iter)*perIter[StratPS].Seconds(),
			float64(pt.iter)*perIter[StratAR].Seconds(),
			float64(pt.iter)*perIter[StratISW].Seconds())
	}
	fmt.Fprintf(&b, "(same reward level reached %.2fx sooner with iSW than PS, %.2fx vs AR)\n",
		perIter[StratPS].Seconds()/perIter[StratISW].Seconds(),
		perIter[StratAR].Seconds()/perIter[StratISW].Seconds())
	return Result{ID: "figure13", Title: "Training curves of DQN, synchronous approaches", Text: b.String()}
}

// Figure14 reproduces the asynchronous DQN training curves. Both runs
// train for real through the simulated network (4 workers, S=3); the
// convergence gap comes from measured gradient staleness, and the time
// axis is scaled to the full-model per-iteration times from Table 5's
// simulation.
func Figure14(opts CurveOpts) Result {
	const workers = 4
	w, _ := perfmodel.WorkloadByName("DQN")

	run := func(strategy string, updates int64) (*core.AsyncStats, time.Duration) {
		agents := make([]rl.Agent, workers)
		for i := range agents {
			agents[i] = rl.NewDQN(newGridPong(int64(400+i)), rl.DefaultDQNConfig(), 42, int64(500+i))
		}
		job := core.Job{Updates: updates, StalenessBound: 3,
			NewAgent: func(i int) rl.Agent { return agents[i] }}
		if strategy == StratPS {
			job.Master = rl.NewDQN(newGridPong(999), rl.DefaultDQNConfig(), 42, 999)
		}
		spec := strategySpec(w, strategy, workers, 0, true)
		spec.ModelFloats = agents[0].GradLen()
		stats := simSpec(w, spec, job)
		// Full-model per-update time from the synthetic timing run.
		full := simAsync(w, strategy, workers, 0, 40, 3)
		return stats, asyncPerIter(full)
	}

	// The PS and iSwitch runs are fully independent (separate kernels,
	// separate seeds); run both on the worker pool.
	type asyncRun struct {
		stats   *core.AsyncStats
		perIter time.Duration
	}
	runs := parMap(2, func(i int) asyncRun {
		if i == 0 {
			s, d := run(StratPS, opts.AsyncUpdatesPS)
			return asyncRun{s, d}
		}
		s, d := run(StratISW, opts.AsyncUpdatesISW)
		return asyncRun{s, d}
	})
	psStats, psIter := runs[0].stats, runs[0].perIter
	iswStats, iswIter := runs[1].stats, runs[1].perIter

	var b strings.Builder
	fmt.Fprintf(&b, "%-10s | %-26s | %-26s\n", "", "Async PS", "Async iSW")
	fmt.Fprintf(&b, "%-10s | per-iter %6s ms, staleness %.2f | per-iter %6s ms, staleness %.2f\n", "",
		ms(psIter), psStats.MeanStaleness(), ms(iswIter), iswStats.MeanStaleness())

	render := func(stats *core.AsyncStats, perIter time.Duration, updates int64) []string {
		rewards := stats.AllRewards()
		var lines []string
		for p := 1; p <= opts.Points; p++ {
			cut := int64(p) * updates / int64(opts.Points)
			cutTime := stats.Total * time.Duration(cut) / time.Duration(updates)
			var upTo []float64
			for _, r := range rewards {
				if r.Time <= cutTime {
					upTo = append(upTo, r.Reward)
				}
			}
			wall := float64(cut) * perIter.Seconds()
			lines = append(lines, fmt.Sprintf("%8.1f s  reward %7.2f", wall, movingAvg(upTo, 40)))
		}
		return lines
	}
	psC := render(psStats, psIter, opts.AsyncUpdatesPS)
	iswC := render(iswStats, iswIter, opts.AsyncUpdatesISW)
	for i := range psC {
		fmt.Fprintf(&b, "checkpoint %2d | %s | %s\n", i+1, psC[i], iswC[i])
	}
	fmt.Fprintf(&b, "(staleness PS %.2f vs iSW %.2f explains the paper's %.1fx iteration gap direction)\n",
		psStats.MeanStaleness(), iswStats.MeanStaleness(),
		float64(w.AsyncItersPS)/float64(w.AsyncItersISW))
	return Result{ID: "figure14", Title: "Training curves of DQN, asynchronous approaches", Text: b.String()}
}

// newGridPong builds the DQN stand-in environment.
func newGridPong(seed int64) *envs.GridPong { return envs.NewGridPong(seed) }
