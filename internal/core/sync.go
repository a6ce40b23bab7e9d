package core

import (
	"fmt"

	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// SyncConfig parameterizes a synchronous distributed training run.
type SyncConfig struct {
	// Iterations is the number of training iterations to run.
	Iterations int
	// LocalCompute is the virtual time charged per iteration for local
	// gradient computing (perfmodel calibration).
	LocalCompute sim.Time
	// WeightUpdate is the virtual time charged per optimizer step.
	WeightUpdate sim.Time
}

// RunSync trains agents synchronously: every iteration each worker
// computes a local gradient, blocks on the aggregation service, and
// applies the averaged gradient — the global barrier is implicit in
// the aggregation itself (a worker cannot receive the sum before every
// worker contributed). agents[i] pairs with services[i].
func RunSync(k *sim.Kernel, agents []rl.Agent, services []Service, cfg SyncConfig) *RunStats {
	stats := SpawnSync(k, agents, services, cfg, nil)
	k.Run()
	return stats
}

// SpawnSync spawns the synchronous training processes without running
// the kernel, so several jobs can cohabit one simulation (the
// multi-tenant fabric runs every job's workers on one kernel and calls
// k.Run once). The returned stats are complete only after the kernel
// has drained; done, when non-nil, fires in kernel context the moment
// this job's last worker finishes its final iteration.
func SpawnSync(k *sim.Kernel, agents []rl.Agent, services []Service, cfg SyncConfig, done func()) *RunStats {
	if len(agents) != len(services) || len(agents) == 0 {
		panic("core: agents/services mismatch")
	}
	stats := &RunStats{Updates: int64(cfg.Iterations)}
	for range agents {
		stats.Workers = append(stats.Workers, &WorkerStats{})
	}
	start := sim.NewBarrier(k, len(agents))
	remaining := len(agents)

	for i := range agents {
		agent, svc, ws := agents[i], services[i], stats.Workers[i]
		k.Spawn(fmt.Sprintf("sync-worker-%d", i), func(p *sim.Proc) {
			defer func() {
				if remaining--; remaining == 0 && done != nil {
					done()
				}
			}()
			svc.Setup(p)
			start.Wait(p) // all workers begin iteration 0 together
			grad := make([]float32, agent.GradLen())
			for it := 0; it < cfg.Iterations; it++ {
				rec := IterRecord{Start: p.Now()}
				agent.ComputeGradient(grad)
				p.Sleep(cfg.LocalCompute)
				rec.ComputeEnd = p.Now()

				sum := svc.Aggregate(p, grad)
				rec.AggEnd = p.Now()

				p.Sleep(cfg.WeightUpdate)
				agent.ApplyAggregated(sum, svc.H())
				rec.UpdateEnd = p.Now()

				if ws.Iters == nil {
					// Sized on the first record: one allocation instead
					// of a regrowth per doubling, and none at spawn time.
					ws.Iters = make([]IterRecord, 0, cfg.Iterations)
				}
				ws.Iters = append(ws.Iters, rec)
				for _, r := range agent.DrainEpisodes() {
					ws.Rewards = append(ws.Rewards, RewardPoint{Time: p.Now(), Reward: r})
				}
				if rec.UpdateEnd > stats.Total {
					stats.Total = rec.UpdateEnd
				}
			}
		})
	}
	return stats
}
