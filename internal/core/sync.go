package core

import (
	"fmt"

	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// RunSync trains caller-built agents synchronously through caller-built
// services and runs the kernel; agents[i] pairs with services[i]. It is
// Cluster.Run's synchronous loop without the agents, the clients or the
// shutdown, kept for callers that wire those themselves.
func RunSync(k *sim.Kernel, agents []rl.Agent, services []Service, cfg SyncConfig) *RunStats {
	if len(agents) != len(services) {
		panic("core: agents/services mismatch")
	}
	stats := spawnSync(k, agents, func(i int) Service { return services[i] }, cfg, nil)
	k.Run()
	return &stats.RunStats
}

// spawnSync spawns the synchronous training processes without running
// the kernel, worker i training agents[i] through client(i): every
// iteration each worker computes a local gradient, blocks on the
// aggregation service, and applies the averaged gradient — the global
// barrier is implicit in the aggregation itself (a worker cannot
// receive the sum before every worker contributed). Several jobs can
// cohabit one kernel this way (the multi-tenant fabric runs every job's
// workers on one kernel and calls k.Run once). The returned stats are
// complete only after the kernel has drained; done, when non-nil, fires
// in kernel context the moment this job's last worker finishes its
// final iteration.
func spawnSync(k *sim.Kernel, agents []rl.Agent, client func(int) Service, job Job, done func()) *AsyncStats {
	if len(agents) == 0 {
		panic("core: no agents")
	}
	stats := &AsyncStats{RunStats: RunStats{Updates: int64(job.Iterations)}}
	for range agents {
		stats.Workers = append(stats.Workers, &WorkerStats{})
	}
	start := sim.NewBarrier(k, len(agents))
	remaining := len(agents)

	for i := range agents {
		agent, svc, ws := agents[i], client(i), stats.Workers[i]
		k.Spawn(fmt.Sprintf("sync-worker-%d", i), func(p *sim.Proc) {
			defer func() {
				if remaining--; remaining == 0 && done != nil {
					done()
				}
			}()
			svc.Setup(p)
			start.Wait(p) // all workers begin iteration 0 together
			grad := make([]float32, agent.GradLen())
			for it := 0; it < job.Iterations; it++ {
				rec := IterRecord{Start: p.Now()}
				agent.ComputeGradient(grad)
				p.Sleep(job.LocalCompute)
				rec.ComputeEnd = p.Now()

				sum := svc.Aggregate(p, grad)
				rec.AggEnd = p.Now()

				p.Sleep(job.WeightUpdate)
				agent.ApplyAggregated(sum, svc.H())
				rec.UpdateEnd = p.Now()

				if ws.Iters == nil {
					// Sized on the first record: one allocation instead
					// of a regrowth per doubling, and none at spawn time.
					ws.Iters = make([]IterRecord, 0, job.Iterations)
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
