package core

import (
	"fmt"

	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
	"iswitch/internal/tensor/kernels"
)

// Asynchronous distributed training, two designs:
//
//   - Async PS (Figure 3): a central parameter server (one host, or S
//     shard hosts) holds the authoritative weights; each worker loops
//     pull → compute → push, and the server applies each accepted
//     (non-stale) gradient.
//   - Async iSwitch (Algorithm 1): fully decentralized. Each worker
//     runs a Local-Gradient-Computing thread and a Local-Weight-Update
//     thread; the switch aggregates any H gradient vectors on the fly
//     and broadcasts the sum, which every LWU applies identically — so
//     the decentralized weight replicas never diverge.

// AsyncStats extends RunStats with staleness accounting.
type AsyncStats struct {
	RunStats
	// ShardStats holds the run's commit/discard/staleness totals.
	ShardStats
	// PerShard holds per-shard commit/discard/staleness accounting for
	// parameter-server runs over more than one shard (nil otherwise);
	// PerShard[s] belongs to shard s, and the run's totals are their sum.
	PerShard []ShardStats
}

// ShardStats is the staleness accounting of one parameter-server shard,
// or of a whole asynchronous run.
type ShardStats struct {
	// Committed and Discarded count gradients (or gradient slices) that
	// passed / failed the staleness check.
	Committed, Discarded int64
	// StalenessSum accumulates committed staleness; MaxStaleness is the
	// largest committed staleness.
	StalenessSum, MaxStaleness int64
}

// MeanStaleness returns the average committed staleness.
func (s ShardStats) MeanStaleness() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.StalenessSum) / float64(s.Committed)
}

// admit is Algorithm 1's staleness check: it counts a gradient of the
// given staleness as committed and reports true when it is within
// bound, else counts it discarded. A negative bound would discard every
// gradient, so no update would ever be applied and the run would never
// end; admit panics instead.
func (s *ShardStats) admit(staleness, bound int64) bool {
	if bound < 0 {
		panic(fmt.Sprintf("core: staleness bound %d is negative: every gradient would be discarded and the run would never end", bound))
	}
	if staleness > bound {
		s.Discarded++
		return false
	}
	s.Committed++
	s.StalenessSum += staleness
	s.MaxStaleness = max(s.MaxStaleness, staleness)
	return true
}

// RunAsyncISW trains caller-built agents with the asynchronous iSwitch
// pipeline (Algorithm 1) on an iSwitch cluster and runs the kernel;
// agents[i] runs on cluster worker i. It is Cluster.Run's Algorithm 1
// loop without the agents or the shutdown, kept for callers that wire
// those themselves.
func RunAsyncISW(k *sim.Kernel, agents []rl.Agent, cluster *ISWCluster, cfg AsyncConfig) *AsyncStats {
	stats := cluster.spawnAsync(k, agents, cfg, nil)
	k.Run()
	return stats
}

// spawnAsync spawns the asynchronous pipeline's LGC/LWU threads without
// running the kernel. The returned stats are complete only after the
// kernel drains; done, when non-nil, fires in kernel context when this
// job's last LWU thread reaches job.Updates.
func (c *ISWCluster) spawnAsync(k *sim.Kernel, agents []rl.Agent, job Job, done func()) *AsyncStats {
	n := len(agents)
	if n != len(c.Workers()) {
		panic("core: agents/cluster size mismatch")
	}
	stats := &AsyncStats{RunStats: RunStats{Updates: job.Updates}}
	switch c.scheme {
	case protocol.CompInt32Block, protocol.CompTopK:
		// Both schemes carry per-round state (shared grid exponents,
		// cached selections) that only makes sense when every worker's
		// round r is the same round — the asynchronous pipeline has no
		// such alignment, so the job must run CompNone or CompFP16
		// (stateless).
		panic(fmt.Sprintf("core: asynchronous iSwitch: %v compression is synchronous-only", c.scheme))
	}
	// Worker rounds never align in the asynchronous pipeline, so a
	// shared round tag is meaningless: run recovery untagged (Help
	// timers plus blind self-retransmission).
	c.untagged = c.cfg.RecoveryTimeout > 0
	for range agents {
		stats.Workers = append(stats.Workers, &WorkerStats{})
	}
	start := sim.NewBarrier(k, 2*n) // every LGC and LWU thread
	stop := false
	lwuLeft := n

	for i := range agents {
		agent, ws := agents[i], stats.Workers[i]
		client := c.Client(i).(*iswClient)
		// Shared per-worker state: ts (LWU's update counter) in
		// Algorithm 1's shared/global memory.
		var ts int64

		// LWU thread: wait for g_sum, update the local replica.
		k.Spawn(fmt.Sprintf("async-lwu-%d", i), func(p *sim.Proc) {
			client.Setup(p)
			start.Wait(p)
			prev := p.Now()
			for ts < job.Updates {
				sum := client.CollectAggregate(p)
				rec := IterRecord{Start: prev, ComputeEnd: prev, AggEnd: p.Now()}
				p.Sleep(job.WeightUpdate)
				agent.ApplyAggregated(sum, client.H())
				ts++
				rec.UpdateEnd = p.Now()
				prev = rec.UpdateEnd
				if ws.Iters == nil {
					// Sized on the first record: one allocation instead
					// of a regrowth per doubling, and none at spawn time.
					ws.Iters = make([]IterRecord, 0, job.Updates)
				}
				ws.Iters = append(ws.Iters, rec)
				if rec.UpdateEnd > stats.Total {
					stats.Total = rec.UpdateEnd
				}
			}
			stop = true
			if lwuLeft--; lwuLeft == 0 && done != nil {
				done()
			}
		})

		// LGC thread: compute, staleness-check, nonblocking send.
		worker := i
		k.Spawn(fmt.Sprintf("async-lgc-%d", i), func(p *sim.Proc) {
			start.Wait(p)
			grad := make([]float32, agent.GradLen())
			for iter := 0; !stop && ts < job.Updates; iter++ {
				tw := ts // copy iteration index (and implicitly weights)
				agent.ComputeGradient(grad)
				p.Sleep(job.LocalCompute + job.jitterFor(worker, iter))
				for _, r := range agent.DrainEpisodes() {
					ws.Rewards = append(ws.Rewards, RewardPoint{Time: p.Now(), Reward: r})
				}
				if stats.admit(ts-tw, job.StalenessBound) {
					client.SendGradient(grad) // nonblocking: NIC queues it
				}
			}
		})
	}
	return stats
}

// RunAsyncPS trains caller-built agents with the asynchronous
// parameter-server baseline and runs the kernel. It is Cluster.Run's
// asynchronous ModePS loop without the agents or the shutdown, kept for
// callers that wire those themselves.
func RunAsyncPS(k *sim.Kernel, agents []rl.Agent, masterAgent rl.Agent, cluster *PSCluster, cfg AsyncConfig) *AsyncStats {
	stats := cluster.spawnAsync(k, agents, masterAgent, cfg)
	k.Run()
	return stats
}

// spawnAsync spawns the asynchronous parameter-server baseline against
// the cluster's S shard servers without running the kernel (no client
// Setup runs, so no synchronous server competes for a shard's
// receive queue). masterAgent
// supplies the authoritative weights and optimizer; it must be
// constructed with the same model seed as the workers (its environment
// is never stepped).
//
// Each shard holds its slice of the weights with its own update
// counter; Algorithm 1's staleness bound is enforced per shard (a
// gradient slice computed against weights more than S updates behind
// that shard's counter is discarded). The run ends when every shard has
// applied job.Updates updates. With more than one shard, each accepted
// update is applied through a full-length gradient that is zero outside
// the shard's slice — identical to a per-slice update for SGD-style
// optimizers (the timing layer's concern) — and AsyncStats.PerShard
// reports each shard's accounting.
func (c *PSCluster) spawnAsync(k *sim.Kernel, agents []rl.Agent, masterAgent rl.Agent, job Job) *AsyncStats {
	nWorkers := len(agents)
	if nWorkers != len(c.workers) {
		panic("core: agents/cluster size mismatch")
	}
	nShards := len(c.shards)
	stats := &AsyncStats{RunStats: RunStats{Updates: job.Updates}}
	for i := 0; i < nWorkers+nShards; i++ { // shard s's update records at nWorkers+s
		stats.Workers = append(stats.Workers, &WorkerStats{})
	}
	perShard := make([]ShardStats, nShards)
	stop := false
	remaining := nShards

	for s, sh := range c.shards {
		shardStats, counts := stats.Workers[nWorkers+s], &perShard[s]
		nShard := sh.hi - sh.lo
		msgCost := c.cfg.shardMsgCost(nShard, c.n)
		updateCost := scaleByShare(job.WeightUpdate+c.cfg.AsyncUpdateExtra, nShard, c.n)

		// Pull requests are served by a dedicated reply thread so weight
		// reads never block the push/update path (real parameter servers
		// serve reads concurrently; only writes serialize).
		pulls := sim.NewChan[protocol.Addr](k, fmt.Sprintf("ps-pulls-%d", s))
		var version int64
		lastSent := make(map[protocol.Addr]int64)

		k.Spawn(fmt.Sprintf("async-ps-pull-server-%d", s), func(p *sim.Proc) {
			params := make([]float32, masterAgent.GradLen())
			for {
				src := pulls.Recv(p)
				p.Sleep(msgCost)
				masterAgent.ReadParams(params)
				lastSent[src] = version
				sendSlice(sh.srv, src, params[sh.lo:sh.hi], sh.segBase, protocol.CompNone)
			}
		})

		pull := func(pkt *protocol.Packet) {
			if pkt.IsControl() && pkt.Action == protocol.ActionHelp {
				pulls.Send(pkt.Src)
			}
		}
		k.Spawn(fmt.Sprintf("async-ps-server-%d", s), func(p *sim.Proc) {
			var applyBuf []float32 // S>1: full-length gradient, zero outside [lo,hi)
			if nShards > 1 {
				applyBuf = make([]float32, c.n)
			}
			prev := p.Now()
			for version < job.Updates {
				// Push: apply if within the staleness bound.
				src, grad := sh.gather(p, pull)
				p.Sleep(msgCost)
				if !counts.admit(version-lastSent[src], job.StalenessBound) {
					continue
				}
				p.Sleep(updateCost)
				if applyBuf != nil {
					copy(applyBuf[sh.lo:sh.hi], grad)
					grad = applyBuf
				}
				masterAgent.ApplyAggregated(grad, 1)
				version++
				now := p.Now()
				shardStats.Iters = append(shardStats.Iters, IterRecord{
					Start: prev, ComputeEnd: prev, AggEnd: now, UpdateEnd: now,
				})
				prev = now
				if now > stats.Total {
					stats.Total = now
				}
			}
			if remaining--; remaining == 0 {
				stop = true
				// Every shard is done: the run's totals are final.
				for _, t := range perShard {
					stats.Committed += t.Committed
					stats.Discarded += t.Discarded
					stats.StalenessSum += t.StalenessSum
					stats.MaxStaleness = max(stats.MaxStaleness, t.MaxStaleness)
				}
				if nShards > 1 {
					stats.PerShard = perShard
				}
			}
		})
	}

	for i := range agents {
		agent, ws, host := agents[i], stats.Workers[i], c.workers[i]
		worker := i
		k.Spawn(fmt.Sprintf("async-ps-worker-%d", i), func(p *sim.Proc) {
			weights := protocol.NewAssembler(c.n)
			grad := make([]float32, agent.GradLen())
			for iter := 0; !stop; iter++ {
				// Pull the latest weights from every shard (replies
				// arrive concurrently on S server NICs). A pull request
				// reuses the control framing with the Help action
				// ("request data"): PS traffic crosses only plain
				// switches, so no iSwitch data plane interprets it.
				p.Sleep(c.cfg.WorkerBase)
				for _, sh := range c.shards {
					host.Send(protocol.NewControl(host.Addr, sh.srv.Addr, protocol.ActionHelp, nil))
				}
				weights.Reset()
				for !weights.Complete() {
					pkt, ok := host.RecvTimeout(p, 200*job.LocalCompute+sim.Time(1e9))
					if !ok {
						return // servers stopped mid-reply
					}
					if pkt.IsData() {
						_ = weights.Add(pkt) // a bad segment is dropped
					}
					pkt.Release()
				}
				agent.WriteParams(weights.Vector())
				// Local gradient computing.
				agent.ComputeGradient(grad)
				p.Sleep(job.LocalCompute + job.jitterFor(worker, iter))
				for _, r := range agent.DrainEpisodes() {
					ws.Rewards = append(ws.Rewards, RewardPoint{Time: p.Now(), Reward: r})
				}
				// Push. Under fp16 the gradient is rounded through the
				// wire precision (the server applies what the wire
				// carried); weight pulls stay raw float32 so the
				// authoritative weights never lose precision.
				if c.scheme == protocol.CompFP16 {
					kernels.F16RoundInPlace(grad)
				}
				c.scatter(host, grad)
			}
		})
	}
	return stats
}
