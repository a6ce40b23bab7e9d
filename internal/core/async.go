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

// AsyncConfig parameterizes an asynchronous run.
type AsyncConfig struct {
	// Updates is the target number of weight updates ("Number of
	// Iterations" in Table 5: weight updates at the PS, or LWU updates
	// for iSwitch).
	Updates int64
	// StalenessBound is Algorithm 1's S: a local gradient computed
	// against weights more than S updates old is discarded.
	StalenessBound int64
	// LocalCompute and WeightUpdate as in SyncConfig.
	LocalCompute sim.Time
	WeightUpdate sim.Time
	// ComputeJitter, when non-nil, returns extra local-compute time for
	// worker w's iter-th gradient. Deterministic (seeded) jitter lets
	// stress tests skew the workers without losing reproducibility; nil
	// means no jitter.
	ComputeJitter func(worker, iter int) sim.Time
}

// jitterFor resolves the per-gradient compute jitter (zero when unset).
func (c AsyncConfig) jitterFor(worker, iter int) sim.Time {
	if c.ComputeJitter == nil {
		return 0
	}
	return c.ComputeJitter(worker, iter)
}

// AsyncStats extends RunStats with staleness accounting.
type AsyncStats struct {
	RunStats
	// Committed and Discarded count gradients that passed / failed the
	// staleness check.
	Committed, Discarded int64
	// StalenessSum accumulates the staleness of committed gradients;
	// StalenessSum/Committed is the run's average staleness.
	StalenessSum int64
	// PerShard holds per-shard commit/discard/staleness accounting for
	// parameter-server runs over more than one shard (nil otherwise);
	// PerShard[s] belongs to shard s.
	PerShard []ShardStats
}

// ShardStats is one parameter-server shard's asynchronous accounting.
type ShardStats struct {
	// Committed and Discarded count gradient slices that passed / failed
	// this shard's staleness check.
	Committed, Discarded int64
	// StalenessSum accumulates committed staleness against this shard's
	// update counter; MaxStaleness is the largest committed staleness.
	StalenessSum, MaxStaleness int64
}

// MeanStaleness returns the shard's average committed staleness.
func (s ShardStats) MeanStaleness() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.StalenessSum) / float64(s.Committed)
}

// MeanStaleness returns the average staleness of committed gradients.
func (s *AsyncStats) MeanStaleness() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.StalenessSum) / float64(s.Committed)
}

// RunAsyncISW trains agents with the asynchronous iSwitch pipeline
// (Algorithm 1) on an iSwitch cluster. agents[i] runs on cluster
// worker i.
func RunAsyncISW(k *sim.Kernel, agents []rl.Agent, cluster *ISWCluster, cfg AsyncConfig) *AsyncStats {
	stats := SpawnAsyncISW(k, agents, cluster, cfg, nil)
	k.Run()
	return stats
}

// SpawnAsyncISW spawns the asynchronous pipeline's LGC/LWU threads
// without running the kernel, for multi-tenant fabrics where several
// jobs' processes share one simulation. The returned stats are complete
// only after the kernel drains; done, when non-nil, fires in kernel
// context when this job's last LWU thread reaches cfg.Updates.
func SpawnAsyncISW(k *sim.Kernel, agents []rl.Agent, cluster *ISWCluster, cfg AsyncConfig, done func()) *AsyncStats {
	n := len(agents)
	if n != len(cluster.Workers()) {
		panic("core: agents/cluster size mismatch")
	}
	stats := &AsyncStats{RunStats: RunStats{Updates: cfg.Updates}}
	switch cluster.cfg.Compression {
	case protocol.CompInt32Block, protocol.CompTopK:
		// Both schemes carry per-round state (shared grid exponents,
		// cached selections) that only makes sense when every worker's
		// round r is the same round — the asynchronous pipeline has no
		// such alignment, so the job must run CompNone or CompFP16
		// (stateless).
		panic(fmt.Sprintf("core: SpawnAsyncISW: %v compression is synchronous-only", cluster.cfg.Compression))
	}
	if cluster.cfg.RecoveryTimeout > 0 {
		// Worker rounds never align in the asynchronous pipeline, so a
		// shared round tag is meaningless: run recovery untagged (Help
		// timers plus blind self-retransmission).
		cluster.cfg.Untagged = true
	}
	for range agents {
		stats.Workers = append(stats.Workers, &WorkerStats{})
	}
	start := sim.NewBarrier(k, 2*n) // every LGC and LWU thread
	stop := false
	lwuLeft := n

	for i := range agents {
		agent, ws := agents[i], stats.Workers[i]
		client := cluster.Client(i).(*iswClient)
		// Shared per-worker state: ts (LWU's update counter) in
		// Algorithm 1's shared/global memory.
		var ts int64

		// LWU thread: wait for g_sum, update the local replica.
		k.Spawn(fmt.Sprintf("async-lwu-%d", i), func(p *sim.Proc) {
			client.Setup(p)
			start.Wait(p)
			prev := p.Now()
			for ts < cfg.Updates {
				sum := client.CollectAggregate(p)
				rec := IterRecord{Start: prev, ComputeEnd: prev, AggEnd: p.Now()}
				p.Sleep(cfg.WeightUpdate)
				agent.ApplyAggregated(sum, client.H())
				ts++
				rec.UpdateEnd = p.Now()
				prev = rec.UpdateEnd
				if ws.Iters == nil {
					// Sized on the first record: one allocation instead
					// of a regrowth per doubling, and none at spawn time.
					ws.Iters = make([]IterRecord, 0, cfg.Updates)
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
			for iter := 0; !stop && ts < cfg.Updates; iter++ {
				tw := ts // copy iteration index (and implicitly weights)
				agent.ComputeGradient(grad)
				p.Sleep(cfg.LocalCompute + cfg.jitterFor(worker, iter))
				for _, r := range agent.DrainEpisodes() {
					ws.Rewards = append(ws.Rewards, RewardPoint{Time: p.Now(), Reward: r})
				}
				staleness := ts - tw
				if staleness <= cfg.StalenessBound {
					stats.Committed++
					stats.StalenessSum += staleness
					client.SendGradient(grad) // nonblocking: NIC queues it
				} else {
					stats.Discarded++
				}
			}
		})
	}
	return stats
}

// pullRequest is the async-PS application message a worker sends to
// fetch the current weights. It reuses the control-packet framing with
// the Help action ("request data") — PS traffic crosses only plain
// switches, so the iSwitch data plane never interprets it.
func pullRequest(src, dst protocol.Addr) *protocol.Packet {
	return protocol.NewControl(src, dst, protocol.ActionHelp, nil)
}

// RunAsyncPS trains agents with the asynchronous parameter-server
// baseline against the cluster's S shard servers (build it with
// ModeAsyncPS, which spawns no synchronous servers). masterAgent
// supplies the authoritative weights and optimizer; it must be
// constructed with the same model seed as the workers (its environment
// is never stepped).
//
// Each shard holds its slice of the weights with its own update
// counter; Algorithm 1's staleness bound is enforced per shard (a
// gradient slice computed against weights more than S updates behind
// that shard's counter is discarded). The run ends when every shard has
// applied cfg.Updates updates. With more than one shard, each accepted
// update is applied through a full-length gradient that is zero outside
// the shard's slice — identical to a per-slice update for SGD-style
// optimizers (the timing layer's concern) — and AsyncStats.PerShard
// reports each shard's accounting.
func RunAsyncPS(k *sim.Kernel, agents []rl.Agent, masterAgent rl.Agent, cluster *PSCluster, cfg AsyncConfig) *AsyncStats {
	nWorkers := len(agents)
	nShards := cluster.NumShards()
	stats := &AsyncStats{}
	if nShards > 1 {
		stats.PerShard = make([]ShardStats, nShards)
	}
	for i := 0; i < nWorkers+nShards; i++ { // shard s's update records at nWorkers+s
		stats.Workers = append(stats.Workers, &WorkerStats{})
	}
	stop := false
	remaining := nShards

	for s := 0; s < nShards; s++ {
		srv := cluster.Servers[s]
		lo, hi := cluster.ShardElems(s)
		nShard := hi - lo
		segBase := uint64(cluster.segLo[s])
		shardStats := stats.Workers[nWorkers+s]
		perShard := new(ShardStats) // discarded at one shard: the global counters are the shard's
		if nShards > 1 {
			perShard = &stats.PerShard[s]
		}
		msgCost := cluster.cfg.shardMsgCost(nShard, cluster.n)
		updateCost := scaleByShare(cfg.WeightUpdate+cluster.cfg.AsyncUpdateExtra, nShard, cluster.n)

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
				for _, out := range protocol.Segment(srv.Addr, src, params[lo:hi]) {
					out.Seg += segBase
					srv.Send(out)
				}
			}
		})

		k.Spawn(fmt.Sprintf("async-ps-server-%d", s), func(p *sim.Proc) {
			asm := make(map[protocol.Addr]*protocol.Assembler)
			var applyBuf []float32 // S>1: full-length gradient, zero outside [lo,hi)
			if nShards > 1 {
				applyBuf = make([]float32, cluster.n)
			}
			prev := p.Now()
			for version < cfg.Updates {
				pkt := srv.Recv(p)
				src := pkt.Src
				switch {
				case pkt.IsControl() && pkt.Action == protocol.ActionHelp:
					pkt.Release()
					pulls.Send(src)
				case pkt.IsData():
					a := asm[src]
					if a == nil {
						a = protocol.NewAssembler(nShard)
						asm[src] = a
					}
					// The payload is copied out: the frame is spent.
					err := a.AddFloats(pkt.Seg-segBase, pkt.Data)
					pkt.Release()
					if err != nil || !a.Complete() {
						continue
					}
					// Push: apply if within the staleness bound.
					p.Sleep(msgCost)
					staleness := version - lastSent[src]
					if staleness <= cfg.StalenessBound {
						stats.Committed++
						stats.StalenessSum += staleness
						perShard.Committed++
						perShard.StalenessSum += staleness
						perShard.MaxStaleness = max(perShard.MaxStaleness, staleness)
						p.Sleep(updateCost)
						grad := a.Vector()
						if applyBuf != nil {
							copy(applyBuf[lo:hi], grad)
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
					} else {
						stats.Discarded++
						perShard.Discarded++
					}
					a.Reset()
				default:
					pkt.Release()
				}
			}
			if remaining--; remaining == 0 {
				stop = true
			}
		})
	}

	for i := range agents {
		agent, ws, host := agents[i], stats.Workers[i], cluster.workers[i]
		worker := i
		k.Spawn(fmt.Sprintf("async-ps-worker-%d", i), func(p *sim.Proc) {
			weights := protocol.NewAssembler(cluster.n)
			grad := make([]float32, agent.GradLen())
			for iter := 0; !stop; iter++ {
				// Pull the latest weights from every shard (replies
				// arrive concurrently on S server NICs).
				p.Sleep(cluster.cfg.WorkerBase)
				for _, srv := range cluster.Servers {
					host.Send(pullRequest(host.Addr, srv.Addr))
				}
				weights.Reset()
				for !weights.Complete() {
					pkt, ok := host.RecvTimeout(p, 200*cfg.LocalCompute+sim.Time(1e9))
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
				p.Sleep(cfg.LocalCompute + cfg.jitterFor(worker, iter))
				for _, r := range agent.DrainEpisodes() {
					ws.Rewards = append(ws.Rewards, RewardPoint{Time: p.Now(), Reward: r})
				}
				// Push. Under fp16 the gradient is rounded through the
				// wire precision (the server applies what the wire
				// carried); weight pulls stay raw float32 so the
				// authoritative weights never lose precision.
				if cluster.scheme == protocol.CompFP16 {
					kernels.F16RoundInPlace(grad)
				}
				cluster.scatter(host, grad)
			}
		})
	}
	k.Run()
	stats.Updates = cfg.Updates
	return stats
}
