package core

import (
	"time"

	"iswitch/internal/engine"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

// Reliability layer for the in-switch path: worker crash/rejoin and
// whole-switch failover to a software relay. The Help timer's rule
// (backoff, jitter, when to fail over) is the client engine's
// (engine.Recovery).
//
// Failover state machine (per worker):
//
//	healthy --(FailoverAfter consecutive Help timeouts with no data
//	           and no switch ack)--> failed over (sticky)
//	healthy --(a relay-served aggregate arrives for the current
//	           round)--> failed over (a peer tripped first; follow)
//
// A failed-over worker is an ordinary client whose switch is now the
// relay worker (worker 0): it uploads, Helps and answers Helps there
// under the job's own scheme. The relay worker's host runs the switch's
// engine (internal/engine) behind hostDriver, so the relay aggregates,
// re-serves lost sums from its shadow slots and chases missing
// contributors exactly as the dead switch did.

// RecoveryTimeoutFor derives a safe Help timer from the perfmodel's
// expected synchronous round for the workload: twice the healthy round
// time, so a slow-but-alive peer never looks like packet loss.
func RecoveryTimeoutFor(w perfmodel.Workload, link netsim.LinkConfig) sim.Time {
	return 2 * perfmodel.ExpectedSyncRound(w, link.BitsPerSecond)
}

// scheduleCrash registers a worker crash (netsim.CrashFault) to fire at
// the aggregation round it names (Cluster.ApplyFaults).
func (c *ISWCluster) scheduleCrash(f netsim.CrashFault) {
	if c.crashes == nil {
		c.crashes = make(map[int][]netsim.CrashFault)
	}
	c.crashes[f.Worker] = append(c.crashes[f.Worker], f)
}

// Switches lists the cluster's aggregation switches, root/core first —
// the index space netsim.SwitchFault.Switch names.
func (c *ISWCluster) Switches() []*switchnet.ISwitch {
	if c.Fabric == nil {
		return nil
	}
	return c.Fabric.Switches
}

// relayArmed reports whether the switch-to-relay failover is in play.
func (c *ISWCluster) relayArmed() bool {
	return c.cfg.FailoverAfter > 0 && !c.untagged
}

// relayAddr is the backup software aggregator's address: worker 0's.
func (c *ISWCluster) relayAddr() protocol.Addr { return c.workers[0].Addr }

// takeCrash consumes a scheduled crash for the round about to start.
func (ic *iswClient) takeCrash() (netsim.CrashFault, bool) {
	list := ic.cluster.crashes[ic.idx]
	for j, f := range list {
		if f.AtRound == int(ic.Round())+1 {
			ic.cluster.crashes[ic.idx] = append(list[:j:j], list[j+1:]...)
			return f, true
		}
	}
	return netsim.CrashFault{}, false
}

// crashedAggregate models the scheduled crash: the worker sends at most
// PartialSegs contribution segments, then its NIC goes dark. A
// permanent crash parks the process draining (and dropping) everything
// until the kernel shuts down; a rejoin drains for the outage, then
// re-admits itself and recovers the interrupted round — the switch's
// shadow slots serve what completed, targeted Helps re-gather what its
// own missing segments stalled.
func (ic *iswClient) crashedAggregate(p *sim.Proc, grad []float32, f netsim.CrashFault) []float32 {
	p.Sleep(ic.cluster.cfg.WorkerBase)
	ic.Upload(grad, f.PartialSegs)
	if !f.Rejoin {
		for {
			ic.host.Recv(p).Release()
		}
	}
	deadline := p.Now() + f.Outage
	for {
		remain := deadline - p.Now()
		if remain <= 0 {
			break
		}
		if pkt, ok := ic.host.RecvTimeout(p, remain); ok {
			pkt.Release()
		}
	}
	ic.cluster.Rejoins++
	ic.Setup(p) // re-Join is idempotent: membership and H do not move
	return ic.CollectAggregate(p)
}

// enterFailover flips the sticky switch-to-relay failover: from now on
// this worker's switch is the relay, which the engine offers both
// retained rounds. It runs once per worker: after it, Setup returns at
// once, divert lets the relay's frames through, and the engine answers
// FailOver no more.
func (ic *iswClient) enterFailover() {
	ic.cluster.Failovers++
	ic.Failover(ic.cluster.relayAddr())
}

// relayEngine returns the switch engine the relay worker runs for its
// failed-over peers, building it on first use: every cluster worker is
// a member, H is the job's, and the job's scheme and dedup bitmap are
// armed exactly as on the switch it replaces.
func (ic *iswClient) relayEngine() *engine.Engine {
	if ic.relay != nil {
		return ic.relay
	}
	c := ic.cluster
	job, n := c.cfg.Job, uint64(c.n)
	e := engine.New(ic.host.Addr, (*hostDriver)(ic))
	_ = e.AdmitJob(job, n) // unmetered: cannot fail; a no-op for job 0
	for _, w := range c.workers {
		e.MembershipOf(job).Join(w.Addr, engine.MemberWorker, 0, n)
	}
	e.SetCompression(job, c.scheme, n)
	e.SetDedupJob(job, true)
	_ = e.AcceleratorOf(job).SetThreshold(uint32(c.h)) // a job has h ≥ 1 workers
	ic.relay = e
	return e
}

// isRelay reports whether this worker hosts the relay engine.
func (ic *iswClient) isRelay() bool { return ic.host.Addr == ic.cluster.relayAddr() }

// toRelay hands a peer's frame to this host's relay engine, reporting
// whether it did. Takes ownership of pkt when it does.
func (ic *iswClient) toRelay(pkt *protocol.Packet) bool {
	if !ic.isRelay() || pkt.Src == ic.host.Addr {
		return false
	}
	e := ic.relayEngine()
	if _, ok := e.MembershipOf(ic.cluster.cfg.Job).Lookup(pkt.Src); !ok {
		return false
	}
	if !e.Handle(pkt, false) {
		pkt.Release()
	}
	return true
}

// hostDriver is the relay worker as its engine sees it (engine.Driver).
// Frames leave through the host's NIC, except those for the relay
// worker itself, which queue for its own receive loop and never touch
// the wire. A frame on the wire crosses plain switches that route on its
// own Dst, so a broadcast header, which names no member, goes out as a
// share addressed to its member. The relay has no parent, and it is host
// software, not the paper's accelerator, so completed segments go out at
// once.
type hostDriver iswClient

func (d *hostDriver) Forward(pkt *protocol.Packet, dst protocol.Addr) {
	if dst == d.host.Addr {
		d.loopback = append(d.loopback, pkt)
		return
	}
	if pkt.Dst != dst {
		out := pkt.Share()
		out.Dst = dst
		pkt.Release()
		pkt = out
	}
	d.host.Send(pkt)
}
func (d *hostDriver) SendUp(pkt *protocol.Packet)      { pkt.Release() }
func (d *hostDriver) Now() time.Duration               { return d.k.Now() }
func (d *hostDriver) After(_ time.Duration, fn func()) { fn() }
