package core

import (
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
	"iswitch/internal/tensor"
)

// Reliability layer for the in-switch path: Help-timer backoff, worker
// crash/rejoin, and whole-switch failover to a software relay.
//
// Failover state machine (per worker):
//
//	healthy --(FailoverAfter consecutive Help timeouts with no data
//	           and no switch ack)--> failed over (sticky)
//	healthy --(a relay-served aggregate arrives for the current
//	           round)--> failed over (a peer tripped first; follow)
//
// Once failed over, a worker unicasts its round-tagged contributions to
// the relay worker (cfg.Relay, worker 0 by default) instead of the
// switch. The relay accumulates per-(round, contributor) assemblers,
// and when all H contributions of a round are complete it sums them in
// worker-index order — one deterministic order, so every replica
// applies the identical float sequence — and unicasts the segmented sum
// to every other worker, keeping the last few served rounds to answer
// per-segment Helps. Workers behind by one round are healed by each
// failing-over worker offering its previous round's gradient too.

// RecoveryTimeoutFor derives a safe Help timer from the perfmodel's
// expected synchronous round for the workload: twice the healthy round
// time, so a slow-but-alive peer never looks like packet loss.
func RecoveryTimeoutFor(w perfmodel.Workload, link netsim.LinkConfig) sim.Time {
	return 2 * perfmodel.ExpectedSyncRound(w, link.BitsPerSecond)
}

// ScheduleCrash registers a worker crash (netsim.CrashFault) to fire at
// the aggregation round it names. Applied by Cluster.ApplyFaults;
// exposed for tests that drive an ISWCluster directly.
func (c *ISWCluster) ScheduleCrash(f netsim.CrashFault) {
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
	return c.cfg.FailoverAfter > 0 && !c.cfg.Untagged
}

// relayAddr resolves the backup software aggregator's address.
func (c *ISWCluster) relayAddr() protocol.Addr {
	if c.cfg.Relay != (protocol.Addr{}) {
		return c.cfg.Relay
	}
	return c.workers[0].Addr
}

// isWorkerAddr reports whether a is one of the cluster's workers.
func (c *ISWCluster) isWorkerAddr(a protocol.Addr) bool {
	if c.workerIdx == nil {
		c.workerIdx = make(map[protocol.Addr]int, len(c.workers))
		for i, w := range c.workers {
			c.workerIdx[w.Addr] = i
		}
	}
	_, ok := c.workerIdx[a]
	return ok
}

// backoffTimeout returns the Help timer for the current backoff level:
// RecoveryTimeout doubled per fruitless timeout (capped at MaxBackoff,
// default 16× base) plus deterministic per-worker jitter so the fleet's
// timers decorrelate without a shared RNG.
func (ic *iswClient) backoffTimeout() sim.Time {
	cfg := &ic.cluster.cfg
	base := cfg.RecoveryTimeout
	lvl := ic.level
	if lvl > 6 {
		lvl = 6
	}
	to := base << uint(lvl)
	max := cfg.MaxBackoff
	if max <= 0 {
		max = 16 * base
	}
	if to > max {
		to = max
	}
	h := (uint64(ic.idx)+1)*0x9e3779b97f4a7c15 ^ ic.round*0xbf58476d1ce4e5b9 ^ uint64(lvl)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return to + sim.Time(h%uint64(to/4+1))
}

// takeCrash consumes a scheduled crash for the round about to start.
func (ic *iswClient) takeCrash() (netsim.CrashFault, bool) {
	list := ic.cluster.crashes[ic.idx]
	for j, f := range list {
		if f.AtRound == int(ic.round)+1 {
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
	ic.sendGradient(grad, f.PartialSegs)
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
	ic.level, ic.fruitless = 0, 0
	ic.cluster.Rejoins++
	ic.Setup(p) // re-Join is idempotent: membership and H do not move
	return ic.CollectAggregate(p)
}

// enterFailover flips the sticky switch-to-relay failover and offers
// the previous round's gradient (a peer one round behind needs every
// worker's contribution for it; the relay ignores rounds already
// served).
func (ic *iswClient) enterFailover() {
	if ic.failedOver {
		return
	}
	ic.failedOver = true
	ic.cluster.Failovers++
	ic.level, ic.fruitless = 0, 0
	if ic.prevGrad != nil {
		ic.relayContribute((ic.round-1)%protocol.RoundTagMod, ic.prevGrad, -1)
	}
}

// relayDoneDepth is how many served rounds the relay retains to answer
// per-segment Helps from workers that lost sum packets.
const relayDoneDepth = 8

// relayState is the software aggregation engine run by the relay worker.
type relayState struct {
	// rounds accumulates per-(round tag, contributor) reassembly.
	rounds map[uint64]map[protocol.Addr]*protocol.Assembler
	// done holds the last relayDoneDepth served sums, keyed by round tag.
	done  map[uint64][]float32
	order []uint64
}

func (ic *iswClient) relayEngine() *relayState {
	if ic.relay == nil {
		ic.relay = &relayState{
			rounds: make(map[uint64]map[protocol.Addr]*protocol.Assembler),
			done:   make(map[uint64][]float32),
		}
	}
	return ic.relay
}

// isRelay reports whether this worker hosts the relay engine.
func (ic *iswClient) isRelay() bool { return ic.host.Addr == ic.cluster.relayAddr() }

// relayContribute delivers this worker's gradient for round tag rt to
// the relay — over the wire for ordinary workers, directly into the
// engine when this worker is the relay. limit truncates to the first
// limit segments (crash modeling); -1 sends all.
func (ic *iswClient) relayContribute(rt uint64, grad []float32, limit int) {
	if grad == nil {
		return
	}
	if ic.isRelay() {
		if limit < 0 {
			ic.relayLocalContribution(rt, grad)
		}
		return
	}
	ic.sendSegments(ic.cluster.relayAddr(), protocol.CompNone, rt<<roundShift, grad, limit)
}

// relayLocalContribution injects the relay's own gradient into its
// engine without touching the wire.
func (ic *iswClient) relayLocalContribution(rt uint64, grad []float32) {
	st := ic.relayEngine()
	if _, served := st.done[rt]; served {
		return
	}
	a := ic.relayAsmFor(rt, ic.host.Addr)
	if a.Complete() {
		return
	}
	per := ic.cluster.cfg.perPacket()
	for s := uint64(0); int(s) < protocol.SegmentCountWith(len(grad), per); s++ {
		lo, hi := protocol.SegmentRangeWith(len(grad), s, per)
		_ = a.AddFloats(s, grad[lo:hi])
	}
	ic.relayTryComplete(rt)
}

func (ic *iswClient) relayAsmFor(rt uint64, src protocol.Addr) *protocol.Assembler {
	st := ic.relayEngine()
	byW := st.rounds[rt]
	if byW == nil {
		byW = make(map[protocol.Addr]*protocol.Assembler)
		st.rounds[rt] = byW
	}
	a := byW[src]
	if a == nil {
		a = protocol.NewAssemblerWith(ic.cluster.n, ic.cluster.cfg.perPacket())
		byW[src] = a
	}
	return a
}

// relayDispatch routes one received frame through the relay engine.
// Takes ownership of pkt.
func (ic *iswClient) relayDispatch(pkt *protocol.Packet) {
	cfg := &ic.cluster.cfg
	switch {
	case pkt.IsData() && pkt.Job == cfg.Job && ic.cluster.isWorkerAddr(pkt.Src):
		ic.relayIngest(pkt)
	case pkt.IsControl() && pkt.Action == protocol.ActionHelp:
		ic.relayHandleHelp(pkt)
		pkt.Release()
	default:
		pkt.Release()
	}
}

// relayIngest accumulates one wire contribution. Duplicate
// contributions for already-served rounds are dropped — the sender
// recovers lost sum packets with Helps, not by re-contributing.
// Takes ownership of pkt.
func (ic *iswClient) relayIngest(pkt *protocol.Packet) {
	st := ic.relayEngine()
	rt := pkt.Seg >> roundShift
	if _, served := st.done[rt]; served {
		pkt.Release()
		return
	}
	a := ic.relayAsmFor(rt, pkt.Src)
	pkt.Seg &= segMask
	_ = a.Add(pkt) // duplicates overwrite idempotently
	pkt.Release()
	ic.relayTryComplete(rt)
}

// relayTryComplete serves round rt if all H contributions are complete:
// sum in worker-index order (the one deterministic order every replica
// sees) and unicast the segmented sum to every other worker.
func (ic *iswClient) relayTryComplete(rt uint64) {
	st := ic.relay
	byW := st.rounds[rt]
	if len(byW) < ic.cluster.h {
		return
	}
	for _, a := range byW {
		if !a.Complete() {
			return
		}
	}
	total := make([]float32, ic.cluster.n)
	for _, w := range ic.cluster.workers {
		if a, ok := byW[w.Addr]; ok {
			tensor.Add(total, a.Vector())
		}
	}
	delete(st.rounds, rt)
	st.done[rt] = total
	st.order = append(st.order, rt)
	for len(st.order) > relayDoneDepth {
		old := st.order[0]
		st.order = st.order[1:]
		delete(st.done, old)
	}
	// In-progress state more than a round older than what was just
	// served can never complete (its contributors have moved on): drop
	// it so a long failover run does not accrete assemblers.
	for k := range st.rounds {
		if d := (rt - k) % protocol.RoundTagMod; d >= 2 && d < protocol.RoundTagMod/2 {
			delete(st.rounds, k)
		}
	}
	for _, w := range ic.cluster.workers {
		if w.Addr == ic.host.Addr {
			continue
		}
		ic.sendSegments(w.Addr, protocol.CompNone, rt<<roundShift, total, -1)
	}
}

// relayHandleHelp answers a Help addressed to the relay: served rounds
// re-serve the one requested segment; unserved rounds chase exactly the
// workers whose contributions are missing. Does not take ownership.
func (ic *iswClient) relayHandleHelp(pkt *protocol.Packet) {
	seg, err := protocol.ParseHelp(pkt.Value)
	if err != nil {
		return
	}
	st := ic.relayEngine()
	rt := seg >> roundShift
	if sum, ok := st.done[rt]; ok {
		lo, hi := protocol.SegmentRangeWith(ic.cluster.n, seg&segMask, ic.cluster.cfg.perPacket())
		if lo >= hi {
			return
		}
		ic.host.Send(ic.dataFrame(pkt.Src, protocol.CompNone, seg, sum[lo:hi], false))
		return
	}
	ic.relayChase(rt, seg)
}

// relayChase asks every worker whose contribution for round tag rt is
// incomplete to (re)send it, naming seg (any segment of that round) in
// its own Help frames.
func (ic *iswClient) relayChase(rt, seg uint64) {
	byW := ic.relayEngine().rounds[rt]
	for _, w := range ic.cluster.workers {
		if w.Addr == ic.host.Addr {
			continue
		}
		if byW != nil {
			if a, ok := byW[w.Addr]; ok && a.Complete() {
				continue
			}
		}
		ic.host.Send(ic.help(w.Addr, seg))
	}
}

// answerRelayHelp re-sends this worker's contribution for the round the
// relay is chasing, if it still holds that round's gradient.
func (ic *iswClient) answerRelayHelp(rt uint64) {
	switch rt {
	case ic.round % protocol.RoundTagMod:
		ic.relayContribute(rt, ic.curGrad, -1)
	case (ic.round - 1) % protocol.RoundTagMod:
		ic.relayContribute(rt, ic.prevGrad, -1)
	}
}

// relaySidecar handles relay-path data arriving while this worker is
// still on the switch path: the relay worker runs its engine for peers
// that tripped failover first; an ordinary worker receiving a
// relay-served aggregate for its current round concludes the switch
// path is dead and follows. Takes ownership of pkt.
func (ic *iswClient) relaySidecar(pkt *protocol.Packet, tag uint64) {
	if ic.isRelay() {
		ic.relayDispatch(pkt)
		return
	}
	if pkt.Src == ic.cluster.relayAddr() && pkt.Seg>>roundShift == tag>>roundShift {
		ic.enterFailover()
		pkt.Seg &= segMask
		if ic.asm.Add(pkt) == nil {
			ic.level, ic.fruitless = 0, 0
		}
	}
	pkt.Release()
}

// relayHelpSidecar handles relay-path Helps arriving while this worker
// is still on the switch path. Takes ownership of pkt.
func (ic *iswClient) relayHelpSidecar(pkt *protocol.Packet) {
	if ic.isRelay() {
		ic.relayHandleHelp(pkt)
	} else if pkt.Src == ic.cluster.relayAddr() {
		if seg, err := protocol.ParseHelp(pkt.Value); err == nil {
			ic.answerRelayHelp(seg >> roundShift)
		}
	}
	pkt.Release()
}

// collectViaRelay is CollectAggregate's failed-over path.
func (ic *iswClient) collectViaRelay(p *sim.Proc) []float32 {
	cfg := &ic.cluster.cfg
	rt := ic.round % protocol.RoundTagMod
	if ic.isRelay() {
		st := ic.relayEngine()
		ic.relayLocalContribution(rt, ic.curGrad)
		for {
			if sum, ok := st.done[rt]; ok {
				// The engine keeps sum to answer Helps, so the caller gets
				// the assembler's vector like every other path.
				copy(ic.asm.Vector(), sum)
				return ic.asm.Vector()
			}
			pkt, ok := ic.host.RecvTimeout(p, ic.backoffTimeout())
			if !ok {
				ic.level++
				ic.relayChase(rt, rt<<roundShift)
				ic.cluster.HelpsSent++
				continue
			}
			ic.level = 0
			ic.relayDispatch(pkt)
		}
	}
	ic.relayContribute(rt, ic.curGrad, -1)
	for !ic.asm.Complete() {
		pkt, ok := ic.host.RecvTimeout(p, ic.backoffTimeout())
		if !ok {
			ic.level++
			// Loss on either leg: re-offer the contribution (the relay's
			// assemblers absorb duplicates) and Help for missing sums.
			ic.relayContribute(rt, ic.curGrad, -1)
			for _, seg := range ic.asm.Missing() {
				ic.host.Send(ic.help(ic.cluster.relayAddr(), seg|rt<<roundShift))
				ic.cluster.HelpsSent++
			}
			continue
		}
		switch {
		case pkt.IsData() && pkt.Job == cfg.Job && pkt.Src == ic.cluster.relayAddr() &&
			pkt.Seg>>roundShift == rt:
			pkt.Seg &= segMask
			if ic.asm.Add(pkt) == nil {
				ic.level = 0
			}
			pkt.Release()
		case pkt.IsControl() && pkt.Action == protocol.ActionHelp:
			if pkt.Src == ic.cluster.relayAddr() {
				if seg, err := protocol.ParseHelp(pkt.Value); err == nil {
					ic.answerRelayHelp(seg >> roundShift)
				}
			}
			pkt.Release()
		default:
			pkt.Release()
		}
	}
	return ic.asm.Vector()
}
