package core

import (
	"fmt"

	"iswitch/internal/engine"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

// iSwitch aggregation (Figure 1c): workers send their gradient packets
// to the programmable switch, whose data-plane accelerator sums each
// segment on the fly and broadcasts the completed aggregate back —
// two network hops, on-the-fly packet-granular aggregation, and a
// dedicated link per worker.

// ISWConfig carries the (small) client-side cost of the iSwitch path.
type ISWConfig struct {
	// WorkerBase is charged per aggregation round per worker.
	WorkerBase sim.Time
	// FloatsPerPacket overrides the gradient payload per packet, at
	// most the MTU-filling protocol default (0 selects it). Exposed for
	// the packet-size ablation.
	FloatsPerPacket int
	// Job tags every packet this client sends (data and control) with a
	// training-job ID so a multi-tenant switch demultiplexes it into the
	// right aggregation context. Zero — the default — is the unmetered
	// single-tenant job, preserving legacy behavior exactly.
	Job protocol.JobID
	// RecoveryTimeout, when nonzero, arms worker-side loss recovery
	// during synchronous aggregation: a worker whose broadcast stalls
	// for this long sends Help for its missing segments and retransmits
	// its own contributions; peers answer relayed Helps by
	// retransmitting theirs. Requires the switch's dedup bitmap so
	// retransmissions stay idempotent (paper §3.3 loss handling).
	//
	// Choose it comfortably above one iteration's compute+aggregation
	// time (RecoveryTimeoutFor derives it from the perfmodel): with a
	// too-small timeout, a worker whose peers are merely still computing
	// mistakes the silence for loss and floods the fabric with
	// Help/retransmission traffic (harmless to correctness — the bitmap
	// absorbs duplicates — but costly to throughput). It is the base of
	// the client engine's Help timer (engine.Recovery, keyed by the
	// worker's index).
	RecoveryTimeout sim.Time
	// FailoverAfter, when positive, arms whole-switch failover: a worker
	// whose Help timer fires this many consecutive times with neither
	// data nor a switch ack concludes the aggregation plane is dead and
	// fails over to the relay worker, whose host runs the switch's own
	// engine: the worker then uploads, Helps and retransmits there as it
	// did to the switch. Failover is sticky and synchronous-only.
	FailoverAfter int
}

// DefaultISWConfig mirrors the raw-UDP client implementation.
func DefaultISWConfig() ISWConfig {
	return ISWConfig{WorkerBase: perfmodel.ISWWorkerBase}
}

// ISWConfigFor adapts the default iSwitch config to a workload (kept
// for symmetry with PSConfigFor/ARConfigFor; the raw-UDP client path
// has no per-workload software costs).
func ISWConfigFor(perfmodel.Workload) ISWConfig { return DefaultISWConfig() }

// ISWCluster is a cluster whose switches run the iSwitch extension:
// either a star (single switch) or the rack-scale ToR/root hierarchy.
type ISWCluster struct {
	workers []*netsim.Host
	// target[i] is the switch address worker i contributes to (its ToR
	// in a hierarchy, the single switch in a star).
	target []protocol.Addr
	n      int
	h      int
	cfg    ISWConfig
	// scheme is the job's gradient wire format (ClusterSpec.Compression),
	// negotiated at Join and kept on the relay failover path too.
	scheme protocol.Compression
	// untagged runs recovery without round tags: Help timers and blind
	// self-retransmission only, no per-round switch state. The
	// asynchronous pipeline sets it when recovery is armed.
	untagged bool

	// Fabric is the switch hierarchy Build wired (nil for a cluster
	// NewISWOnFabric laid over hosts of a shared fabric).
	Fabric *switchnet.Fabric

	// crashes holds the per-worker crash schedule (scheduleCrash).
	crashes map[int][]netsim.CrashFault

	// Recovery accounting (single-threaded kernel: plain counters).
	HelpsSent   uint64 // Help controls sent by stalled workers
	Retransmits uint64 // contribution segments resent on relayed Helps
	Failovers   uint64 // workers that switched to the relay path
	Rejoins     uint64 // crashed workers re-admitted
}

// NewISWOnFabric builds an ISWCluster over hosts of an already-built
// shared fabric: workers[i] contributes to the switch at targets[i]
// (its ToR in a hierarchy, the single switch in a star). h is the
// job-wide aggregation divisor — the total number of workers in the
// job. This is the multi-tenant entry point: several clusters, each
// tagged with a distinct cfg.Job, can cohabit one fabric.
func NewISWOnFabric(workers []*netsim.Host, targets []protocol.Addr, modelFloats, h int, cfg ISWConfig) *ISWCluster {
	if len(workers) == 0 || len(workers) != len(targets) {
		panic("core: NewISWOnFabric workers/targets mismatch")
	}
	return &ISWCluster{
		workers: workers,
		target:  append([]protocol.Addr(nil), targets...),
		n:       modelFloats, h: h, cfg: cfg,
	}
}

// Workers exposes the worker hosts.
func (c *ISWCluster) Workers() []*netsim.Host { return c.workers }

// Client returns worker i's aggregation handle.
func (c *ISWCluster) Client(i int) Service {
	ic := &iswClient{cluster: c, host: c.workers[i], idx: i}
	rec := engine.Recovery{Timeout: c.cfg.RecoveryTimeout, Key: uint64(i), Untagged: c.untagged}
	if c.relayArmed() {
		rec.FailoverAfter = c.cfg.FailoverAfter
	}
	ic.Init(ic, ic.host.Addr, c.target[i], c.cfg.Job, c.n, c.cfg.FloatsPerPacket, c.scheme, rec)
	return ic
}

// iswClient is the discrete-event driver of the client engine: it
// waits in virtual time out to the engine's Help timer, schedules
// crashes, fails over when told and routes relay traffic, while the
// embedded engine builds every frame and assembles the aggregate.
type iswClient struct {
	engine.Client
	cluster *ISWCluster
	host    *netsim.Host
	idx     int

	// On the relay worker, relay is the engine it runs for its peers,
	// loopback holds that engine's frames to this worker itself, and k
	// is the clock the engine reads.
	relay    *engine.Engine
	loopback []*protocol.Packet
	k        *sim.Kernel
}

// Send puts one of this worker's frames on the wire (engine.Sender),
// except a frame for the relay engine on this very host, which gets it
// directly.
func (ic *iswClient) Send(pkt *protocol.Packet) {
	if pkt.Dst == ic.host.Addr {
		ic.relayEngine().Handle(pkt, false)
		return
	}
	ic.host.Send(pkt)
}

// SendTrain puts an upload on the wire as a train, whose frames the NIC
// makes as they reach the switch, except an upload to the relay engine
// on this very host, which gets each frame directly.
func (ic *iswClient) SendTrain(t *engine.Train) {
	if t.Dst() == ic.host.Addr {
		t.SendEach(ic)
		return
	}
	ic.host.SendTrain(t)
}

// Setup implements Service: Join the training job and wait for the Ack
// (Table 2), retrying on timeout when loss recovery is armed. When
// failover is armed and the switch never answers (a rejoin after the
// aggregation plane died), Setup escalates to the relay path instead of
// retrying forever.
func (ic *iswClient) Setup(p *sim.Proc) {
	ic.k = p.Kernel()
	if ic.Target() == ic.cluster.relayAddr() {
		return // failed over: the relay path has no admission protocol
	}
	cfg := &ic.cluster.cfg
	ic.Join()
	for retries := 0; ; {
		var pkt *protocol.Packet
		ok := true
		if cfg.RecoveryTimeout > 0 {
			pkt, ok = ic.host.RecvTimeout(p, cfg.RecoveryTimeout)
		} else {
			pkt = ic.host.Recv(p)
		}
		if !ok {
			if retries++; ic.cluster.relayArmed() && retries >= cfg.FailoverAfter {
				ic.enterFailover()
				return
			}
			ic.Join() // Join or its Ack was lost; retry (idempotent)
			continue
		}
		// Anything but an Ack (e.g. an early data broadcast from a
		// previous tenant of this address) is dropped.
		ack, admitted := engine.AckOf(pkt)
		pkt.Release()
		switch {
		case !ack:
		case admitted:
			return
		case cfg.RecoveryTimeout > 0:
			// An explicit refusal with recovery armed means the job's
			// switch context is gone right now (preempted or not yet
			// restored after a failure). Back off and re-Join: the
			// scheduler restores the context when SRAM frees up.
			p.Sleep(cfg.RecoveryTimeout)
			ic.Join()
		default:
			panic(fmt.Sprintf("core: worker %v join rejected", ic.host.Addr))
		}
	}
}

// H implements Service.
func (ic *iswClient) H() int { return ic.cluster.h }

// Aggregate implements Service: stream the gradient as tagged data
// packets and reassemble the broadcast aggregate. A scheduled crash
// (scheduleCrash / FaultPlan) fires here, at the round it names.
func (ic *iswClient) Aggregate(p *sim.Proc, grad []float32) []float32 {
	if f, ok := ic.takeCrash(); ok {
		return ic.crashedAggregate(p, grad, f)
	}
	p.Sleep(ic.cluster.cfg.WorkerBase)
	ic.SendGradient(grad)
	return ic.CollectAggregate(p)
}

// SendGradient is the non-blocking upload half of Aggregate — the
// asynchronous pipeline's LGC thread uses it alone (Algorithm 1's
// "nonblocking send g_w to switch").
func (ic *iswClient) SendGradient(grad []float32) { ic.Upload(grad, -1) }

// CollectAggregate is the blocking download half of Aggregate — the
// asynchronous pipeline's LWU thread uses it alone (Algorithm 1's "wait
// until g_sum received").
//
// Recovery behaviour when RecoveryTimeout is armed: a stall sends Help
// for each missing segment (untagged, it also resends the worker's own
// contribution; tagged, the switch relays the Help to exactly the
// contributors it is missing). With failover armed, the engine answers
// FailOver once enough stalls in a row showed no sign of switch life
// (no data, no ack), and the worker fails over to the relay, after
// which this same loop runs against it.
//
// The result is the assembler's own vector, valid until this worker's
// next CollectAggregate as the Service contract says: a round costs no
// model-sized copy.
func (ic *iswClient) CollectAggregate(p *sim.Proc) []float32 {
	ic.Expect()
	for !ic.Complete() {
		pkt, ok := ic.recv(p)
		if !ok {
			// The DES gives up on no round: GiveUpAfter is 0.
			switch v, helps, resent := ic.Expire(); v {
			case engine.FailOver:
				ic.enterFailover()
			case engine.Helped:
				ic.cluster.HelpsSent += uint64(helps)
				ic.cluster.Retransmits += uint64(resent)
			}
			continue
		}
		// The switch broadcasts pooled frames; this loop takes delivery,
		// so it owns each frame and hands it on to the relay or the
		// engine, which release it.
		if ic.divert(pkt) {
			continue
		}
		if ic.Take(pkt) {
			ic.cluster.Retransmits++
		}
	}
	return ic.Finish()
}

// divert handles relay-path traffic while this worker is still on the
// switch path, reporting whether it consumed pkt: a peer's frame for
// the relay this host runs goes there, and the relay's own frames are
// let through only when the worker should follow them. An aggregate for
// this round from the relay says the switch is dead (peers failed over
// first), so the worker fails over too; a Help from the relay is
// answered there by the engine.
func (ic *iswClient) divert(pkt *protocol.Packet) bool {
	cfg := &ic.cluster.cfg
	data := pkt.IsData() && cfg.FailoverAfter > 0 && pkt.Job == cfg.Job
	help := pkt.IsControl() && pkt.Action == protocol.ActionHelp && ic.cluster.relayArmed()
	switch {
	case pkt.Src == ic.Target() || !data && !help:
		return false
	case ic.toRelay(pkt):
		return true
	case pkt.Src != ic.cluster.relayAddr() || data && !ic.IsCurrent(pkt.Seg):
		pkt.Release()
		return true
	case data:
		ic.enterFailover()
	}
	return false
}

// recv waits for this worker's next frame, out to the engine's Help
// timer when recovery is armed, taking the frames its own relay engine
// addressed to it first.
func (ic *iswClient) recv(p *sim.Proc) (*protocol.Packet, bool) {
	if len(ic.loopback) > 0 {
		pkt := ic.loopback[0]
		ic.loopback = ic.loopback[:copy(ic.loopback, ic.loopback[1:])]
		return pkt, true
	}
	if ic.cluster.cfg.RecoveryTimeout <= 0 {
		return ic.host.Recv(p), true
	}
	return ic.host.RecvTimeout(p, ic.Wait())
}
