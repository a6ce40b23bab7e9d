package core

import (
	"fmt"

	"iswitch/internal/compress"
	"iswitch/internal/engine"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
	"iswitch/internal/tensor/kernels"
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
	// FloatsPerPacket overrides the gradient payload per packet
	// (0 selects the MTU-filling protocol default). Exposed for the
	// packet-size ablation.
	FloatsPerPacket int
	// Compression selects the job's gradient wire scheme (CompNone: the
	// paper's raw float32). Negotiated with the switch at Join time and
	// fixed for the job's lifetime, the relay failover path included.
	// CompInt32Block and CompTopK are synchronous-only (SpawnAsyncISW
	// rejects them).
	Compression protocol.Compression
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
	// absorbs duplicates — but costly to throughput). Consecutive
	// fruitless timeouts back off exponentially with deterministic
	// jitter, capped at MaxBackoff.
	RecoveryTimeout sim.Time
	// MaxBackoff caps the backed-off Help timer (0: 16× RecoveryTimeout).
	MaxBackoff sim.Time
	// Untagged runs recovery without round tags: Help timers and blind
	// self-retransmission only, no per-round switch state. This is the
	// asynchronous pipeline's mode (worker rounds do not align, so a
	// shared round tag is meaningless); SpawnAsyncISW sets it
	// automatically when recovery is armed.
	Untagged bool
	// FailoverAfter, when positive, arms whole-switch failover: a worker
	// whose Help timer fires this many consecutive times with neither
	// data nor a switch ack concludes the aggregation plane is dead and
	// fails over to the relay worker, whose host runs the switch's own
	// engine: the worker then uploads, Helps and retransmits there as it
	// did to the switch. Failover is sticky and synchronous-only.
	FailoverAfter int
	// Relay is the backup software aggregator's address (zero: worker 0).
	Relay protocol.Addr
}

// DefaultISWConfig mirrors the raw-UDP client implementation.
func DefaultISWConfig() ISWConfig {
	return ISWConfig{WorkerBase: perfmodel.ISWWorkerBase}
}

// ISWConfigFor adapts the default iSwitch config to a workload (kept
// for symmetry with PSConfigFor/ARConfigFor; the raw-UDP client path
// has no per-workload software costs).
func ISWConfigFor(perfmodel.Workload) ISWConfig { return DefaultISWConfig() }

// perPacket resolves the payload size in use.
func (c ISWConfig) perPacket() int {
	if c.FloatsPerPacket > 0 {
		return c.FloatsPerPacket
	}
	return protocol.FloatsPerPacket
}

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

	// Fabric is the switch hierarchy Build wired (nil for a cluster
	// NewISWOnFabric laid over hosts of a shared fabric).
	Fabric *switchnet.Fabric

	// crashes holds the per-worker crash schedule (ScheduleCrash).
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
	return &iswClient{cluster: c, host: c.workers[i], sw: c.target[i], idx: i}
}

// The round-tag layout lives in protocol (RoundShift and friends);
// these aliases keep the client code terse.
const (
	roundShift = protocol.RoundShift
	segMask    = protocol.SegIndexMask
)

type iswClient struct {
	cluster *ISWCluster
	host    *netsim.Host
	sw      protocol.Addr
	idx     int
	asm     *protocol.Assembler

	// Recovery-mode state: the current round number and the gradients
	// of the current and previous rounds, retained so relayed Help
	// requests for either round can be answered.
	round    uint64
	curGrad  []float32
	prevGrad []float32

	// level is the exponential-backoff level of the Help timer;
	// fruitless counts consecutive timeouts with neither data nor a
	// switch ack (the failover trigger).
	level     int
	fruitless int

	// failedOver marks the sticky switch-to-relay failover (sw is then
	// the relay). On the relay worker, relay is the engine it runs for
	// its peers, loopback holds that engine's frames to this worker
	// itself, and k is the clock the engine reads.
	failedOver bool
	relay      *engine.Engine
	loopback   []*protocol.Packet
	k          *sim.Kernel

	// codec holds the compression state (lazily built when the job's
	// scheme needs one); fpGrad is the fp16 rounding scratch and decBuf
	// the per-segment dequantization scratch.
	codec  *compress.Codec
	fpGrad []float32
	decBuf []float32
}

// ensureCodec lazily builds the worker's compression codec.
func (ic *iswClient) ensureCodec() *compress.Codec {
	if ic.codec == nil {
		ic.codec = compress.NewCodec(compress.Config{Scheme: ic.cluster.cfg.Compression},
			ic.cluster.n, ic.cluster.cfg.perPacket())
	}
	return ic.codec
}

// roundTag returns the Seg-field tag for the current round (0 when
// recovery mode is off or running untagged, preserving plain segment
// numbering for the asynchronous pipeline where worker rounds do not
// align).
func (ic *iswClient) roundTag() uint64 {
	if ic.cluster.cfg.RecoveryTimeout <= 0 || ic.cluster.cfg.Untagged {
		return 0
	}
	return protocol.RoundTag(ic.round)
}

// Setup implements Service: Join the training job and wait for the Ack
// (Table 2), retrying on timeout when loss recovery is armed. When
// failover is armed and the switch never answers (a rejoin after the
// aggregation plane died), Setup escalates to the relay path instead of
// retrying forever.
func (ic *iswClient) Setup(p *sim.Proc) {
	ic.k = p.Kernel()
	if ic.failedOver {
		return // the relay path has no admission protocol
	}
	join := func() {
		value := protocol.JoinValue(uint64(ic.cluster.n))
		if s := ic.cluster.cfg.Compression; s != protocol.CompNone {
			value = protocol.JoinValueScheme(uint64(ic.cluster.n), s)
		}
		pkt := protocol.NewControl(ic.host.Addr, ic.sw, protocol.ActionJoin, value)
		pkt.Job = ic.cluster.cfg.Job
		ic.host.Send(pkt)
	}
	join()
	retries := 0
	for {
		var pkt *protocol.Packet
		if to := ic.cluster.cfg.RecoveryTimeout; to > 0 {
			var ok bool
			pkt, ok = ic.host.RecvTimeout(p, to)
			if !ok {
				retries++
				if fa := ic.cluster.cfg.FailoverAfter; fa > 0 && retries >= fa && !ic.cluster.cfg.Untagged {
					ic.enterFailover()
					return
				}
				join() // Join or its Ack was lost; retry (idempotent)
				continue
			}
		} else {
			pkt = ic.host.Recv(p)
		}
		if pkt.IsControl() && pkt.Action == protocol.ActionAck {
			admitted := len(pkt.Value) == 1 && pkt.Value[0] == 1
			pkt.Release()
			if admitted {
				return
			}
			if to := ic.cluster.cfg.RecoveryTimeout; to > 0 {
				// An explicit refusal with recovery armed means the job's
				// switch context is gone right now (preempted or not yet
				// restored after a failure). Back off and re-Join: the
				// scheduler restores the context when SRAM frees up.
				p.Sleep(to)
				join()
				continue
			}
			panic(fmt.Sprintf("core: worker %v join rejected", ic.host.Addr))
		}
		// Anything else (e.g. an early data broadcast from a previous
		// tenant of this address) is dropped; recycle pooled frames.
		pkt.Release()
	}
}

// H implements Service.
func (ic *iswClient) H() int { return ic.cluster.h }

// Aggregate implements Service: stream the gradient as tagged data
// packets and reassemble the broadcast aggregate. A scheduled crash
// (ScheduleCrash / FaultPlan) fires here, at the round it names.
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
func (ic *iswClient) SendGradient(grad []float32) { ic.sendGradient(grad, -1) }

// sendGradient uploads the gradient, optionally truncated to the first
// limit segments (how a scheduled crash models dying mid-upload).
func (ic *iswClient) sendGradient(grad []float32, limit int) {
	cfg := &ic.cluster.cfg
	switch cfg.Compression {
	case protocol.CompFP16:
		// Round through the wire precision up front: the retained
		// recovery copy then holds exactly the values the switch will
		// sum, so retransmissions are bit-identical to the original
		// upload.
		ic.fpGrad = append(ic.fpGrad[:0], grad...)
		kernels.F16RoundInPlace(ic.fpGrad)
		grad = ic.fpGrad
	case protocol.CompTopK:
		// One global selection per round, cached for retransmissions.
		ic.ensureCodec().SelectTopK(grad)
	}
	if cfg.RecoveryTimeout > 0 {
		ic.round++
		// Retain a copy (the caller reuses grad) in the older of the two
		// retained buffers: it held round r-2, which no Help can name any
		// more, so the two rotate and no round allocates after the second.
		ic.prevGrad, ic.curGrad = ic.curGrad, append(ic.prevGrad[:0], grad...)
	}
	ic.sendSegments(ic.roundTag(), grad, limit, false)
}

// sendSegments sends grad to the switch, one frame per segment with tag
// in the Seg field's round bits, stopping after limit frames (negative:
// all). prevRound encodes as dataFrame's flag says.
func (ic *iswClient) sendSegments(tag uint64, grad []float32, limit int, prevRound bool) {
	per := ic.cluster.cfg.perPacket()
	segs := protocol.SegmentCountWith(len(grad), per)
	if limit >= 0 && limit < segs {
		segs = limit
	}
	for s := uint64(0); s < uint64(segs); s++ {
		lo, hi := protocol.SegmentRangeWith(len(grad), s, per)
		ic.send(ic.dataFrame(ic.sw, s|tag, grad[lo:hi], prevRound))
	}
}

// send puts one of this worker's frames on the wire, except a frame for
// the relay engine on this very host, which gets it directly.
func (ic *iswClient) send(pkt *protocol.Packet) {
	if pkt.Dst == ic.host.Addr {
		ic.relayEngine().Handle(pkt, false)
		return
	}
	ic.host.Send(pkt)
}

// dataFrame builds the frame that carries one segment's values to dst
// under the job's scheme. It is the one place a worker's data frame is
// made: first upload, retransmission and failover alike. The header is
// pooled and whoever consumes the frame releases it. A float payload
// aliases vals, which the sender keeps intact while the frame can be in
// flight; codec output is copied in, since the codec's scratch and
// cached selection move on with the next segment or round. prevRound
// encodes on the grid, or replays the selection, of the round before
// the current one.
func (ic *iswClient) dataFrame(dst protocol.Addr, taggedSeg uint64, vals []float32, prevRound bool) *protocol.Packet {
	seg := taggedSeg & segMask
	scheme := ic.cluster.cfg.Compression
	var pkt *protocol.Packet
	switch scheme {
	case protocol.CompInt32Block:
		codec := ic.ensureCodec()
		var q []int32
		if prevRound {
			q = codec.EncodeQPrev(seg, vals)
		} else {
			q = codec.EncodeQ(seg, vals)
		}
		pkt = protocol.NewQData(ic.host.Addr, dst, taggedSeg, q, 0)
		pkt.SetQDataCopy(q)
	case protocol.CompTopK:
		codec := ic.ensureCodec()
		var idx []uint16
		var sel []float32
		if prevRound {
			idx, sel = codec.SparsePrev(seg)
		} else {
			idx, sel = codec.Sparse(seg)
		}
		pkt = protocol.NewSparseData(ic.host.Addr, dst, taggedSeg, idx, sel)
		pkt.SetIdxCopy(idx)
		pkt.SetDataCopy(sel)
	default:
		pkt = protocol.NewData(ic.host.Addr, dst, taggedSeg, vals)
		if scheme == protocol.CompFP16 {
			pkt.Enc = protocol.CompFP16 // vals already hold rounded values
		}
	}
	pkt.Job = ic.cluster.cfg.Job
	return pkt
}

// retransmit resends to dst this worker's contribution for one
// (possibly round-tagged) segment, if the matching round's gradient is
// retained.
// The resend is bit-identical to the original upload under every
// scheme: fp16 gradients were rounded before retention, quantized
// segments re-encode on the grid their round used (current or
// previous — the codec retains both), and sparse segments replay the
// cached selection.
func (ic *iswClient) retransmit(dst protocol.Addr, taggedSeg uint64) {
	cfg := &ic.cluster.cfg
	var grad []float32
	prevRound := false
	if cfg.Untagged {
		grad = ic.curGrad // untagged: only the latest gradient is held
	} else {
		switch taggedSeg >> roundShift {
		case (ic.round) % protocol.RoundTagMod:
			grad = ic.curGrad
		case (ic.round - 1) % protocol.RoundTagMod:
			grad = ic.prevGrad
			prevRound = true
		default:
			return // too old to serve
		}
	}
	if grad == nil {
		return
	}
	seg := taggedSeg & segMask
	lo, hi := protocol.SegmentRangeWith(len(grad), seg, cfg.perPacket())
	if lo >= hi {
		return
	}
	ic.send(ic.dataFrame(dst, taggedSeg, grad[lo:hi], prevRound))
	ic.cluster.Retransmits++
}

// CollectAggregate is the blocking download half of Aggregate — the
// asynchronous pipeline's LWU thread uses it alone (Algorithm 1's "wait
// until g_sum received").
//
// Recovery behaviour when RecoveryTimeout is armed: a stall sends Help
// for each missing segment (and, in untagged/async mode, blindly
// retransmits the worker's own contributions — with round tags the
// switch instead relays the Help to exactly the contributors it is
// missing, so only the lost data moves again). Consecutive fruitless
// stalls back the timer off exponentially; with failover armed, enough
// of them with no sign of switch life (no data, no ack) trips the
// sticky switch-to-relay failover, after which this same loop runs
// against the relay.
//
// The result is the assembler's own vector, valid until this worker's
// next CollectAggregate as the Service contract says: a round costs no
// model-sized copy.
func (ic *iswClient) CollectAggregate(p *sim.Proc) []float32 {
	if ic.asm == nil {
		ic.asm = protocol.NewAssemblerWith(ic.cluster.n, ic.cluster.cfg.perPacket())
	} else {
		ic.asm.Reset()
	}
	cfg := &ic.cluster.cfg
	tag := ic.roundTag()
	for !ic.asm.Complete() {
		var pkt *protocol.Packet
		if cfg.RecoveryTimeout > 0 {
			var ok bool
			pkt, ok = ic.recv(p)
			if !ok {
				ic.level++
				ic.fruitless++
				if cfg.FailoverAfter > 0 && !cfg.Untagged && !ic.failedOver && ic.fruitless >= cfg.FailoverAfter {
					ic.enterFailover()
					continue
				}
				// Stalled: request recovery for every missing segment.
				for _, seg := range ic.asm.Missing() {
					ic.send(ic.help(ic.sw, seg|tag))
					ic.cluster.HelpsSent++
					if cfg.Untagged {
						// No switch-side bitmap to target retransmission
						// with: resend our own contribution blindly.
						ic.retransmit(ic.sw, seg|tag)
					}
				}
				continue
			}
		} else {
			pkt = ic.host.Recv(p)
		}
		// The switch broadcasts pooled frames; this loop takes delivery,
		// so it owns each frame and releases it once the assembler has
		// copied the payload (or the packet is rejected). Ownership also
		// means the round tag can be stripped by mutating Seg in place —
		// no shallow copy that would alias pooled payload.
		switch {
		case pkt.IsData():
			if pkt.Job != cfg.Job {
				pkt.Release()
				continue // another tenant's broadcast (shared host)
			}
			if cfg.FailoverAfter > 0 && pkt.Src != ic.sw {
				// Relay-path traffic while this worker is still on the
				// switch path: a peer's contribution to the relay this host
				// runs, or the relay's aggregate. Peers have failed over
				// first; an aggregate for this round says the switch is
				// dead, so follow them.
				if ic.toRelay(pkt) {
					continue
				}
				if pkt.Src != ic.cluster.relayAddr() || pkt.Seg>>roundShift != tag>>roundShift {
					pkt.Release()
					continue
				}
				ic.enterFailover()
			}
			if pkt.Seg>>roundShift != tag>>roundShift {
				pkt.Release()
				continue // stale re-broadcast from a completed round
			}
			pkt.Seg &= segMask
			var err error
			if pkt.Enc == protocol.CompInt32Block {
				err = ic.addQuantized(pkt)
			} else {
				err = ic.asm.Add(pkt)
			}
			pkt.Release()
			if err != nil {
				continue
			}
			ic.level, ic.fruitless = 0, 0 // progress: the path is alive
		case pkt.IsControl() && pkt.Action == protocol.ActionHelp:
			dst := ic.sw
			if ic.cluster.relayArmed() && pkt.Src != ic.sw {
				// A peer's Help to the relay this host runs, or the relay
				// chasing this worker before it failed over.
				if ic.toRelay(pkt) {
					continue
				}
				if pkt.Src != ic.cluster.relayAddr() {
					pkt.Release()
					continue
				}
				dst = pkt.Src
			}
			if seg, err := protocol.ParseHelp(pkt.Value); err == nil {
				ic.retransmit(dst, seg)
			}
			pkt.Release()
		case pkt.IsControl() && pkt.Action == protocol.ActionAck:
			ic.fruitless = 0 // the switch is alive; peers are just slow
			pkt.Release()
		default:
			pkt.Release()
		}
	}
	if ic.codec != nil && ic.codec.Scheme() == protocol.CompInt32Block {
		// Commit the grid exponents derived from this round's aggregate;
		// every worker decoded identical (q, shift) pairs, so every
		// worker advances to identical exponents.
		ic.codec.Advance()
	}
	return ic.asm.Vector()
}

// recv waits out the Help timer for this worker's next frame, taking
// the frames its own relay engine addressed to it first.
func (ic *iswClient) recv(p *sim.Proc) (*protocol.Packet, bool) {
	if len(ic.loopback) > 0 {
		pkt := ic.loopback[0]
		ic.loopback = ic.loopback[:copy(ic.loopback, ic.loopback[1:])]
		return pkt, true
	}
	return ic.host.RecvTimeout(p, ic.backoffTimeout())
}

// help builds this worker's Help for the (round-tagged) segment seg.
func (ic *iswClient) help(dst protocol.Addr, seg uint64) *protocol.Packet {
	h := protocol.NewHelp(ic.host.Addr, dst, seg)
	h.Job = ic.cluster.cfg.Job
	return h
}

// addQuantized decodes one quantized aggregate segment through the
// codec and places it in the assembler. Re-decoding a re-served shadow
// copy is idempotent.
func (ic *iswClient) addQuantized(pkt *protocol.Packet) error {
	lo, hi := protocol.SegmentRangeWith(ic.cluster.n, pkt.Seg, ic.cluster.cfg.perPacket())
	if len(pkt.QData) != hi-lo {
		return fmt.Errorf("core: quantized segment %d carries %d values, want %d",
			pkt.Seg, len(pkt.QData), hi-lo)
	}
	if cap(ic.decBuf) < hi-lo {
		ic.decBuf = make([]float32, ic.cluster.cfg.perPacket())
	}
	dst := ic.decBuf[:hi-lo]
	ic.ensureCodec().DecodeQ(pkt.Seg, pkt.QData, pkt.Shift, dst)
	return ic.asm.AddFloats(pkt.Seg, dst)
}
