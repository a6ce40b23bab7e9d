package core

import (
	"fmt"

	"iswitch/internal/accel"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/tensor/kernels"
)

// Parameter-server aggregation (Figure 1a): every worker ships its full
// gradient to one central server host behind the switch; the server
// sums them and ships the result back to every worker. Four network
// hops per round, and the server's single link serializes N gradient
// vectors in each direction — the central bottleneck the paper
// measures.
//
// The reference PS design updates weights at the server and returns
// them; returning the summed gradient instead is byte-identical on the
// wire (weights and gradients have the same size) and mathematically
// equivalent since every worker applies the same deterministic
// optimizer step. Keeping the optimizer at the workers lets the PS,
// AR, and iSwitch strategies share one Agent implementation.
//
// Production PS designs (MXNet, the SwitchML baselines) partition the
// model into S contiguous shards, each owned by its own server host:
// workers scatter per-shard gradient segments, each shard sums and
// replies with its slice, and workers reassemble the full vector from
// all shards' replies. That splits the bottleneck link across S NICs
// and parallelizes the server-side work, tightening the baseline the
// iSwitch speedups are measured against. The paper's single host is the
// S=1 case of the same code. Shard boundaries align to packet-segment
// boundaries so one data packet never straddles two shards.

// PSConfig carries the software-stack costs of the PS reference design.
type PSConfig struct {
	// PerMessage is charged by the server for each whole-gradient
	// message it receives or sends.
	PerMessage sim.Time
	// WorkerBase is charged by each worker per aggregation round.
	WorkerBase sim.Time
	// SumRate is the server's float32 element-additions per second.
	SumRate float64
	// CopyRate is the server's tensor-staging throughput in bytes/sec,
	// charged on every whole-gradient message in either direction.
	CopyRate float64
	// Tensors is the framework-level tensor messages per gradient
	// (DDPG's dual model ships two); PerMessage is paid per tensor.
	Tensors int
	// MessageFloor is the irreducible size-independent launch cost of a
	// PS message, the lower bound on sharded-PS per-slice costs that
	// scale PerMessage by the shard's share of the model.
	MessageFloor sim.Time
	// AsyncUpdateExtra is the additional server time per accepted update
	// in the asynchronous variant (perfmodel.Workload.AsyncPSUpdateCost).
	AsyncUpdateExtra sim.Time
}

// DefaultPSConfig mirrors the measured reference implementation.
func DefaultPSConfig() PSConfig {
	return PSConfig{
		PerMessage:   perfmodel.PSPerMessage,
		WorkerBase:   perfmodel.PSWorkerBase,
		SumRate:      perfmodel.PSSumRate,
		CopyRate:     perfmodel.PSCopyRate,
		Tensors:      1,
		MessageFloor: perfmodel.PSMessageFloor,
	}
}

// PSConfigFor adapts the default PS config to a paper workload.
func PSConfigFor(w perfmodel.Workload) PSConfig {
	cfg := DefaultPSConfig()
	cfg.Tensors = w.Tensors()
	cfg.AsyncUpdateExtra = w.AsyncPSUpdateCost
	return cfg
}

// msgCost is a server's software cost for one whole-slice message.
func (c PSConfig) msgCost(floats int) sim.Time {
	t := c.Tensors
	if t < 1 {
		t = 1
	}
	return sim.Time(t)*c.PerMessage + sim.Time(float64(floats*4)/c.CopyRate*1e9)
}

// scaleByShare scales a full-model cost by a shard's element share
// (exact at share 1, so the single host charges the unscaled cost).
func scaleByShare(d sim.Time, shardFloats, modelFloats int) sim.Time {
	if shardFloats >= modelFloats {
		return d
	}
	return sim.Time(float64(d) * float64(shardFloats) / float64(modelFloats))
}

// shardMsgCost is the server-side software cost of one async framework
// message (a pull reply or a push receive) for a shard of shardFloats
// elements: PerMessage for the whole model, otherwise scaled by the
// slice share (both paths are dominated by staging the slice) and
// floored at MessageFloor (the size-independent launch cost).
func (c PSConfig) shardMsgCost(shardFloats, modelFloats int) sim.Time {
	if shardFloats >= modelFloats {
		return c.PerMessage
	}
	return max(scaleByShare(c.PerMessage, shardFloats, modelFloats), c.MessageFloor)
}

// MaxPSShards bounds the shard count (shard addresses live in one
// /24-style subnet byte).
const MaxPSShards = 128

// PSShardAddr returns shard s's server address. Servers live on the
// 10.0.1.x subnet; worker plans keep the third byte 0 (netsim.HostAddr)
// and bound their own indices, so no valid shape reaches it.
func PSShardAddr(s int) protocol.Addr {
	if s < 0 || s >= MaxPSShards {
		panic(fmt.Sprintf("core: shard index %d out of range [0,%d)", s, MaxPSShards))
	}
	return protocol.AddrFrom(10, 0, 1, byte(10+s), 9990)
}

// PSCluster is a star or two-level network with S parameter-server
// hosts, each owning a contiguous slice of the model vector.
type PSCluster struct {
	Server  *netsim.Host   // Servers[0]: the paper's single host when S=1
	Servers []*netsim.Host // shard s's host is Servers[s]
	workers []*netsim.Host
	n       int
	cfg     PSConfig
	// segLo[s] .. segLo[s+1] is the half-open packet-segment range of
	// shard s; len(segLo) == NumShards()+1.
	segLo []int

	// scheme is the job's gradient wire format. The PS path supports
	// CompNone and CompFP16 (gradients and sync replies rounded through
	// half precision and carried at 2 B/element; async weight pulls stay
	// raw float32 so the authoritative weights never lose precision).
	scheme protocol.Compression
}

// Workers exposes the worker hosts (the servers are separate).
func (c *PSCluster) Workers() []*netsim.Host { return c.workers }

// NumShards returns the effective shard count: ClusterSpec.Shards
// clamped to the model's packet-segment count (a shard must own at
// least one whole segment).
func (c *PSCluster) NumShards() int { return len(c.Servers) }

// ShardElems returns the element range [lo, hi) owned by shard s.
func (c *PSCluster) ShardElems(s int) (lo, hi int) {
	lo, _ = protocol.SegmentRange(c.n, uint64(c.segLo[s]))
	_, hi = protocol.SegmentRange(c.n, uint64(c.segLo[s+1]-1))
	return lo, hi
}

// scatter sends grad from h as data packets, each segment routed to its
// owning shard server with its global Seg index. Packets alias grad.
func (c *PSCluster) scatter(h *netsim.Host, grad []float32) {
	for s, srv := range c.Servers {
		lo, hi := c.ShardElems(s)
		for _, pkt := range protocol.Segment(h.Addr, srv.Addr, grad[lo:hi]) {
			pkt.Seg += uint64(c.segLo[s])
			pkt.Enc = c.scheme
			h.Send(pkt)
		}
	}
}

// startServer spawns shard s's synchronous aggregation process: gather
// every worker's shard slice, sum, reply to each worker of the round.
func (c *PSCluster) startServer(k *sim.Kernel, s int) {
	srv := c.Servers[s]
	lo, hi := c.ShardElems(s)
	nShard := hi - lo
	segBase := uint64(c.segLo[s])
	k.Spawn(fmt.Sprintf("ps-server-%d", s), func(p *sim.Proc) {
		asm := make(map[protocol.Addr]*protocol.Assembler)
		for {
			// Gather one full slice from each worker.
			var round []protocol.Addr
			sum := make([]float32, nShard)
			for len(round) < len(c.workers) {
				pkt := srv.Recv(p)
				if !pkt.IsData() {
					pkt.Release()
					continue
				}
				src := pkt.Src
				a := asm[src]
				if a == nil {
					a = protocol.NewAssembler(nShard)
					asm[src] = a
				}
				// Remap the global segment index into shard-local space
				// (misrouted segments wrap out of range and are dropped).
				// The payload is copied out: the frame is spent.
				err := a.AddFloats(pkt.Seg-segBase, pkt.Data)
				pkt.Release()
				if err != nil {
					continue
				}
				if a.Complete() {
					p.Sleep(c.cfg.msgCost(nShard)) // framework receive cost
					for i, v := range a.Vector() {
						sum[i] += v
					}
					a.Reset()
					round = append(round, src)
				}
			}
			// Deferred whole-vector summation happened above per arrival
			// order; charge the vectorized add cost once per round.
			p.Sleep(accel.SumLatency(nShard, len(round), c.cfg.SumRate))
			// Reply to each worker of the round; the server NIC
			// serializes these N slices back-to-back. Under fp16 the
			// reply is rounded through the wire precision once — every
			// worker then applies identical values.
			if c.scheme == protocol.CompFP16 {
				kernels.F16RoundInPlace(sum)
			}
			for _, dst := range round {
				p.Sleep(c.cfg.msgCost(nShard))
				for _, out := range protocol.Segment(srv.Addr, dst, sum) {
					out.Seg += segBase
					out.Enc = c.scheme
					srv.Send(out)
				}
			}
		}
	})
}

// Client returns worker i's aggregation handle.
func (c *PSCluster) Client(i int) Service {
	return &psClient{cluster: c, host: c.workers[i]}
}

type psClient struct {
	cluster *PSCluster
	host    *netsim.Host
	asm     *protocol.Assembler
	fpGrad  []float32 // fp16 rounding scratch
}

// Setup implements Service (the PS design has no handshake).
func (pc *psClient) Setup(*sim.Proc) {}

// H implements Service.
func (pc *psClient) H() int { return len(pc.cluster.workers) }

// Aggregate implements Service: scatter per-shard segments, then gather
// every shard's reply into one full-model assembler. The returned slice
// is the client's reusable assembler buffer (valid until the next
// Aggregate call) — a fresh per-round copy here was the datapath's last
// per-iteration whole-vector allocation.
func (pc *psClient) Aggregate(p *sim.Proc, grad []float32) []float32 {
	p.Sleep(pc.cluster.cfg.WorkerBase)
	if pc.cluster.scheme == protocol.CompFP16 {
		pc.fpGrad = append(pc.fpGrad[:0], grad...)
		kernels.F16RoundInPlace(pc.fpGrad)
		grad = pc.fpGrad
	}
	pc.cluster.scatter(pc.host, grad)
	if pc.asm == nil {
		pc.asm = protocol.NewAssembler(pc.cluster.n)
	} else {
		pc.asm.Reset()
	}
	for !pc.asm.Complete() {
		pkt := pc.host.Recv(p)
		if pkt.IsData() {
			_ = pc.asm.Add(pkt) // a bad segment is dropped
		}
		pkt.Release()
	}
	return pc.asm.Vector()
}
