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
//
// A shard is one psShard whose gather loop serves both policies: the
// synchronous server below sums slices in the order they complete and
// replies to each worker; the asynchronous one (async.go) checks each
// slice's staleness and applies it. sendSlice and recvAll are the one
// sender and the one reassembly loop of the PS and ring baselines.

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

// defaultPSConfig mirrors the measured reference implementation.
func defaultPSConfig() PSConfig {
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
	cfg := defaultPSConfig()
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

// maxPSShards bounds the shard count (shard addresses live in one
// /24-style subnet byte).
const maxPSShards = 128

// psShardAddr returns shard s's server address. Servers live on the
// 10.0.1.x subnet; worker plans keep the third byte 0 (netsim.HostAddr)
// and bound their own indices, so no valid shape reaches it.
func psShardAddr(s int) protocol.Addr {
	if s < 0 || s >= maxPSShards {
		panic(fmt.Sprintf("core: shard index %d out of range [0,%d)", s, maxPSShards))
	}
	return protocol.AddrFrom(10, 0, 1, byte(10+s), 9990)
}

// PSCluster is a star or two-level network with S parameter-server
// hosts, each owning a contiguous slice of the model vector.
type PSCluster struct {
	Server  *netsim.Host // shard 0's host: the paper's single host when S=1
	shards  []*psShard
	workers []*netsim.Host
	n       int
	cfg     PSConfig

	// scheme is the job's gradient wire format. The PS path supports
	// CompNone and CompFP16 (gradients and sync replies rounded through
	// half precision and carried at 2 B/element; async weight pulls stay
	// raw float32 so the authoritative weights never lose precision).
	scheme protocol.Compression
}

// psShard is one parameter-server shard: its server host, the element
// range [lo, hi) it owns, the global packet-segment index of its first
// element, and one assembler per worker. The sync server (startServer)
// and the async one (PSCluster.spawnAsync) both read pushes through
// gather.
type psShard struct {
	srv     *netsim.Host
	lo, hi  int
	segBase uint64
	asm     map[protocol.Addr]*protocol.Assembler
}

// gather receives until one worker's slice is complete and returns that
// worker and the slice, which stays valid until the next gather. Frames
// that are not data go to control (nil: dropped) and are released
// after it returns.
func (sh *psShard) gather(p *sim.Proc, control func(*protocol.Packet)) (protocol.Addr, []float32) {
	for {
		pkt := sh.srv.Recv(p)
		if !pkt.IsData() {
			if control != nil {
				control(pkt)
			}
			pkt.Release()
			continue
		}
		src := pkt.Src
		a := sh.asm[src]
		if a == nil {
			a = protocol.NewAssembler(sh.hi - sh.lo)
			sh.asm[src] = a
		}
		// Remap the global segment index into shard-local space
		// (misrouted segments wrap out of range and are dropped). The
		// payload is copied out: the frame is spent.
		err := a.AddFloats(pkt.Seg-sh.segBase, pkt.Data)
		pkt.Release()
		if err == nil && a.Complete() {
			a.Reset() // the vector stays intact until src's next frame
			return src, a.Vector()
		}
	}
}

// Workers exposes the worker hosts (the servers are separate).
func (c *PSCluster) Workers() []*netsim.Host { return c.workers }

// sendSlice sends vals from h to dst as data packets numbered from
// segment base and carried under enc. Packets alias vals.
func sendSlice(h *netsim.Host, dst protocol.Addr, vals []float32, base uint64, enc protocol.Compression) {
	for _, pkt := range protocol.Segment(h.Addr, dst, vals) {
		pkt.Seg += base
		pkt.Enc = enc
		h.Send(pkt)
	}
}

// recvAll resets asm, receives data frames into it until it is
// complete, and returns its vector (frames that do not fit are dropped).
func recvAll(p *sim.Proc, h *netsim.Host, asm *protocol.Assembler) []float32 {
	asm.Reset()
	for !asm.Complete() {
		pkt := h.Recv(p)
		if pkt.IsData() {
			_ = asm.Add(pkt)
		}
		pkt.Release()
	}
	return asm.Vector()
}

// scatter sends grad from h, each shard's slice to its server under the
// shard's global segment numbers. Packets alias grad.
func (c *PSCluster) scatter(h *netsim.Host, grad []float32) {
	for _, sh := range c.shards {
		sendSlice(h, sh.srv.Addr, grad[sh.lo:sh.hi], sh.segBase, c.scheme)
	}
}

// startServer spawns shard s's synchronous aggregation process: sum the
// workers' slices in the order they complete, then reply to each worker
// of the round.
func (c *PSCluster) startServer(k *sim.Kernel, s int) {
	sh := c.shards[s]
	n := sh.hi - sh.lo
	k.Spawn(fmt.Sprintf("ps-server-%d", s), func(p *sim.Proc) {
		for {
			var round []protocol.Addr
			sum := make([]float32, n) // the replies alias it
			for len(round) < len(c.workers) {
				src, slice := sh.gather(p, nil)
				p.Sleep(c.cfg.msgCost(n)) // framework receive cost
				kernels.Add(sum, slice)
				round = append(round, src)
			}
			// Deferred whole-vector summation happened above per arrival
			// order; charge the vectorized add cost once per round.
			p.Sleep(accel.SumLatency(n, len(round), c.cfg.SumRate))
			// Reply to each worker of the round; the server NIC
			// serializes these N slices back-to-back. Under fp16 the
			// reply is rounded through the wire precision once — every
			// worker then applies identical values.
			if c.scheme == protocol.CompFP16 {
				kernels.F16RoundInPlace(sum)
			}
			for _, dst := range round {
				p.Sleep(c.cfg.msgCost(n))
				sendSlice(sh.srv, dst, sum, sh.segBase, c.scheme)
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
	}
	return recvAll(p, pc.host, pc.asm)
}
