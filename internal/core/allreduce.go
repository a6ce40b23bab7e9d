package core

import (
	"iswitch/internal/accel"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/tensor/kernels"
)

// Ring-AllReduce aggregation (Figure 1b): the N workers form a logical
// ring; a reduce-scatter phase (N−1 steps) leaves each worker holding
// the full sum of one 1/N chunk, and an allgather phase (N−1 steps)
// circulates the reduced chunks. Every step crosses the switch twice,
// so one aggregation costs 4(N−1) network hops — linear in cluster
// size, the scalability weakness the paper measures (§2.3).

// ARConfig carries the software costs of the AllReduce reference design.
type ARConfig struct {
	// PerStep is each worker's per-ring-step cost (MPI send/recv launch
	// and GPU staging).
	PerStep sim.Time
	// SumRate is each worker's chunk-reduction rate (float32 adds/s).
	SumRate float64
	// CopyRate is each worker's tensor-staging throughput in bytes/sec,
	// charged per step on the chunk sent and the chunk received.
	CopyRate float64
	// Tensors is the framework-level tensor messages per gradient;
	// AllReduce launches once per tensor, paying PerStep each time.
	Tensors int
}

// DefaultARConfig mirrors the measured reference implementation.
func DefaultARConfig() ARConfig {
	return ARConfig{PerStep: perfmodel.ARPerStep, SumRate: perfmodel.ARSumRate,
		CopyRate: perfmodel.ARCopyRate, Tensors: 1}
}

// ARConfigFor adapts the default AR config to a paper workload.
func ARConfigFor(w perfmodel.Workload) ARConfig {
	cfg := DefaultARConfig()
	cfg.Tensors = w.Tensors()
	return cfg
}

// stepCost is one ring step's software cost for a chunk of the given
// float32 length.
func (c ARConfig) stepCost(chunkFloats int) sim.Time {
	t := c.Tensors
	if t < 1 {
		t = 1
	}
	return sim.Time(t)*c.PerStep + sim.Time(float64(2*chunkFloats*4)/c.CopyRate*1e9)
}

// ARCluster is a star or two-level network whose workers run
// Ring-AllReduce.
type ARCluster struct {
	workers []*netsim.Host
	n       int
	cfg     ARConfig
}

// Workers exposes the worker hosts.
func (c *ARCluster) Workers() []*netsim.Host { return c.workers }

// Client returns worker i's aggregation handle.
func (c *ARCluster) Client(i int) Service {
	return &arClient{cluster: c, rank: i, host: c.workers[i]}
}

// chunkRange returns the element range [lo, hi) of ring chunk ci for an
// n-element vector split across nw workers.
func chunkRange(n, nw, ci int) (lo, hi int) {
	base := n / nw
	rem := n % nw
	lo = ci*base + minInt(ci, rem)
	size := base
	if ci < rem {
		size++
	}
	return lo, lo + size
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

type arClient struct {
	cluster *ARCluster
	rank    int
	host    *netsim.Host
}

// Setup implements Service.
func (ac *arClient) Setup(*sim.Proc) {}

// H implements Service.
func (ac *arClient) H() int { return len(ac.cluster.workers) }

// sendChunk ships one chunk of vec to the ring successor as data
// packets whose Seg numbers are chunk-relative.
func (ac *arClient) sendChunk(vec []float32, ci int) {
	n, nw := ac.cluster.n, len(ac.cluster.workers)
	lo, hi := chunkRange(n, nw, ci)
	next := ac.cluster.workers[(ac.rank+1)%nw]
	for _, pkt := range protocol.Segment(ac.host.Addr, next.Addr, vec[lo:hi]) {
		ac.host.Send(pkt)
	}
}

// recvChunk collects one chunk-sized message from the ring predecessor.
func (ac *arClient) recvChunk(p *sim.Proc, ci int) []float32 {
	n, nw := ac.cluster.n, len(ac.cluster.workers)
	lo, hi := chunkRange(n, nw, ci)
	asm := protocol.NewAssembler(hi - lo)
	for !asm.Complete() {
		pkt := ac.host.Recv(p)
		if pkt.IsData() {
			_ = asm.Add(pkt) // a bad segment is dropped
		}
		pkt.Release()
	}
	return asm.Vector()
}

// Aggregate implements Service with the classic two-phase ring.
func (ac *arClient) Aggregate(p *sim.Proc, grad []float32) []float32 {
	nw := len(ac.cluster.workers)
	vec := append([]float32(nil), grad...)

	// Reduce-scatter: after step s, worker i holds the running sum of
	// chunk (i−s−1 mod nw) over s+2 contributors.
	for s := 0; s < nw-1; s++ {
		sendCi := mod(ac.rank-s, nw)
		recvCi := mod(ac.rank-s-1, nw)
		lo0, hi0 := chunkRange(ac.cluster.n, nw, sendCi)
		p.Sleep(ac.cluster.cfg.stepCost(hi0 - lo0))
		ac.sendChunk(vec, sendCi)
		in := ac.recvChunk(p, recvCi)
		lo, _ := chunkRange(ac.cluster.n, nw, recvCi)
		p.Sleep(accel.SumLatency(len(in), 1, ac.cluster.cfg.SumRate))
		kernels.Add(vec[lo:lo+len(in)], in)
	}
	// Allgather: circulate the fully reduced chunks.
	for s := 0; s < nw-1; s++ {
		sendCi := mod(ac.rank+1-s, nw)
		recvCi := mod(ac.rank-s, nw)
		lo0, hi0 := chunkRange(ac.cluster.n, nw, sendCi)
		p.Sleep(ac.cluster.cfg.stepCost(hi0 - lo0))
		ac.sendChunk(vec, sendCi)
		in := ac.recvChunk(p, recvCi)
		lo, _ := chunkRange(ac.cluster.n, nw, recvCi)
		copy(vec[lo:lo+len(in)], in)
	}
	return vec
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
