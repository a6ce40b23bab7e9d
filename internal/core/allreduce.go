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

// defaultARConfig mirrors the measured reference implementation.
func defaultARConfig() ARConfig {
	return ARConfig{PerStep: perfmodel.ARPerStep, SumRate: perfmodel.ARSumRate,
		CopyRate: perfmodel.ARCopyRate, Tensors: 1}
}

// ARConfigFor adapts the default AR config to a paper workload.
func ARConfigFor(w perfmodel.Workload) ARConfig {
	cfg := defaultARConfig()
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
	lo = ci*base + min(ci, rem)
	size := base
	if ci < rem {
		size++
	}
	return lo, lo + size
}

type arClient struct {
	cluster *ARCluster
	rank    int
	host    *netsim.Host
	asm     []*protocol.Assembler // asm[ci] receives ring chunk ci
	// vecs are the working vectors, used by alternate rounds: the last
	// chunk a round sends aliases its vector and may still be in flight
	// to the successor when this worker begins the next round.
	vecs  [2][]float32
	round int
}

// Setup implements Service.
func (ac *arClient) Setup(*sim.Proc) {}

// H implements Service.
func (ac *arClient) H() int { return len(ac.cluster.workers) }

// step is one ring step: charge its software cost, ship chunk sendCi of
// vec to the ring successor (Seg numbers chunk-relative), and receive
// chunk recvCi from the predecessor. It returns the received chunk and
// its place in vec.
func (ac *arClient) step(p *sim.Proc, vec []float32, sendCi, recvCi int) (in, dst []float32) {
	n, nw := ac.cluster.n, len(ac.cluster.workers)
	lo, hi := chunkRange(n, nw, sendCi)
	p.Sleep(ac.cluster.cfg.stepCost(hi - lo))
	sendSlice(ac.host, ac.cluster.workers[(ac.rank+1)%nw].Addr, vec[lo:hi], 0, protocol.CompNone)
	lo, hi = chunkRange(n, nw, recvCi)
	return recvAll(p, ac.host, ac.asm[recvCi]), vec[lo:hi]
}

// Aggregate implements Service with the classic two-phase ring. The
// returned slice is one of the client's working vectors, valid until
// the next Aggregate call.
func (ac *arClient) Aggregate(p *sim.Proc, grad []float32) []float32 {
	nw := len(ac.cluster.workers)
	if ac.asm == nil { // buffers are made by the first round, not at setup
		for ci := range nw {
			lo, hi := chunkRange(ac.cluster.n, nw, ci)
			ac.asm = append(ac.asm, protocol.NewAssembler(hi-lo))
		}
	}
	ac.round ^= 1
	vec := append(ac.vecs[ac.round][:0], grad...)
	ac.vecs[ac.round] = vec

	// Reduce-scatter: after step s, worker i holds the running sum of
	// chunk (i−s−1 mod nw) over s+2 contributors.
	for s := 0; s < nw-1; s++ {
		in, dst := ac.step(p, vec, mod(ac.rank-s, nw), mod(ac.rank-s-1, nw))
		p.Sleep(accel.SumLatency(len(in), 1, ac.cluster.cfg.SumRate))
		kernels.Add(dst, in)
	}
	// Allgather: circulate the fully reduced chunks.
	for s := 0; s < nw-1; s++ {
		in, dst := ac.step(p, vec, mod(ac.rank+1-s, nw), mod(ac.rank-s, nw))
		copy(dst, in)
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
