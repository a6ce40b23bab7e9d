package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// goldenAgent is intAgent with fractional gradients: float32 sums of
// sevenths depend on summation order and do not survive fp16 rounding,
// so the goldens move if arrival order, shard splicing or the rounding
// points change.
type goldenAgent struct{ intAgent }

func (a *goldenAgent) ComputeGradient(dst []float32) {
	a.intAgent.ComputeGradient(dst)
	for i := range dst {
		dst[i] /= 7
	}
}

// psGolden is one parameter-server run recorded from the single-host
// implementation (S=1) and the sharded one (S>1) before the two were
// merged. Times are virtual nanoseconds: worker 0's UpdateEnd per
// iteration (sync) or the first server's per committed update (async).
// The merged code must reproduce every field exactly.
type psGolden struct {
	topo     Topology
	scheme   protocol.Compression
	shards   int
	async    bool
	iters    []int64
	total    int64
	commit   int64
	discard  int64
	staleSum int64
	hash     uint64 // FNV-1a over every aggregate applied (worker 0 / master), then final params
}

var psGoldens = []psGolden{
	{topo: TopoStar, scheme: protocol.CompNone, shards: 1, async: false,
		iters: []int64{8364078, 18717646, 29071214},
		total: 31658856, hash: 0xcde4427717b7ad3f},
	{topo: TopoStar, scheme: protocol.CompFP16, shards: 1, async: false,
		iters: []int64{8351070, 18704638, 29058206},
		total: 31645848, hash: 0xbd3bea608a1951a},
	{topo: TopoTree, scheme: protocol.CompNone, shards: 1, async: false,
		iters: []int64{8350906, 18704474, 29058042},
		total: 31645684, hash: 0xcde4427717b7ad3f},
	{topo: TopoTree, scheme: protocol.CompFP16, shards: 1, async: false,
		iters: []int64{8344656, 18698224, 29051792},
		total: 31639434, hash: 0xbd3bea608a1951a},
	{topo: TopoStar, scheme: protocol.CompNone, shards: 2, async: false,
		iters: []int64{8339336, 18676520, 29013704},
		total: 31597616, hash: 0xcde4427717b7ad3f},
	{topo: TopoStar, scheme: protocol.CompNone, shards: 4, async: false,
		iters: []int64{8326968, 18655964, 28984960},
		total: 31567008, hash: 0xcde4427717b7ad3f},
	{topo: TopoStar, scheme: protocol.CompNone, shards: 1, async: true,
		iters: []int64{3237688, 4542688, 5847688, 7152688, 8457688, 9762688, 11067688, 12372688},
		total: 12372688, commit: 8, discard: 0, staleSum: 7, hash: 0x42c0a8d945ecbda3},
	{topo: TopoStar, scheme: protocol.CompFP16, shards: 1, async: true,
		iters: []int64{3234700, 4539700, 5844700, 7149700, 8454700, 9759700, 11064700, 12369700},
		total: 12369700, commit: 8, discard: 0, staleSum: 7, hash: 0xd7657a56d1835779},
	{topo: TopoTree, scheme: protocol.CompNone, shards: 1, async: true,
		iters: []int64{3241739, 4546739, 5851739, 7156739, 8461739, 9766739, 11071739, 12376739},
		total: 12376739, commit: 8, discard: 0, staleSum: 7, hash: 0x2a4dfe15498d9d16},
	{topo: TopoTree, scheme: protocol.CompFP16, shards: 1, async: true,
		iters: []int64{3239089, 4544089, 5849089, 7154089, 8459089, 9764089, 11069089, 12374089},
		total: 12374089, commit: 8, discard: 0, staleSum: 7, hash: 0x8135430a39e12844},
	{topo: TopoStar, scheme: protocol.CompNone, shards: 2, async: true,
		iters: []int64{1933843, 2594323, 3254803, 3915283, 4575763, 5236243, 5896723, 6557203},
		total: 6645760, commit: 16, discard: 0, staleSum: 14, hash: 0xaaf63bea29aaf1a3},
	{topo: TopoStar, scheme: protocol.CompNone, shards: 4, async: true,
		iters: []int64{1298309, 1644029, 1989749, 2335469, 2681189, 3026909, 3372629, 4064069},
		total: 4067091, commit: 32, discard: 3, staleSum: 28, hash: 0x37433a6838b7f540},
}

func hashApplied(a *intAgent) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v []float32) {
		for _, x := range v {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	for _, v := range a.applied {
		put(v)
	}
	put(a.params)
	return h.Sum64()
}

// runPSGolden replays g's configuration (4 workers, 1500 floats: five
// segments, the last one partial) and returns what it measured.
func runPSGolden(g psGolden) psGolden {
	const nWorkers, nFloats = 4, 1500
	k := sim.NewKernel()
	spec := ClusterSpec{Topology: g.topo, Mode: ModePS, Workers: nWorkers, PerRack: 3,
		ModelFloats: nFloats, Shards: g.shards, Compression: g.scheme,
		Link: testLink(), Uplink: netsim.FortyGbE()}
	if g.async {
		spec.Mode = ModeAsyncPS
	}
	c := Build(k, spec)
	agents := make([]rl.Agent, nWorkers)
	golds := make([]*goldenAgent, nWorkers)
	for i := range agents {
		golds[i] = &goldenAgent{*newIntAgent(i, nFloats)}
		agents[i] = golds[i]
	}
	out := psGolden{topo: g.topo, scheme: g.scheme, shards: g.shards, async: g.async}
	if !g.async {
		services := make([]Service, nWorkers)
		for i := range services {
			services[i] = c.Client(i)
		}
		stats := RunSync(k, agents, services, fastTiming(3))
		for _, it := range stats.Workers[0].Iters {
			out.iters = append(out.iters, int64(it.UpdateEnd))
		}
		out.total = int64(stats.Total)
		out.hash = hashApplied(&golds[0].intAgent)
		return out
	}
	master := &goldenAgent{*newIntAgent(99, nFloats)}
	stats := RunAsyncPS(k, agents, master, c.PS, AsyncConfig{Updates: 8, StalenessBound: 1,
		LocalCompute: 120 * time.Microsecond, WeightUpdate: 15 * time.Microsecond})
	for _, it := range stats.Workers[nWorkers].Iters {
		out.iters = append(out.iters, int64(it.UpdateEnd))
	}
	out.total, out.commit, out.discard, out.staleSum = int64(stats.Total), stats.Committed, stats.Discarded, stats.StalenessSum
	out.hash = hashApplied(&master.intAgent)
	return out
}

// TestPSGoldens holds the merged parameter server to the values and the
// virtual clock of the two implementations it replaced: sync and async,
// star and tree, raw and fp16 at one shard, and 2 and 4 shards on the
// star.
func TestPSGoldens(t *testing.T) {
	for _, g := range psGoldens {
		name := fmt.Sprintf("%v/%v/S=%d/async=%v", g.topo, g.scheme, g.shards, g.async)
		t.Run(name, func(t *testing.T) {
			if got := runPSGolden(g); !reflect.DeepEqual(got, g) {
				t.Fatalf("got  %+v\nwant %+v", got, g)
			}
		})
	}
}
