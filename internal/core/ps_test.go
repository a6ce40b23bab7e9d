package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
	"iswitch/internal/tensor/kernels"
)

// The shard partition must cover the vector exactly: contiguous,
// gap-free, segment-aligned, every shard non-empty.
func TestShardPartitionCoversVector(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{1, 1}, {100, 2}, {366, 4}, {367, 2}, {1000, 3}, {5000, 8},
		{366 * 7, 7}, {366*7 + 1, 7}, {50, 9} /* clamps to 1 segment */, {1_602_500, 16},
	} {
		k := sim.NewKernel()
		c := psStar(k, ModeAsyncPS, 2, tc.n, tc.shards)
		prevHi := 0
		for s, sh := range c.shards {
			lo, hi := sh.lo, sh.hi
			if lo != prevHi {
				t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", tc.n, tc.shards, s, lo, prevHi)
			}
			if hi <= lo {
				t.Fatalf("n=%d shards=%d: shard %d empty [%d,%d)", tc.n, tc.shards, s, lo, hi)
			}
			if lo%protocol.FloatsPerPacket != 0 {
				t.Fatalf("n=%d shards=%d: shard %d not segment-aligned (lo=%d)", tc.n, tc.shards, s, lo)
			}
			prevHi = hi
		}
		if prevHi != tc.n {
			t.Fatalf("n=%d shards=%d: covered %d", tc.n, tc.shards, prevHi)
		}
	}
}

// Synchronous aggregation must equal the direct element-wise sum at any
// shard count, including models whose length does not divide into whole
// packets, and at a worker count whose addresses reach 10.0.0.10 (the
// single server's former address, which worker 4 shares on a star).
func TestShardedPSMatchesDirectSum(t *testing.T) {
	for _, tc := range []struct{ workers, shards int }{{3, 1}, {3, 2}, {3, 3}, {3, 5}, {6, 1}} {
		nWorkers, shards := tc.workers, tc.shards
		const nFloats, iters = 1500, 2
		k := sim.NewKernel()
		c := psStar(k, ModePS, nWorkers, nFloats, shards)
		agents := make([]rl.Agent, nWorkers)
		ints := make([]*intAgent, nWorkers)
		services := make([]Service, nWorkers)
		for i := range agents {
			ints[i] = newIntAgent(i, nFloats)
			agents[i] = ints[i]
			services[i] = c.Client(i)
		}
		RunSync(k, agents, services, fastTiming(iters))
		checkDirectSums(t, fmt.Sprintf("shards=%d", shards), ints, iters)
	}
}

// checkDirectSums fails t unless each agent's it-th applied aggregate,
// for every it < iters, is the element-wise sum of the it-th gradients
// of fresh agents with the same ids.
func checkDirectSums(t *testing.T, label string, ints []*intAgent, iters int) {
	t.Helper()
	n := ints[0].n
	ref := make([]*intAgent, len(ints))
	for i, a := range ints {
		ref[i] = newIntAgent(a.id, n)
	}
	g := make([]float32, n)
	for it := 0; it < iters; it++ {
		want := make([]float32, n)
		for _, a := range ref {
			a.ComputeGradient(g)
			kernels.Add(want, g)
		}
		for w, a := range ints {
			if len(a.applied) != iters {
				t.Fatalf("%s worker %d applied %d", label, w, len(a.applied))
			}
			for i := range want {
				if a.applied[it][i] != want[i] {
					t.Fatalf("%s iter %d worker %d elem %d: got %v want %v",
						label, it, w, i, a.applied[it][i], want[i])
				}
			}
		}
	}
}

// Sharding must shorten the synchronous aggregation phase: the central
// link splits across S server NICs and the summation parallelizes.
func TestShardedPSSyncAggDecreases(t *testing.T) {
	const nWorkers, nFloats = 4, 400_000
	agg := func(shards int) time.Duration {
		k := sim.NewKernel()
		c := psStar(k, ModePS, nWorkers, nFloats, shards)
		agents := make([]rl.Agent, nWorkers)
		services := make([]Service, nWorkers)
		for i := range agents {
			agents[i] = NewSyntheticAgent(nFloats)
			services[i] = c.Client(i)
		}
		return RunSync(k, agents, services, fastTiming(2)).MeanAgg()
	}
	prev := agg(1)
	for _, s := range []int{2, 4, 8} {
		cur := agg(s)
		if cur >= prev {
			t.Fatalf("sync agg not decreasing: S=%d %v vs previous %v", s, cur, prev)
		}
		prev = cur
	}
}

// The async sharded PS applies exactly Updates updates per shard and
// accounts commits/discards per shard, with the global counters being
// the per-shard sums.
func TestAsyncShardedPSAppliesPerShardUpdates(t *testing.T) {
	const nWorkers, nFloats, shards = 3, 1200, 3
	k := sim.NewKernel()
	c := psStar(k, ModeAsyncPS, nWorkers, nFloats, shards)
	agents := make([]rl.Agent, nWorkers)
	for i := range agents {
		agents[i] = newIntAgent(i, nFloats)
	}
	master := newIntAgent(99, nFloats)
	cfg := AsyncConfig{Updates: 10, StalenessBound: 3,
		LocalCompute: 50 * time.Microsecond, WeightUpdate: 10 * time.Microsecond}
	stats := RunAsyncPS(k, agents, master, c, cfg)

	if len(stats.PerShard) != shards {
		t.Fatalf("PerShard has %d entries, want %d", len(stats.PerShard), shards)
	}
	var commit, discard, stale int64
	for s, ps := range stats.PerShard {
		if ps.Committed != cfg.Updates {
			t.Fatalf("shard %d committed %d, want %d", s, ps.Committed, cfg.Updates)
		}
		if ps.MaxStaleness > cfg.StalenessBound {
			t.Fatalf("shard %d max staleness %d exceeds bound %d", s, ps.MaxStaleness, cfg.StalenessBound)
		}
		server := stats.Workers[nWorkers+s]
		if int64(len(server.Iters)) != cfg.Updates {
			t.Fatalf("shard %d iter records %d", s, len(server.Iters))
		}
		commit += ps.Committed
		discard += ps.Discarded
		stale += ps.StalenessSum
	}
	if commit != stats.Committed || discard != stats.Discarded || stale != stats.StalenessSum {
		t.Fatalf("per-shard sums %d/%d/%d != global %d/%d/%d",
			commit, discard, stale, stats.Committed, stats.Discarded, stats.StalenessSum)
	}
	// S shard updates each touching 1/S of the model == Updates
	// full-model-equivalent updates.
	if int64(len(master.applied)) != int64(shards)*cfg.Updates {
		t.Fatalf("master applied %d slices, want %d", len(master.applied), int64(shards)*cfg.Updates)
	}
	if stats.MeanStaleness() > float64(cfg.StalenessBound) {
		t.Fatalf("mean staleness %v exceeds bound", stats.MeanStaleness())
	}
}

// An accepted shard update must touch only that shard's slice of the
// master weights (the apply path zero-pads outside the shard).
func TestAsyncShardedPSUpdatesAreSliceLocal(t *testing.T) {
	const nWorkers, nFloats, shards = 2, 1100, 3
	k := sim.NewKernel()
	c := psStar(k, ModeAsyncPS, nWorkers, nFloats, shards)
	agents := make([]rl.Agent, nWorkers)
	for i := range agents {
		agents[i] = newIntAgent(i, nFloats)
	}
	master := newIntAgent(99, nFloats)
	cfg := AsyncConfig{Updates: 4, StalenessBound: 2,
		LocalCompute: 50 * time.Microsecond, WeightUpdate: 10 * time.Microsecond}
	RunAsyncPS(k, agents, master, c, cfg)

	bounds := make([][2]int, shards)
	for s := 0; s < shards; s++ {
		bounds[s] = [2]int{c.shards[s].lo, c.shards[s].hi}
	}
	for u, vec := range master.applied {
		// Each applied vector must be non-zero inside exactly one shard.
		touched := -1
		for s, b := range bounds {
			nz := false
			for i := b[0]; i < b[1]; i++ {
				if vec[i] != 0 {
					nz = true
					break
				}
			}
			if nz {
				if touched >= 0 {
					t.Fatalf("update %d touches shards %d and %d", u, touched, s)
				}
				touched = s
			}
		}
		if touched < 0 {
			t.Fatalf("update %d touches no shard", u)
		}
	}
}

// scratchAgent records the backing-array pointer of every aggregate it
// is handed, to pin the zero-copy Aggregate contract.
type scratchAgent struct {
	intAgent
	ptrs []*float32
}

func (a *scratchAgent) ApplyAggregated(sum []float32, h int) {
	a.ptrs = append(a.ptrs, &sum[0])
	a.intAgent.ApplyAggregated(sum, h)
}

// psClient.Aggregate and arClient.Aggregate must return a reusable
// client buffer instead of a fresh per-round copy (the alloc-regression
// guard). The ring alternates two working vectors, so its round r
// reuses round r-2's.
func TestPSAggregateReusesScratchBuffer(t *testing.T) {
	for _, tc := range []struct {
		mode         Mode
		shards, bufs int
	}{{ModePS, 1, 1}, {ModePS, 2, 1}, {ModeAllReduce, 1, 2}} {
		const nWorkers, nFloats, iters = 2, 2000, 4
		k := sim.NewKernel()
		agents := make([]rl.Agent, nWorkers)
		scratch := make([]*scratchAgent, nWorkers)
		services := make([]Service, nWorkers)
		spec := starSpec(tc.mode, nWorkers, nFloats)
		spec.Shards = tc.shards
		c := Build(k, spec)
		for i := range agents {
			scratch[i] = &scratchAgent{intAgent: *newIntAgent(i, nFloats)}
			agents[i] = scratch[i]
			services[i] = c.Client(i)
		}
		RunSync(k, agents, services, fastTiming(iters))
		for w, a := range scratch {
			if len(a.ptrs) != iters {
				t.Fatalf("%v S=%d worker %d saw %d aggregates", tc.mode, tc.shards, w, len(a.ptrs))
			}
			for it := tc.bufs; it < iters; it++ {
				if a.ptrs[it] != a.ptrs[it-tc.bufs] {
					t.Fatalf("%v S=%d worker %d: aggregate buffer reallocated at iter %d", tc.mode, tc.shards, w, it)
				}
			}
		}
	}
}

// A ring worker with no compute between rounds starts the next round
// while its last chunk may still be crossing a slower link to its
// successor; that chunk must still carry the old round's values.
func TestARBackToBackRoundsExact(t *testing.T) {
	const nWorkers, nFloats, iters = 6, 3000, 4
	k := sim.NewKernel()
	c := Build(k, ClusterSpec{Topology: TopoTree, Mode: ModeAllReduce, Workers: nWorkers, PerRack: 3,
		ModelFloats: nFloats, Link: netsim.FortyGbE(), Uplink: netsim.TenGbE(),
		AR: &ARConfig{SumRate: 1e12, CopyRate: 1e15, Tensors: 1}})
	agents := make([]rl.Agent, nWorkers)
	ints := make([]*intAgent, nWorkers)
	services := make([]Service, nWorkers)
	for i := range agents {
		ints[i] = newIntAgent(i, nFloats)
		agents[i] = ints[i]
		services[i] = c.Client(i)
	}
	RunSync(k, agents, services, SyncConfig{Iterations: iters})
	checkDirectSums(t, "back-to-back", ints, iters)
}

// BenchmarkPSAggregateRoundPPO tracks the per-round allocation profile
// of the PS sync datapath (PPO-sized model). The zero-copy Aggregate
// fix removed the last per-round whole-vector allocation; a regression
// shows up here as allocs/op growing by a gradient-sized copy per
// worker per round.
func BenchmarkPSAggregateRoundPPO(b *testing.B) {
	n := perfmodel.Workloads()[2].Floats() // PPO, 10005 floats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		c := Build(k, ClusterSpec{Topology: TopoStar, Mode: ModePS, Workers: 4, ModelFloats: n}).PS
		agents := make([]rl.Agent, 4)
		services := make([]Service, 4)
		for j := range agents {
			agents[j] = NewSyntheticAgent(n)
			services[j] = c.Client(j)
		}
		RunSync(k, agents, services, fastTiming(4))
	}
}

// lender is a protocol.BufferOwner that counts the payloads handed back.
type lender struct{ back int }

func (l *lender) Recycle([]float32) { l.back++ }
func (l *lender) RecycleQ([]int32)  { l.back++ }

// misroute delivers, at each of the given times, one data frame per
// segment of the model that a shard does not own straight into that
// shard's server (segments below and above its range), from worker 0's
// address. It returns the number of frames it will deliver.
func misroute(k *sim.Kernel, c *PSCluster, owner *lender, at ...time.Duration) int {
	segs := protocol.SegmentCount(c.n)
	sent := 0
	for _, d := range at {
		for _, sh := range c.shards {
			for seg := 0; seg < segs; seg++ {
				lo, hi := protocol.SegmentRange(c.n, uint64(seg))
				if lo >= sh.lo && hi <= sh.hi {
					continue // the shard's own segment
				}
				pkt := protocol.NewData(c.workers[0].Addr, sh.srv.Addr, uint64(seg), nil)
				junk := make([]float32, protocol.FloatsPerPacket)
				for i := range junk {
					junk[i] = 1e6
				}
				pkt.LendData(junk, owner)
				srv := sh.srv
				k.After(d, func() { srv.Deliver(pkt, nil) })
				sent++
			}
		}
	}
	return sent
}

// A shard drops data frames whose global segment lies outside its range
// (the shard-local index wraps out of range), under the sync and the
// async policy alike: the run completes as if they had never arrived,
// and every such frame is released.
func TestShardDropsForeignSegments(t *testing.T) {
	const nWorkers, nFloats, shards = 3, 1500, 2
	at := []time.Duration{0, 40 * time.Microsecond, 200 * time.Microsecond}

	t.Run("sync", func(t *testing.T) {
		const iters = 3
		k := sim.NewKernel()
		c := psStar(k, ModePS, nWorkers, nFloats, shards)
		owner := &lender{}
		sent := misroute(k, c, owner, at...)
		ints := make([]*intAgent, nWorkers)
		agents := make([]rl.Agent, nWorkers)
		services := make([]Service, nWorkers)
		for i := range agents {
			ints[i] = newIntAgent(i, nFloats)
			agents[i] = ints[i]
			services[i] = c.Client(i)
		}
		if end := RunSync(k, agents, services, fastTiming(iters)).Total; end < at[len(at)-1] {
			t.Fatalf("run ended at %v, before the last injection", end)
		}
		checkDirectSums(t, "misrouted", ints, iters)
		if owner.back != sent {
			t.Fatalf("%d of %d foreign frames released", owner.back, sent)
		}
	})

	t.Run("async", func(t *testing.T) {
		cfg := AsyncConfig{Updates: 6, StalenessBound: 2,
			LocalCompute: 50 * time.Microsecond, WeightUpdate: 10 * time.Microsecond}
		run := func(inject bool) (*AsyncStats, *intAgent, int, *lender) {
			k := sim.NewKernel()
			c := psStar(k, ModeAsyncPS, nWorkers, nFloats, shards)
			owner := &lender{}
			sent := 0
			if inject {
				sent = misroute(k, c, owner, at...)
			}
			agents := make([]rl.Agent, nWorkers)
			for i := range agents {
				agents[i] = newIntAgent(i, nFloats)
			}
			master := newIntAgent(99, nFloats)
			return RunAsyncPS(k, agents, master, c, cfg), master, sent, owner
		}
		want, wantMaster, _, _ := run(false)
		got, master, sent, owner := run(true)
		if got.Total < at[len(at)-1] {
			t.Fatalf("run ended at %v, before the last injection", got.Total)
		}
		if got.Total != want.Total || got.ShardStats != want.ShardStats {
			t.Fatalf("injected run %v %+v, clean run %v %+v", got.Total, got.ShardStats, want.Total, want.ShardStats)
		}
		if !reflect.DeepEqual(master.applied, wantMaster.applied) {
			t.Fatal("the master applied different updates once foreign frames arrived")
		}
		if owner.back != sent {
			t.Fatalf("%d of %d foreign frames released", owner.back, sent)
		}
	})
}
