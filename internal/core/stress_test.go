package core

import (
	"testing"
	"time"

	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// seededJitter returns a deterministic per-(worker,iter) compute-jitter
// function: an xorshift-mixed hash of the seed and indices mapped into
// [0, spread). Same seed ⇒ same schedule, so stress runs reproduce.
func seededJitter(seed uint64, spread sim.Time) func(worker, iter int) sim.Time {
	return func(worker, iter int) sim.Time {
		x := seed ^ uint64(worker)*0x9e3779b97f4a7c15 ^ uint64(iter)*0xbf58476d1ce4e5b9
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return sim.Time(x % uint64(spread))
	}
}

// Async iSwitch under randomized (seeded) compute jitter: the
// decentralized replicas must stay bitwise identical, the staleness
// bound must hold, and the whole run must be reproducible.
func TestAsyncISWJitterStress(t *testing.T) {
	const nWorkers, nFloats = 5, 800
	run := func(seed uint64) (*AsyncStats, []*intAgent) {
		k := sim.NewKernel()
		c := Build(k, starSpec(ModeISW, nWorkers, nFloats)).ISW
		agents := make([]rl.Agent, nWorkers)
		ints := make([]*intAgent, nWorkers)
		for i := range agents {
			ints[i] = newIntAgent(i, nFloats)
			agents[i] = ints[i]
		}
		cfg := AsyncConfig{Updates: 25, StalenessBound: 2,
			LocalCompute: 50 * time.Microsecond, WeightUpdate: 10 * time.Microsecond,
			ComputeJitter: seededJitter(seed, 500*time.Microsecond)}
		return RunAsyncISW(k, agents, c, cfg), ints
	}
	stats, ints := run(42)

	if stats.Committed == 0 {
		t.Fatal("no gradients committed under jitter")
	}
	if s := stats.MeanStaleness(); s > 2 {
		t.Fatalf("mean staleness %v exceeds bound", s)
	}
	// Jittered workers fall out of lockstep, yet the decentralized
	// replicas must never diverge: every LWU applies the same broadcast
	// sums in the same order.
	for w, a := range ints {
		if int64(len(a.applied)) != stats.Updates {
			t.Fatalf("worker %d applied %d updates, want %d", w, len(a.applied), stats.Updates)
		}
		for i := range a.params {
			if a.params[i] != ints[0].params[i] {
				t.Fatalf("worker %d param %d diverged under jitter", w, i)
			}
		}
	}
	// Same seed reproduces the run exactly; a different seed perturbs it.
	again, _ := run(42)
	if again.Total != stats.Total || again.Committed != stats.Committed ||
		again.StalenessSum != stats.StalenessSum {
		t.Fatalf("same seed not reproducible: %v/%d vs %v/%d",
			again.Total, again.Committed, stats.Total, stats.Committed)
	}
	other, _ := run(1337)
	if other.Total == stats.Total && other.StalenessSum == stats.StalenessSum {
		t.Fatal("different seed produced an identical run; jitter is not wired in")
	}
}

// Sharded async PS under seeded jitter: every shard must reach its
// update target, respect the staleness bound per shard, and keep the
// master weights consistent with the per-shard slice updates — all
// reproducibly.
func TestAsyncShardedPSJitterStress(t *testing.T) {
	const nWorkers, nFloats, shards = 4, 1500, 3
	run := func(seed uint64) (*AsyncStats, *intAgent) {
		k := sim.NewKernel()
		c := psStar(k, ModeAsyncPS, nWorkers, nFloats, shards)
		agents := make([]rl.Agent, nWorkers)
		for i := range agents {
			agents[i] = newIntAgent(i, nFloats)
		}
		master := newIntAgent(99, nFloats)
		cfg := AsyncConfig{Updates: 12, StalenessBound: 3,
			LocalCompute: 120 * time.Microsecond, WeightUpdate: 15 * time.Microsecond,
			ComputeJitter: seededJitter(seed, 400*time.Microsecond)}
		return RunAsyncPS(k, agents, master, c, cfg), master
	}
	stats, master := run(7)

	for s, ps := range stats.PerShard {
		if ps.Committed != stats.Updates {
			t.Fatalf("shard %d committed %d, want %d", s, ps.Committed, stats.Updates)
		}
		if ps.MaxStaleness > 3 {
			t.Fatalf("shard %d max staleness %d exceeds bound", s, ps.MaxStaleness)
		}
		if m := ps.MeanStaleness(); m > 3 {
			t.Fatalf("shard %d mean staleness %v exceeds bound", s, m)
		}
	}
	if m := stats.MeanStaleness(); m > 3 {
		t.Fatalf("global mean staleness %v exceeds bound", m)
	}
	// The master's weights must be exactly the fold of the applied slice
	// updates: replaying master.applied onto fresh params reproduces
	// master.params (no slice update leaked outside its shard, none was
	// lost, none was double-applied).
	replay := newIntAgent(99, nFloats)
	for _, vec := range master.applied {
		replay.ApplyAggregated(vec, 1)
	}
	for i := range replay.params {
		if replay.params[i] != master.params[i] {
			t.Fatalf("replayed weights diverge at %d: %v vs %v", i, replay.params[i], master.params[i])
		}
	}
	// Reproducibility under the same seed; sensitivity to the seed.
	again, _ := run(7)
	if again.Total != stats.Total || again.Committed != stats.Committed ||
		again.Discarded != stats.Discarded {
		t.Fatal("same seed not reproducible")
	}
	other, _ := run(8)
	if other.Total == stats.Total && other.StalenessSum == stats.StalenessSum {
		t.Fatal("different seed produced an identical run; jitter is not wired in")
	}
}
