package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// intAgent produces deterministic integer-valued gradients (exact in
// float32 regardless of summation order) and records what was applied.
type intAgent struct {
	id      int
	n       int
	iter    int
	applied [][]float32
	params  []float32
}

func newIntAgent(id, n int) *intAgent {
	return &intAgent{id: id, n: n, params: make([]float32, n)}
}

func (a *intAgent) Name() string { return "int" }
func (a *intAgent) GradLen() int { return a.n }
func (a *intAgent) ComputeGradient(dst []float32) {
	a.iter++
	for i := range dst {
		dst[i] = float32((a.id + 1) * (a.iter + i%7) % 50)
	}
}
func (a *intAgent) ApplyAggregated(sum []float32, h int) {
	a.applied = append(a.applied, append([]float32(nil), sum...))
	for i := range a.params {
		a.params[i] -= sum[i] / float32(h) * 0.01
	}
}
func (a *intAgent) ReadParams(dst []float32)  { copy(dst, a.params) }
func (a *intAgent) WriteParams(src []float32) { copy(a.params, src) }
func (a *intAgent) DrainEpisodes() []float64  { return nil }

func testLink() netsim.LinkConfig {
	return netsim.LinkConfig{BitsPerSecond: 10e9, Propagation: 500 * time.Nanosecond,
		PerPacketOverhead: 300 * time.Nanosecond}
}

// starSpec is the spec most tests start from: nWorkers on one switch
// over testLink, the mode's default config.
func starSpec(mode Mode, nWorkers, nFloats int) ClusterSpec {
	return ClusterSpec{Topology: TopoStar, Mode: mode, Workers: nWorkers, ModelFloats: nFloats, Link: testLink()}
}

// psStar builds starSpec's parameter-server cluster over shards hosts.
func psStar(k *sim.Kernel, nWorkers, nFloats, shards int) *PSCluster {
	spec := starSpec(ModePS, nWorkers, nFloats)
	spec.Shards = shards
	return Build(k, spec).PS
}

// treeSpec is the in-switch rack hierarchy: nRacks full racks of
// perRack workers, 40 GbE uplinks.
func treeSpec(nRacks, perRack, nFloats int) ClusterSpec {
	return ClusterSpec{Topology: TopoTree, Mode: ModeISW, Workers: nRacks * perRack, PerRack: perRack,
		ModelFloats: nFloats, Link: testLink(), Uplink: netsim.FortyGbE()}
}

// fastTiming keeps unit-test runs quick.
func fastTiming(iters int) SyncConfig {
	return SyncConfig{Iterations: iters,
		LocalCompute: 50 * time.Microsecond, WeightUpdate: 10 * time.Microsecond}
}

// runStrategy trains integer agents for iters rounds under the named
// strategy and returns the applied aggregate history of worker 0 plus
// the run stats.
func runStrategy(t *testing.T, strategy string, nWorkers, nFloats, iters int) ([][]float32, *RunStats) {
	return runStrategyTimed(t, strategy, nWorkers, nFloats, fastTiming(iters))
}

func runStrategyTimed(t *testing.T, strategy string, nWorkers, nFloats int, cfg SyncConfig) ([][]float32, *RunStats) {
	t.Helper()
	k := sim.NewKernel()
	agents := make([]rl.Agent, nWorkers)
	ints := make([]*intAgent, nWorkers)
	for i := range agents {
		ints[i] = newIntAgent(i, nFloats)
		agents[i] = ints[i]
	}
	var services []Service
	switch strategy {
	case "PS":
		c := Build(k, starSpec(ModePS, nWorkers, nFloats)).PS
		for i := range agents {
			services = append(services, c.Client(i))
		}
	case "AR":
		c := Build(k, starSpec(ModeAllReduce, nWorkers, nFloats)).AR
		for i := range agents {
			services = append(services, c.Client(i))
		}
	case "ISW":
		c := Build(k, starSpec(ModeISW, nWorkers, nFloats)).ISW
		for i := range agents {
			services = append(services, c.Client(i))
		}
	default:
		t.Fatalf("unknown strategy %s", strategy)
	}
	stats := RunSync(k, agents, services, cfg)
	return ints[0].applied, stats
}

// All three aggregation strategies must deliver identical sums: the
// paper's premise that PS, AllReduce, and in-switch aggregation are
// mathematically equivalent for synchronous training.
func TestStrategiesAggregateIdentically(t *testing.T) {
	const nWorkers, nFloats, iters = 4, 1000, 3
	ps, _ := runStrategy(t, "PS", nWorkers, nFloats, iters)
	ar, _ := runStrategy(t, "AR", nWorkers, nFloats, iters)
	isw, _ := runStrategy(t, "ISW", nWorkers, nFloats, iters)
	if len(ps) != iters || len(ar) != iters || len(isw) != iters {
		t.Fatalf("iterations: ps=%d ar=%d isw=%d", len(ps), len(ar), len(isw))
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < nFloats; i++ {
			if ps[it][i] != ar[it][i] || ps[it][i] != isw[it][i] {
				t.Fatalf("iter %d elem %d: ps=%v ar=%v isw=%v",
					it, i, ps[it][i], ar[it][i], isw[it][i])
			}
		}
	}
}

// The aggregated value must equal the element-wise sum of the workers'
// gradients as computed directly.
func TestAggregateMatchesDirectSum(t *testing.T) {
	const nWorkers, nFloats = 3, 500
	ref := make([]*intAgent, nWorkers)
	for i := range ref {
		ref[i] = newIntAgent(i, nFloats)
	}
	want := make([]float32, nFloats)
	g := make([]float32, nFloats)
	for _, a := range ref {
		a.ComputeGradient(g)
		for i := range want {
			want[i] += g[i]
		}
	}
	got, _ := runStrategy(t, "ISW", nWorkers, nFloats, 1)
	for i := range want {
		if got[0][i] != want[i] {
			t.Fatalf("elem %d: got %v want %v", i, got[0][i], want[i])
		}
	}
}

func TestSyncTimingOrderingLargeModel(t *testing.T) {
	// DQN-sized gradients: iSW must beat AR must beat PS (Figure 12).
	n := perfmodel.Workloads()[0].Floats() // DQN 1.6M floats
	_, ps := runStrategy(t, "PS", 4, n, 2)
	_, ar := runStrategy(t, "AR", 4, n, 2)
	_, isw := runStrategy(t, "ISW", 4, n, 2)
	t.Logf("DQN-sized agg: PS=%v AR=%v iSW=%v", ps.MeanAgg(), ar.MeanAgg(), isw.MeanAgg())
	if !(isw.MeanAgg() < ar.MeanAgg() && ar.MeanAgg() < ps.MeanAgg()) {
		t.Fatalf("ordering violated: PS=%v AR=%v iSW=%v", ps.MeanAgg(), ar.MeanAgg(), isw.MeanAgg())
	}
}

func TestSyncTimingOrderingSmallModel(t *testing.T) {
	// PPO-sized gradients at PPO's real compute cadence: AR loses to PS
	// (too many per-step overheads), iSW still wins — the paper's
	// crossover. Realistic compute time matters: with back-to-back
	// rounds the PS server queues and the ordering blurs.
	n := 10005 // PPO 40.02KB
	cfg := SyncConfig{Iterations: 2,
		LocalCompute: 8500 * time.Microsecond, WeightUpdate: 300 * time.Microsecond}
	_, ps := runStrategyTimed(t, "PS", 4, n, cfg)
	_, ar := runStrategyTimed(t, "AR", 4, n, cfg)
	_, isw := runStrategyTimed(t, "ISW", 4, n, cfg)
	t.Logf("PPO-sized iter: PS=%v AR=%v iSW=%v", ps.MeanIter(), ar.MeanIter(), isw.MeanIter())
	if !(isw.MeanIter() < ps.MeanIter() && ps.MeanIter() < ar.MeanIter()) {
		t.Fatalf("crossover violated: PS=%v AR=%v iSW=%v", ps.MeanIter(), ar.MeanIter(), isw.MeanIter())
	}
}

func TestIterRecordPhases(t *testing.T) {
	_, stats := runStrategy(t, "ISW", 2, 100, 3)
	for _, w := range stats.Workers {
		if len(w.Iters) != 3 {
			t.Fatalf("iters = %d", len(w.Iters))
		}
		for _, it := range w.Iters {
			if it.Compute() != 50*time.Microsecond {
				t.Fatalf("compute = %v", it.Compute())
			}
			if it.Update() != 10*time.Microsecond {
				t.Fatalf("update = %v", it.Update())
			}
			if it.Agg() <= 0 || it.Total() <= 0 {
				t.Fatalf("bad record %+v", it)
			}
		}
	}
	if stats.MeanIter() <= 0 || stats.Total <= 0 {
		t.Fatal("empty aggregate stats")
	}
}

func TestHierarchicalISWAggregates(t *testing.T) {
	const nRacks, perRack, nFloats = 2, 3, 800
	k := sim.NewKernel()
	c := Build(k, treeSpec(nRacks, perRack, nFloats)).ISW
	nWorkers := nRacks * perRack
	agents := make([]rl.Agent, nWorkers)
	ints := make([]*intAgent, nWorkers)
	var services []Service
	for i := range agents {
		ints[i] = newIntAgent(i, nFloats)
		agents[i] = ints[i]
		services = append(services, c.Client(i))
	}
	RunSync(k, agents, services, fastTiming(2))

	// Reference: direct sum across all six workers.
	refAgents := make([]*intAgent, nWorkers)
	for i := range refAgents {
		refAgents[i] = newIntAgent(i, nFloats)
	}
	g := make([]float32, nFloats)
	for it := 0; it < 2; it++ {
		want := make([]float32, nFloats)
		for _, a := range refAgents {
			a.ComputeGradient(g)
			for i := range want {
				want[i] += g[i]
			}
		}
		for w, a := range ints {
			for i := range want {
				if a.applied[it][i] != want[i] {
					t.Fatalf("iter %d worker %d elem %d: got %v want %v",
						it, w, i, a.applied[it][i], want[i])
				}
			}
		}
	}
}

func TestAsyncISWRespectsStalenessAndConverges(t *testing.T) {
	const nWorkers, nFloats = 4, 400
	k := sim.NewKernel()
	c := Build(k, starSpec(ModeISW, nWorkers, nFloats)).ISW
	agents := make([]rl.Agent, nWorkers)
	ints := make([]*intAgent, nWorkers)
	for i := range agents {
		ints[i] = newIntAgent(i, nFloats)
		agents[i] = ints[i]
	}
	cfg := AsyncConfig{Updates: 20, StalenessBound: 3,
		LocalCompute: 50 * time.Microsecond, WeightUpdate: 10 * time.Microsecond}
	stats := RunAsyncISW(k, agents, c, cfg)

	if stats.Committed == 0 {
		t.Fatal("no gradients committed")
	}
	if s := stats.MeanStaleness(); s > float64(cfg.StalenessBound) {
		t.Fatalf("mean staleness %v exceeds bound %d", s, cfg.StalenessBound)
	}
	// Every worker's LWU applied the same number of updates and the
	// replicas agree exactly (decentralized weight storage, §4.1).
	for w, a := range ints {
		if int64(len(a.applied)) != cfg.Updates {
			t.Fatalf("worker %d applied %d updates, want %d", w, len(a.applied), cfg.Updates)
		}
		for i := range a.params {
			if a.params[i] != ints[0].params[i] {
				t.Fatalf("worker %d param %d diverged", w, i)
			}
		}
	}
	// Update sequences must be identical across workers.
	for w := 1; w < nWorkers; w++ {
		for u := range ints[0].applied {
			for i := range ints[0].applied[u] {
				if ints[w].applied[u][i] != ints[0].applied[u][i] {
					t.Fatalf("worker %d update %d differs", w, u)
				}
			}
		}
	}
	if stats.MeanIter() <= 0 {
		t.Fatal("no iteration timing recorded")
	}
}

func TestAsyncPSAppliesUpdates(t *testing.T) {
	const nWorkers, nFloats = 3, 300
	k := sim.NewKernel()
	c := Build(k, starSpec(ModePS, nWorkers, nFloats)).PS
	agents := make([]rl.Agent, nWorkers)
	for i := range agents {
		agents[i] = newIntAgent(i, nFloats)
	}
	master := newIntAgent(99, nFloats)
	cfg := AsyncConfig{Updates: 15, StalenessBound: 3,
		LocalCompute: 50 * time.Microsecond, WeightUpdate: 10 * time.Microsecond}
	stats := RunAsyncPS(k, agents, master, c, cfg)

	if int64(len(master.applied)) != cfg.Updates {
		t.Fatalf("server applied %d, want %d", len(master.applied), cfg.Updates)
	}
	if stats.Committed != cfg.Updates {
		t.Fatalf("committed %d, want %d", stats.Committed, cfg.Updates)
	}
	server := stats.Workers[nWorkers]
	if int64(len(server.Iters)) != cfg.Updates {
		t.Fatalf("server iter records %d", len(server.Iters))
	}
	if stats.MeanIter() <= 0 {
		t.Fatal("per-iteration time not measured")
	}
}

func TestAsyncStalenessBoundZeroDiscardsStale(t *testing.T) {
	// With S=0 and slow compute relative to update rate, some gradients
	// must be discarded once multiple workers race.
	const nWorkers, nFloats = 4, 200
	k := sim.NewKernel()
	c := Build(k, starSpec(ModeISW, nWorkers, nFloats)).ISW
	agents := make([]rl.Agent, nWorkers)
	for i := range agents {
		agents[i] = newIntAgent(i, nFloats)
	}
	cfg := AsyncConfig{Updates: 10, StalenessBound: 0,
		LocalCompute: 500 * time.Microsecond, WeightUpdate: 10 * time.Microsecond}
	stats := RunAsyncISW(k, agents, c, cfg)
	if stats.MeanStaleness() != 0 {
		t.Fatalf("S=0 but mean staleness %v", stats.MeanStaleness())
	}
	t.Logf("S=0: committed=%d discarded=%d", stats.Committed, stats.Discarded)
}

// panicsWithin runs f and returns what it panicked with. A hang past d
// or a normal return fails the test: a wedged run must not wedge the
// suite.
func panicsWithin(t *testing.T, d time.Duration, f func()) string {
	t.Helper()
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		f()
	}()
	select {
	case v := <-got:
		if v == nil {
			t.Fatal("returned normally, want a panic")
		}
		return fmt.Sprint(v)
	case <-time.After(d):
		t.Fatalf("no panic within %v: the run hangs", d)
		return ""
	}
}

// A negative staleness bound discards every gradient, so no update is
// ever applied: both async designs must refuse it instead of computing
// forever in virtual time. RunAsyncPS must also refuse more agents than
// the cluster has workers.
func TestAsyncRejectsBadInputs(t *testing.T) {
	const nWorkers, nFloats = 2, 200
	cfg := AsyncConfig{Updates: 5, StalenessBound: -1,
		LocalCompute: 50 * time.Microsecond, WeightUpdate: 10 * time.Microsecond}
	agents := func(n int) []rl.Agent {
		a := make([]rl.Agent, n)
		for i := range a {
			a[i] = newIntAgent(i, nFloats)
		}
		return a
	}
	runPS := func(n int, cfg AsyncConfig) func() {
		return func() {
			k := sim.NewKernel()
			RunAsyncPS(k, agents(n), newIntAgent(99, nFloats), Build(k, starSpec(ModePS, nWorkers, nFloats)).PS, cfg)
		}
	}
	for name, f := range map[string]func(){
		"ps": runPS(nWorkers, cfg),
		"isw": func() {
			k := sim.NewKernel()
			RunAsyncISW(k, agents(nWorkers), Build(k, starSpec(ModeISW, nWorkers, nFloats)).ISW, cfg)
		},
	} {
		if msg := panicsWithin(t, 10*time.Second, f); !strings.Contains(msg, "staleness bound -1") {
			t.Fatalf("%s: panic %q does not name the bound", name, msg)
		}
	}
	cfg.StalenessBound = 3
	if msg := panicsWithin(t, 10*time.Second, runPS(nWorkers+1, cfg)); !strings.Contains(msg, "agents/cluster size mismatch") {
		t.Fatalf("ps with %d agents: panic %q", nWorkers+1, msg)
	}
}

// Functional end-to-end: real A2C agents training CartPole through the
// simulated iSwitch still learn (sync).
func TestFunctionalSyncTrainingLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("learning test")
	}
	const nWorkers = 4
	k := sim.NewKernel()
	agents := make([]rl.Agent, nWorkers)
	for i := range agents {
		a, err := rl.NewWorkloadAgent(rl.WorkloadA2C, 42, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	c := Build(k, starSpec(ModeISW, nWorkers, agents[0].GradLen())).ISW
	var services []Service
	for i := range agents {
		services = append(services, c.Client(i))
	}
	stats := RunSync(k, agents, services, SyncConfig{Iterations: 3000,
		LocalCompute: 9900 * time.Microsecond, WeightUpdate: 1500 * time.Microsecond})

	rewards := stats.AllRewards()
	if len(rewards) < 50 {
		t.Fatalf("only %d episodes", len(rewards))
	}
	k5 := len(rewards) / 5
	var early, late float64
	for _, r := range rewards[:k5] {
		early += r.Reward
	}
	for _, r := range rewards[len(rewards)-k5:] {
		late += r.Reward
	}
	early /= float64(k5)
	late /= float64(k5)
	t.Logf("sync iSW A2C: early %.1f late %.1f total %v", early, late, stats.Total)
	if late < early+40 {
		t.Fatalf("distributed training did not learn: early %.1f late %.1f", early, late)
	}
}

func TestRunStatsHelpers(t *testing.T) {
	s := &RunStats{Workers: []*WorkerStats{{
		Iters:   []IterRecord{{Start: 0, ComputeEnd: 10, AggEnd: 30, UpdateEnd: 35}},
		Rewards: []RewardPoint{{Time: 20, Reward: 5}, {Time: 10, Reward: 3}},
	}}}
	if s.MeanIter() != 35 || s.MeanAgg() != 20 {
		t.Fatalf("means %v %v", s.MeanIter(), s.MeanAgg())
	}
	all := s.AllRewards()
	if all[0].Time != 10 || all[1].Time != 20 {
		t.Fatalf("rewards not sorted: %v", all)
	}
	var empty RunStats
	if empty.MeanIter() != 0 || empty.MeanAgg() != 0 {
		t.Fatal("empty stats nonzero")
	}
}

func TestSyntheticAgent(t *testing.T) {
	a := NewSyntheticAgent(100)
	g := make([]float32, 100)
	a.ComputeGradient(g)
	if g[0] != 1e-3 || g[99] != 1e-3 {
		t.Fatalf("fill = %v", g[0])
	}
	if a.GradLen() != 100 || a.Name() != "synthetic" {
		t.Fatal("metadata wrong")
	}
	if a.DrainEpisodes() != nil {
		t.Fatal("synthetic agent has episodes")
	}
}

func TestChunkRangeCoversVector(t *testing.T) {
	for _, tc := range []struct{ n, nw int }{{10, 3}, {1000, 4}, {7, 7}, {5, 2}} {
		covered := 0
		prevHi := 0
		for ci := 0; ci < tc.nw; ci++ {
			lo, hi := chunkRange(tc.n, tc.nw, ci)
			if lo != prevHi {
				t.Fatalf("n=%d nw=%d chunk %d: gap at %d", tc.n, tc.nw, ci, lo)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d nw=%d covered %d", tc.n, tc.nw, covered)
		}
	}
}

// The measured per-iteration time for the calibrated DQN workload under
// sync PS should land near the paper's 81.6 ms (the one fitted number —
// this guards the calibration itself).
func TestCalibrationAnchorsDQNSyncPS(t *testing.T) {
	w := perfmodel.Workloads()[0]
	k := sim.NewKernel()
	c := Build(k, ClusterSpec{Topology: TopoStar, Mode: ModePS, Workers: 4, ModelFloats: w.Floats()}).PS
	agents := make([]rl.Agent, 4)
	var services []Service
	for i := range agents {
		agents[i] = NewSyntheticAgent(w.Floats())
		services = append(services, c.Client(i))
	}
	stats := RunSync(k, agents, services, SyncConfig{Iterations: 3,
		LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate})
	got := stats.MeanIter()
	want := w.PaperSyncPerIterPS
	ratio := float64(got) / float64(want)
	t.Logf("DQN sync PS per-iteration: simulated %v vs paper %v (ratio %.2f)", got, want, ratio)
	if math.Abs(ratio-1) > 0.35 {
		t.Fatalf("calibration drifted: simulated %v vs paper %v", got, want)
	}
}

func TestServiceInterfacesExposed(t *testing.T) {
	k := sim.NewKernel()
	c := Build(k, starSpec(ModeISW, 2, 100)).ISW
	if c.Fabric.IS == nil || len(c.Switches()) != 1 {
		t.Fatal("star switch not exposed")
	}
	if got := c.Client(0).H(); got != 2 {
		t.Fatalf("H = %d", got)
	}
	tree := Build(k, treeSpec(2, 3, 100)).ISW
	if len(tree.Switches()) != 3 || len(tree.Workers()) != 6 {
		t.Fatal("tree cluster malformed")
	}
	if got := tree.Client(5).H(); got != 6 {
		t.Fatalf("tree H = %d", got)
	}
}

func BenchmarkSyncISWRoundDQN(b *testing.B) {
	// One full DQN-sized aggregation round through the simulated switch.
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		n := perfmodel.Workloads()[0].Floats()
		c := Build(k, ClusterSpec{Topology: TopoStar, Mode: ModeISW, Workers: 4, ModelFloats: n}).ISW
		agents := make([]rl.Agent, 4)
		var services []Service
		for j := range agents {
			agents[j] = NewSyntheticAgent(n)
			services = append(services, c.Client(j))
		}
		RunSync(k, agents, services, SyncConfig{Iterations: 1,
			LocalCompute: time.Millisecond, WeightUpdate: time.Millisecond})
	}
}

var _ = fmt.Sprintf // placeholder to keep fmt when benchmarks change
