package multijob

import (
	"strings"
	"testing"
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/core"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

func testLink() netsim.LinkConfig {
	return netsim.LinkConfig{BitsPerSecond: 10e9, Propagation: 2 * time.Microsecond}
}

// The positional shorthands the tests build fabrics with: NewFabric
// over the matching switchnet builder.
func NewStarFabric(k *sim.Kernel, nHosts int, link netsim.LinkConfig, cfg FabricConfig) *Fabric {
	return NewFabric(k, switchnet.BuildStar(k, nHosts, link), cfg)
}

func NewTreeFabric(k *sim.Kernel, nHosts, perRack int, edge, uplink netsim.LinkConfig, cfg FabricConfig) *Fabric {
	return NewFabric(k, switchnet.BuildTreeN(k, nHosts, perRack, edge, uplink), cfg)
}

func NewThreeTierFabric(k *sim.Kernel, nAGGs, torsPerAGG, hostsPerToR int, edge, aggLink, coreLink netsim.LinkConfig, cfg FabricConfig) *Fabric {
	return NewFabric(k, switchnet.BuildThreeTier(k, nAGGs, torsPerAGG, hostsPerToR, edge, aggLink, coreLink), cfg)
}

// refStar is the single-tenant reference the fabric runs are compared
// against: nW workers under one iSwitch over testLink.
func refStar(k *sim.Kernel, nW, floats int) *core.ISWCluster {
	return core.Build(k, core.ClusterSpec{Topology: core.TopoStar, Mode: core.ModeISW,
		Workers: nW, ModelFloats: floats, Link: testLink()}).ISW
}

func ppoWorkload(t *testing.T) perfmodel.Workload {
	t.Helper()
	wl, err := perfmodel.WorkloadByName("PPO")
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// newPPOAgents builds a deterministic worker set: fixed model seed (all
// replicas start identical), per-worker experience seeds.
func newPPOAgents(t *testing.T, n int) []rl.Agent {
	t.Helper()
	agents := make([]rl.Agent, n)
	for i := range agents {
		a, err := rl.NewWorkloadAgent("PPO", 42, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	return agents
}

// TestSingleJobEquivalenceStarSync pins the package's core claim: a
// fabric carrying exactly one job is bit- and clock-identical to the
// single-tenant path. Real seeded PPO agents run 3 synchronous
// iterations both ways; final parameters must match bit-for-bit and the
// virtual clock must agree exactly.
func TestSingleJobEquivalenceStarSync(t *testing.T) {
	const nW, iters = 3, 3
	wl := ppoWorkload(t)
	floats := newPPOAgents(t, 1)[0].GradLen()
	syncCfg := core.SyncConfig{
		Iterations: iters, LocalCompute: wl.LocalCompute, WeightUpdate: wl.WeightUpdate,
	}

	// Reference: the single-tenant star cluster.
	refAgents := newPPOAgents(t, nW)
	k1 := sim.NewKernel()
	cl := refStar(k1, nW, floats)
	svcs := make([]core.Service, nW)
	for i := range svcs {
		svcs[i] = cl.Client(i)
	}
	ref := core.RunSync(k1, refAgents, svcs, syncCfg)

	// Same training through the multi-tenant scheduler, one job.
	mjAgents := newPPOAgents(t, nW)
	k2 := sim.NewKernel()
	f := NewStarFabric(k2, nW, testLink(), FabricConfig{})
	res, err := Run(f, []JobSpec{{
		Workload: wl, Workers: nW, Iterations: iters,
		ModelFloats: floats,
		NewAgent:    func(i int) rl.Agent { return mjAgents[i] },
	}})
	if err != nil {
		t.Fatal(err)
	}
	job := res[0]
	if job.Rejected || job.Queued {
		t.Fatalf("lone job rejected=%v queued=%v", job.Rejected, job.Queued)
	}
	if job.Sync == nil {
		t.Fatal("sync stats missing")
	}
	if job.Sync.Total != ref.Total {
		t.Fatalf("virtual-clock divergence: multijob %v, single-tenant %v",
			job.Sync.Total, ref.Total)
	}
	if job.Started != 0 || job.Finished != ref.Total {
		t.Fatalf("Started=%v Finished=%v, want 0 and %v", job.Started, job.Finished, ref.Total)
	}
	want := make([]float32, floats)
	got := make([]float32, floats)
	for w := 0; w < nW; w++ {
		refAgents[w].ReadParams(want)
		mjAgents[w].ReadParams(got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("worker %d param[%d]: multijob %v, single-tenant %v",
					w, i, got[i], want[i])
			}
		}
	}
	if job.Rounds != iters {
		t.Fatalf("Rounds = %d, want %d", job.Rounds, iters)
	}
	if wantGrad := uint64(iters) * nW * uint64(floats) * 4; job.GradBytes != wantGrad {
		t.Fatalf("GradBytes = %d, want %d", job.GradBytes, wantGrad)
	}
	if job.WireBytes == 0 {
		t.Fatal("job-tagged wire accounting recorded nothing")
	}
}

// TestSingleJobEquivalenceStarAsync pins the same claim for the
// asynchronous LGC/LWU pipeline (timing-only synthetic agents).
func TestSingleJobEquivalenceStarAsync(t *testing.T) {
	const nW, floats = 3, 800
	const updates, bound = 5, 2
	wl := ppoWorkload(t)
	acfg := core.AsyncConfig{
		Updates: updates, StalenessBound: bound,
		LocalCompute: wl.LocalCompute, WeightUpdate: wl.WeightUpdate,
	}

	k1 := sim.NewKernel()
	cl := refStar(k1, nW, floats)
	refAgents := make([]rl.Agent, nW)
	for i := range refAgents {
		refAgents[i] = core.NewSyntheticAgent(floats)
	}
	ref := core.RunAsyncISW(k1, refAgents, cl, acfg)

	k2 := sim.NewKernel()
	f := NewStarFabric(k2, nW, testLink(), FabricConfig{})
	res, err := Run(f, []JobSpec{{
		Workload: wl, Workers: nW,
		Updates: updates, StalenessBound: bound, ModelFloats: floats,
	}})
	if err != nil {
		t.Fatal(err)
	}
	job := res[0]
	if job.Async == nil {
		t.Fatal("async stats missing")
	}
	if job.Async.Total != ref.Total {
		t.Fatalf("async virtual-clock divergence: multijob %v, single-tenant %v",
			job.Async.Total, ref.Total)
	}
	if job.Async.Committed != ref.Committed || job.Async.Discarded != ref.Discarded {
		t.Fatalf("staleness accounting diverged: %d/%d vs %d/%d",
			job.Async.Committed, job.Async.Discarded, ref.Committed, ref.Discarded)
	}
}

// TestSingleJobEquivalenceTreeSync extends the equivalence pin to the
// two-level rack hierarchy.
func TestSingleJobEquivalenceTreeSync(t *testing.T) {
	const nRacks, perRack, floats, iters = 2, 2, 900, 2
	nW := nRacks * perRack
	wl := ppoWorkload(t)
	syncCfg := core.SyncConfig{
		Iterations: iters, LocalCompute: wl.LocalCompute, WeightUpdate: wl.WeightUpdate,
	}
	edge, uplink := testLink(), netsim.LinkConfig{BitsPerSecond: 32e9, Propagation: 4 * time.Microsecond}

	k1 := sim.NewKernel()
	cl := core.Build(k1, core.ClusterSpec{Topology: core.TopoTree, Mode: core.ModeISW, Workers: nRacks * perRack,
		PerRack: perRack, ModelFloats: floats, Link: edge, Uplink: uplink}).ISW
	refAgents := make([]rl.Agent, nW)
	svcs := make([]core.Service, nW)
	for i := range refAgents {
		refAgents[i] = core.NewSyntheticAgent(floats)
		svcs[i] = cl.Client(i)
	}
	ref := core.RunSync(k1, refAgents, svcs, syncCfg)

	k2 := sim.NewKernel()
	f := NewTreeFabric(k2, nW, perRack, edge, uplink, FabricConfig{})
	res, err := Run(f, []JobSpec{{
		Workload: wl, Workers: nW, Iterations: iters, ModelFloats: floats,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Sync.Total != ref.Total {
		t.Fatalf("tree virtual-clock divergence: multijob %v, single-tenant %v",
			res[0].Sync.Total, ref.Total)
	}
}

// TestAdmissionQueueing pins FIFO admission: with SRAM for only one
// tenant, the second job waits for the first to finish and release its
// context, then runs to completion.
func TestAdmissionQueueing(t *testing.T) {
	const floats, iters = 1000, 2
	wl := ppoWorkload(t)
	demand := accel.ContextDemand(floats, protocol.FloatsPerPacket)

	k := sim.NewKernel()
	f := NewStarFabric(k, 4, testLink(), FabricConfig{
		SRAMBytes: demand + demand/2, // one context fits, two do not
		Policy:    accel.PartitionDemand,
	})
	spec := JobSpec{Workload: wl, Workers: 2, Iterations: iters, ModelFloats: floats}
	a, b := spec, spec
	a.Name, b.Name = "first", "second"
	res, err := Run(f, []JobSpec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Queued {
		t.Fatal("first job should start immediately")
	}
	if !res[1].Queued {
		t.Fatal("second job should have been queued behind the first")
	}
	if res[0].Started != 0 {
		t.Fatalf("first job Started = %v, want 0", res[0].Started)
	}
	if res[1].Started < res[0].Finished {
		t.Fatalf("second job started at %v, before the first finished at %v",
			res[1].Started, res[0].Finished)
	}
	for i, r := range res {
		if r.Rounds != iters || r.Finished == 0 {
			t.Fatalf("job %d incomplete: rounds=%d finished=%v", i, r.Rounds, r.Finished)
		}
	}
	if rej := f.Switches[0].SRAMPool().Rejections; rej == 0 {
		t.Fatal("queued admission should have registered SRAM pressure")
	}
}

// TestStaticPartitionQueueing pins the static policy's slot count: two
// slots, three jobs — the third waits for a slot to free.
func TestStaticPartitionQueueing(t *testing.T) {
	const floats, iters = 500, 2
	wl := ppoWorkload(t)
	k := sim.NewKernel()
	f := NewStarFabric(k, 6, testLink(), FabricConfig{
		SRAMBytes: 1 << 20, Policy: accel.PartitionStatic, MaxJobs: 2,
	})
	spec := JobSpec{Workload: wl, Workers: 2, Iterations: iters, ModelFloats: floats}
	res, err := Run(f, []JobSpec{spec, spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Queued || res[1].Queued {
		t.Fatal("two static slots should admit the first two jobs immediately")
	}
	if !res[2].Queued {
		t.Fatal("third job should have waited for a static slot")
	}
	firstDone := res[0].Finished
	if res[1].Finished < firstDone {
		firstDone = res[1].Finished
	}
	if res[2].Started < firstDone {
		t.Fatalf("third job started at %v before any slot freed at %v",
			res[2].Started, firstDone)
	}
	for i, r := range res {
		if r.Rounds != iters {
			t.Fatalf("job %d rounds = %d, want %d", i, r.Rounds, iters)
		}
	}
}

// TestNegativeStalenessRejected: an async job whose staleness bound is
// negative would discard every gradient and never finish; Run must
// reject the spec up front. A hang fails the test, not the suite.
func TestNegativeStalenessRejected(t *testing.T) {
	wl := ppoWorkload(t)
	f := NewStarFabric(sim.NewKernel(), 2, testLink(), FabricConfig{})
	done := make(chan error, 1)
	go func() {
		_, err := Run(f, []JobSpec{{Workload: wl, Workers: 2,
			Updates: 5, StalenessBound: -1, ModelFloats: 400}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "StalenessBound") {
			t.Fatalf("Run returned %v, want a StalenessBound rejection", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hangs on a negative staleness bound")
	}
}

// TestSpecLengthMatchesMode: the length a spec sets is its discipline,
// so a spec that sets both lengths is refused with Job.Validate's
// reason instead of running one of them (a sync spec with Updates used
// to run synchronously), and the deprecated Mode field, which would say
// it a second time, is refused unless left unset.
func TestSpecLengthMatchesMode(t *testing.T) {
	wl := ppoWorkload(t)
	for _, tc := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Workload: wl, Workers: 2, Iterations: 2, Updates: 5, ModelFloats: 400}, "exactly one of Iterations"},
		{JobSpec{Workload: wl, Workers: 2, Iterations: 2, Updates: 5, StalenessBound: 1, ModelFloats: 400}, "exactly one of Iterations"},
		{JobSpec{Workload: wl, Workers: 2, Mode: ModeAsync, Updates: 5, StalenessBound: 1, ModelFloats: 400}, "set Updates"},
	} {
		f := NewStarFabric(sim.NewKernel(), 2, testLink(), FabricConfig{})
		_, err := Run(f, []JobSpec{tc.spec})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v spec with Iterations %d, Updates %d: Run returned %v, want %q",
				tc.spec.Mode, tc.spec.Iterations, tc.spec.Updates, err, tc.want)
		}
	}
}

// TestInfeasibleJobRejected pins outright rejection: a job whose demand
// exceeds switch capacity is rejected (not queued — it would head-block
// the FIFO forever) and consumes no hosts; later jobs still run.
func TestInfeasibleJobRejected(t *testing.T) {
	wl := ppoWorkload(t)
	smallDemand := accel.ContextDemand(500, protocol.FloatsPerPacket)
	k := sim.NewKernel()
	f := NewStarFabric(k, 2, testLink(), FabricConfig{
		SRAMBytes: smallDemand + smallDemand/2, Policy: accel.PartitionDemand,
	})
	res, err := Run(f, []JobSpec{
		{Name: "huge", Workload: wl, Workers: 2, Iterations: 1, ModelFloats: 100_000},
		{Name: "small", Workload: wl, Workers: 2, Iterations: 1, ModelFloats: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Rejected {
		t.Fatal("over-capacity job should have been rejected")
	}
	if res[0].Started != 0 || res[0].Finished != 0 || res[0].Sync != nil {
		t.Fatal("rejected job should not have run")
	}
	// The fabric has exactly 2 hosts: the small job only fits if the
	// rejected job consumed none.
	if res[1].Rejected || res[1].Rounds != 1 {
		t.Fatalf("small job should have run: %+v", res[1])
	}
}

// TestMixedModeJobs co-runs two synchronous jobs and one asynchronous
// job on one star fabric and checks cross-job accounting: every job
// completes its own schedule, per-job wire bytes are disjointly
// metered, and Jain fairness over them is well-formed.
func TestMixedModeJobs(t *testing.T) {
	wl := ppoWorkload(t)
	k := sim.NewKernel()
	f := NewStarFabric(k, 6, testLink(), FabricConfig{})
	res, err := Run(f, []JobSpec{
		{Name: "sync-a", Workload: wl, Workers: 2, Iterations: 3, ModelFloats: 700},
		{Name: "async-b", Workload: wl, Workers: 2, Updates: 4, StalenessBound: 2, ModelFloats: 500},
		{Name: "sync-c", Workload: wl, Workers: 2, Iterations: 2, ModelFloats: 900},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Sync == nil || res[1].Async == nil || res[2].Sync == nil {
		t.Fatal("mode-specific stats missing")
	}
	if res[0].Mode != ModeSync || res[1].Mode != ModeAsync || res[2].Mode != ModeSync {
		t.Fatalf("modes %v %v %v, want the lengths' sync async sync", res[0].Mode, res[1].Mode, res[2].Mode)
	}
	wantRounds := []int64{3, 4, 2}
	for i, r := range res {
		if r.Queued || r.Rejected {
			t.Fatalf("job %d should have been admitted immediately", i)
		}
		if r.Rounds != wantRounds[i] {
			t.Fatalf("job %d rounds = %d, want %d", i, r.Rounds, wantRounds[i])
		}
		if r.WireBytes == 0 {
			t.Fatalf("job %d moved no metered bytes", i)
		}
	}
	// Bigger models move more bytes per round; check the ledger ranks
	// jobs by gradient volume, not arrival order.
	vol := func(r *JobResult) uint64 { return r.GradBytes }
	if (vol(res[0]) > vol(res[2])) != (res[0].WireBytes > res[2].WireBytes) {
		t.Fatalf("wire ledger disagrees with gradient volume: grad %d vs %d, wire %d vs %d",
			vol(res[0]), vol(res[2]), res[0].WireBytes, res[2].WireBytes)
	}

	sum := Summarize(res)
	if sum.Jobs != 3 || sum.Ran != 3 || sum.Rejected != 0 || sum.Queued != 0 {
		t.Fatalf("summary counts wrong: %+v", sum)
	}
	if sum.Fairness <= 0 || sum.Fairness > 1 {
		t.Fatalf("fairness out of range: %v", sum.Fairness)
	}
	maxFin := res[0].Finished
	for _, r := range res[1:] {
		if r.Finished > maxFin {
			maxFin = r.Finished
		}
	}
	if sum.Makespan != maxFin {
		t.Fatalf("makespan %v, want %v", sum.Makespan, maxFin)
	}
	if sum.AggThroughputBps <= 0 {
		t.Fatal("aggregate throughput should be positive")
	}
}

// TestThreeTierSingleJobMatchesUntenantedFabric pins that arming
// tenancy (SRAM pool + shared bus) on the full three-tier hierarchy
// costs a lone job nothing: same virtual-clock total as the same
// cluster without pools.
func TestThreeTierSingleJobMatchesUntenantedFabric(t *testing.T) {
	const floats, iters = 600, 2
	wl := ppoWorkload(t)
	syncCfg := core.SyncConfig{
		Iterations: iters, LocalCompute: wl.LocalCompute, WeightUpdate: wl.WeightUpdate,
	}
	edge := testLink()
	aggL := netsim.LinkConfig{BitsPerSecond: 32e9, Propagation: 4 * time.Microsecond}
	coreL := netsim.LinkConfig{BitsPerSecond: 64e9, Propagation: 6 * time.Microsecond}

	// Reference: untenanted fabric (no pools, no bus), default job 0.
	k1 := sim.NewKernel()
	ref := NewThreeTierFabric(k1, 2, 2, 2, edge, aggL, coreL, FabricConfig{})
	for _, is := range ref.Switches { // strip tenancy again: plain hierarchy
		is.SetTenancy(nil, nil)
	}
	nW := len(ref.Hosts)
	refAgents := make([]rl.Agent, nW)
	svcs := make([]core.Service, nW)
	refCl := core.NewISWOnFabric(ref.Hosts, ref.target, floats, nW, core.DefaultISWConfig())
	for i := range refAgents {
		refAgents[i] = core.NewSyntheticAgent(floats)
		svcs[i] = refCl.Client(i)
	}
	refStats := core.RunSync(k1, refAgents, svcs, syncCfg)

	k2 := sim.NewKernel()
	f := NewThreeTierFabric(k2, 2, 2, 2, edge, aggL, coreL, FabricConfig{})
	res, err := Run(f, []JobSpec{{
		Workload: wl, Workers: nW, Iterations: iters, ModelFloats: floats,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Sync.Total != refStats.Total {
		t.Fatalf("three-tier virtual-clock divergence: multijob %v, untenanted %v",
			res[0].Sync.Total, refStats.Total)
	}
	// The job crossed every tier: its context must have been reserved
	// and released on ToR, AGG and core switches alike.
	for _, is := range f.Switches {
		if got := is.SRAMPool().Jobs(); got != 0 {
			t.Fatalf("switch %v still holds %d job contexts after the run", is.Addr(), got)
		}
	}
}

// TestFabricHostExhaustion pins the allocation error path.
func TestFabricHostExhaustion(t *testing.T) {
	wl := ppoWorkload(t)
	k := sim.NewKernel()
	f := NewStarFabric(k, 2, testLink(), FabricConfig{})
	_, err := Run(f, []JobSpec{
		{Workload: wl, Workers: 2, Iterations: 1, ModelFloats: 100},
		{Workload: wl, Workers: 1, Iterations: 1, ModelFloats: 100},
	})
	if err == nil {
		t.Fatal("want host-exhaustion error")
	}
}

// TestFabricFromSpec pins the declarative entry point: a fabric built
// from a core.ClusterSpec runs a two-tenant mix clock-identically to
// one built by the matching legacy constructor, and malformed specs
// are rejected rather than panicking downstream.
func TestFabricFromSpec(t *testing.T) {
	wl := ppoWorkload(t)
	specs := []JobSpec{
		{Name: "j0", Workload: wl, Workers: 2, Iterations: 2, ModelFloats: 400},
		{Name: "j1", Workload: wl, Workers: 2, Iterations: 2, ModelFloats: 300},
	}
	run := func(f *Fabric) Summary {
		res, err := Run(f, specs)
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(res)
	}

	k1 := sim.NewKernel()
	want := run(NewTreeFabric(k1, 4, 2, testLink(), testLink(), FabricConfig{}))

	k2 := sim.NewKernel()
	f, err := NewFabricFromSpec(k2, core.ClusterSpec{
		Topology: core.TopoTree, Workers: 4, PerRack: 2,
		Link: testLink(),
	}, FabricConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := run(f); got != want {
		t.Fatalf("spec-built fabric diverged:\n got %+v\nwant %+v", got, want)
	}

	// PerRack 0 means one rack here as it does in core.Build.
	if f, err := NewFabricFromSpec(sim.NewKernel(), core.ClusterSpec{
		Topology: core.TopoTree, Workers: 4}, FabricConfig{}); err != nil || len(f.Switches) != 2 {
		t.Errorf("tree with PerRack 0: want one ToR under the root, got %v, %v", f, err)
	}

	for _, bad := range []core.ClusterSpec{
		{Topology: core.TopoStar},                              // missing Workers
		{Topology: core.TopoTree, Workers: 4, PerRack: -1},     // negative rack width
		{Topology: core.TopoThreeTier, AGGs: 2},                // missing tiers
		{Topology: core.TopoFatTree, KAry: 4},                  // HostsPerEdge: 0
		{Topology: core.TopoFatTree, KAry: 3, HostsPerEdge: 1}, // odd KAry (BuildFatTree would panic)
		{Topology: core.TopoFatTree, HostsPerEdge: 1},          // KAry: 0
		{Topology: core.Topology(99), Workers: 2},              // unknown shape
	} {
		if _, err := NewFabricFromSpec(sim.NewKernel(), bad, FabricConfig{}); err == nil {
			t.Errorf("spec %+v: want error", bad)
		}
	}
}
