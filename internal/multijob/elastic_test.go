package multijob

import (
	"reflect"
	"testing"
	"time"

	"iswitch/internal/sim"
)

// TestElasticSinglePhaseMatchesStatic pins that a one-phase elastic
// plan is just a static job: same virtual clock, same rounds.
func TestElasticSinglePhaseMatchesStatic(t *testing.T) {
	const nW, floats, iters = 4, 800, 3
	wl := ppoWorkload(t)

	k1 := sim.NewKernel()
	f1 := NewTreeFabric(k1, nW, 2, testLink(), testLink(), FabricConfig{})
	ref, err := Run(f1, []JobSpec{{
		Workload: wl, Workers: nW, Iterations: iters, ModelFloats: floats,
	}})
	if err != nil {
		t.Fatal(err)
	}

	k2 := sim.NewKernel()
	f2 := NewTreeFabric(k2, nW, 2, testLink(), testLink(), FabricConfig{})
	res, err := Run(f2, []JobSpec{{
		Workload: wl, Workers: nW, ModelFloats: floats,
		Elastic: &ElasticPlan{Phases: []ElasticPhase{{Workers: nW, Iterations: iters}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Finished != ref[0].Finished {
		t.Fatalf("one-phase elastic clock %v, static %v", res[0].Finished, ref[0].Finished)
	}
	if res[0].Rounds != iters || res[0].GradBytes != ref[0].GradBytes {
		t.Fatalf("elastic accounting: rounds=%d grad=%d, static rounds=%d grad=%d",
			res[0].Rounds, res[0].GradBytes, ref[0].Rounds, ref[0].GradBytes)
	}
}

// TestElasticGrowShrink flexes a job across the rack boundary of a
// two-rack tree: 4 workers, down to 2 (emptying rack 1, whose ToR must
// be unwired from the root), back up to 4 (re-wired). Every phase must
// complete its iterations and the fabric must come out clean.
func TestElasticGrowShrink(t *testing.T) {
	const floats = 600
	wl := ppoWorkload(t)
	phases := []ElasticPhase{
		{Workers: 4, Iterations: 2},
		{Workers: 2, Iterations: 2}, // rack 1 empties: unregister its ToR
		{Workers: 3, Iterations: 1}, // rack 1 refills: re-register
	}
	k := sim.NewKernel()
	f := NewTreeFabric(k, 4, 2, testLink(), testLink(), FabricConfig{})
	res, err := Run(f, []JobSpec{{
		Name: "flex", Workload: wl, Workers: 4, ModelFloats: floats,
		Elastic: &ElasticPlan{Phases: phases},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Rounds != 5 {
		t.Fatalf("Rounds = %d, want 5 (2+2+1)", r.Rounds)
	}
	wantGrad := uint64(2*4+2*2+1*3) * floats * 4
	if r.GradBytes != wantGrad {
		t.Fatalf("GradBytes = %d, want %d", r.GradBytes, wantGrad)
	}
	if r.MeanRound <= 0 || r.Finished <= r.Started {
		t.Fatalf("degenerate timing: mean=%v started=%v finished=%v", r.MeanRound, r.Started, r.Finished)
	}
	for _, is := range f.Switches {
		if pool := is.SRAMPool(); pool != nil && (pool.Jobs() != 0 || pool.Used() != 0) {
			t.Fatalf("switch %v leaked SRAM after elastic run", is.Addr())
		}
		if mem := is.MembershipOf(r.Job); mem != nil {
			t.Fatalf("switch %v still holds job context after evict", is.Addr())
		}
	}
}

// TestElasticSharesFabric co-runs an elastic job with a static tenant:
// both finish their schedules, and the elastic job's Leave/Join churn
// never corrupts the neighbor (its rounds all complete).
func TestElasticSharesFabric(t *testing.T) {
	wl := ppoWorkload(t)
	k := sim.NewKernel()
	f := NewStarFabric(k, 6, testLink(), FabricConfig{})
	res, err := Run(f, []JobSpec{
		{Name: "flex", Workload: wl, Workers: 4, ModelFloats: 500,
			Elastic: &ElasticPlan{Phases: []ElasticPhase{
				{Workers: 4, Iterations: 2}, {Workers: 2, Iterations: 2},
			}}},
		{Name: "steady", Workload: wl, Workers: 2, Iterations: 4, ModelFloats: 700},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Rounds != 4 || res[1].Rounds != 4 {
		t.Fatalf("rounds: flex=%d steady=%d, want 4 and 4", res[0].Rounds, res[1].Rounds)
	}
}

// TestAutoscalePlanDeterministic pins the autoscale agent: the seeded
// walk reproduces exactly and respects its bounds; and an autoscaled
// job actually runs under the scheduler.
func TestAutoscalePlanDeterministic(t *testing.T) {
	a := AutoscalePlan(42, 6, 1, 4, 2)
	b := AutoscalePlan(42, 6, 1, 4, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if len(a.Phases) != 6 {
		t.Fatalf("phases = %d, want 6", len(a.Phases))
	}
	changed := false
	for i, ph := range a.Phases {
		if ph.Workers < 1 || ph.Workers > 4 || ph.Iterations != 2 {
			t.Fatalf("phase %d out of bounds: %+v", i, ph)
		}
		if i > 0 && ph.Workers != a.Phases[i-1].Workers {
			changed = true
		}
	}
	if !changed {
		t.Fatal("autoscale walk never flexed the worker count")
	}
	if reflect.DeepEqual(a, AutoscalePlan(43, 6, 1, 4, 2)) {
		t.Fatal("different seeds produced identical plans")
	}

	wl := ppoWorkload(t)
	k := sim.NewKernel()
	f := NewStarFabric(k, 4, testLink(), FabricConfig{})
	res, err := Run(f, []JobSpec{{
		Name: "autoscaled", Workload: wl, Workers: a.MaxWorkers(),
		ModelFloats: 400, Elastic: a,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Rounds != 12 {
		t.Fatalf("autoscaled rounds = %d, want 12", res[0].Rounds)
	}
}

// TestAdversarySmoke runs an adversarial tenant beside a compliant one
// with no shaping: both must terminate, the adversary must move real
// traffic and report no training rounds.
func TestAdversarySmoke(t *testing.T) {
	wl := ppoWorkload(t)
	k := sim.NewKernel()
	f := NewTreeFabric(k, 4, 2, testLink(), testLink(), FabricConfig{})
	res, err := Run(f, []JobSpec{
		{Name: "tenant", Workload: wl, Workers: 2, Iterations: 3, ModelFloats: 600},
		{Name: "adv", Workload: wl, Workers: 2, ModelFloats: 600,
			Adversary: &AdversaryPlan{Duration: 40 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tenant, adv := res[0], res[1]
	if !adv.Adversary || adv.Rounds != 0 || adv.Sync != nil {
		t.Fatalf("adversary result malformed: %+v", adv)
	}
	if adv.WireBytes == 0 {
		t.Fatal("adversary moved no traffic")
	}
	if adv.Finished < 40*time.Millisecond {
		t.Fatalf("adversary quit early at %v", adv.Finished)
	}
	if tenant.Rounds != 3 {
		t.Fatalf("compliant tenant rounds = %d, want 3", tenant.Rounds)
	}
	for _, is := range f.Switches {
		if pool := is.SRAMPool(); pool != nil && pool.Jobs() != 0 {
			t.Fatal("adversary run leaked SRAM contexts")
		}
	}
}
