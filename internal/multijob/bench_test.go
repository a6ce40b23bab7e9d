package multijob

import (
	"fmt"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/sim"
)

// Benchmarks for the multi-tenant scheduler: wall-clock cost of
// simulating J co-running jobs.

// benchSpecs builds J small jobs cycling the four paper workloads
// (model sizes scaled down so a bench sweep stays sub-second).
func benchSpecs(j int) []JobSpec {
	wls := perfmodel.Workloads()
	floats := []int{2000, 1600, 1000, 1300} // keeps the DQN>A2C>DDPG>PPO size ordering
	specs := make([]JobSpec, j)
	for i := range specs {
		wl := wls[i%len(wls)]
		specs[i] = JobSpec{
			Name: fmt.Sprintf("%s-%d", wl.Name, i), Workload: wl,
			Workers: 2, Iterations: 2,
			ModelFloats: floats[i%len(floats)],
		}
	}
	return specs
}

func runBenchSweep(tb testing.TB, j int) Summary {
	tb.Helper()
	k := sim.NewKernel()
	f := NewStarFabric(k, 2*j, testLink(), FabricConfig{})
	res, err := Run(f, benchSpecs(j))
	if err != nil {
		tb.Fatal(err)
	}
	return Summarize(res)
}

// benchAdversarialSummary runs the adversarial fairness scenario the
// regression gate holds: two racks of four on oversubscribed uplinks,
// three weighted wire-bound tenants, and an open-loop flood adversary
// sharing a rack with one of them, under weighted-fair admission with
// egress policing armed.
func benchAdversarialSummary(tb testing.TB) Summary {
	tb.Helper()
	wl := perfmodel.Workload{
		Name:         "wire",
		LocalCompute: 100 * time.Microsecond,
		WeightUpdate: 20 * time.Microsecond,
	}
	k := sim.NewKernel()
	uplink := netsim.TenGbE()
	uplink.BitsPerSecond = 2.5e9
	f := NewTreeFabric(k, 8, 4, netsim.TenGbE(), uplink,
		FabricConfig{Admission: WeightedFair(0)})
	specs := make([]JobSpec, 0, 4)
	for _, name := range []string{"a", "b", "c"} {
		specs = append(specs, JobSpec{
			Name: name, Workload: wl, Workers: 2,
			Iterations: 12, ModelFloats: 20000, Weight: 1,
		})
	}
	specs = append(specs, JobSpec{
		Name: "adv", Workload: wl, Workers: 2, ModelFloats: 20000, Weight: 1,
		Adversary: &AdversaryPlan{Duration: 10 * time.Millisecond},
	})
	res, err := Run(f, specs)
	if err != nil {
		tb.Fatal(err)
	}
	return Summarize(res)
}

// TestAdversarialFairnessRegression is the always-on ratio gate for the
// isolation headline: compliant tenants' Jain fairness under an active
// adversary must stay at or above 0.9. It runs on every `go test`, so a
// scheduler or policer regression fails CI directly.
func TestAdversarialFairnessRegression(t *testing.T) {
	sum := benchAdversarialSummary(t)
	if sum.CompliantFairness < 0.9 {
		t.Errorf("adversarial compliant Jain = %.3f, want >= 0.9", sum.CompliantFairness)
	}
	if sum.Ran != 4 {
		t.Errorf("ran %d of 4 jobs", sum.Ran)
	}
}

// BenchmarkMultiJobSweep measures the wall-clock cost of a full
// J-tenant simulated sweep (scheduler + fabric + training processes).
func BenchmarkMultiJobSweep(b *testing.B) {
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs-%d", j), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runBenchSweep(b, j)
			}
		})
	}
}
