package multijob

import (
	"testing"
	"time"

	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// TestSingleJobPolicyEquivalence pins that every admission policy
// degenerates to the legacy FIFO path for a lone job: same final
// parameters bit-for-bit and the same virtual clock. A single job
// never waits, never preempts, and (even with a weight set) is never
// shaped, so the policies must be indistinguishable.
func TestSingleJobPolicyEquivalence(t *testing.T) {
	const nW, iters = 3, 2
	wl := ppoWorkload(t)
	floats := newPPOAgents(t, 1)[0].GradLen()

	run := func(name string, cfg FabricConfig, spec func(*JobSpec)) (time.Duration, []float32) {
		t.Helper()
		agents := newPPOAgents(t, nW)
		k := sim.NewKernel()
		f := NewStarFabric(k, nW, testLink(), cfg)
		js := JobSpec{
			Workload: wl, Workers: nW, Iterations: iters,
			ModelFloats: floats,
			NewAgent:    func(i int) rl.Agent { return agents[i] },
		}
		if spec != nil {
			spec(&js)
		}
		res, err := Run(f, []JobSpec{js})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res[0].Queued || res[0].Preemptions != 0 {
			t.Fatalf("%s: lone job queued=%v preemptions=%d", name, res[0].Queued, res[0].Preemptions)
		}
		params := make([]float32, floats)
		agents[0].ReadParams(params)
		return res[0].Sync.Total, params
	}

	baseClock, baseParams := run("fifo-default", FabricConfig{}, nil)
	cases := []struct {
		name string
		cfg  FabricConfig
		spec func(*JobSpec)
	}{
		{"fifo-explicit", FabricConfig{Admission: FIFO()}, nil},
		{"weighted-fair", FabricConfig{Admission: WeightedFair(0)}, nil},
		{"priority", FabricConfig{Admission: PriorityPreempt()}, nil},
		{"weighted-fair+weight", FabricConfig{Admission: WeightedFair(0)},
			func(js *JobSpec) { js.Weight = 2.5 }},
		{"priority+fields", FabricConfig{Admission: PriorityPreempt()},
			// RecoveryTimeout far above the run length: recovery armed
			// but never triggered, so the clock must not move.
			func(js *JobSpec) { js.Priority = 7; js.Preemptible = true; js.RecoveryTimeout = time.Hour }},
	}
	for _, tc := range cases {
		clock, params := run(tc.name, tc.cfg, tc.spec)
		if clock != baseClock {
			t.Fatalf("%s: virtual-clock divergence: %v, fifo %v", tc.name, clock, baseClock)
		}
		for i := range params {
			if params[i] != baseParams[i] {
				t.Fatalf("%s: param[%d] = %v, fifo %v", tc.name, i, params[i], baseParams[i])
			}
		}
	}
}
