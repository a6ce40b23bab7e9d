package core

import (
	"testing"
	"time"

	"iswitch/internal/perfmodel"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// TestCalibrationSweep logs simulated vs paper per-iteration times for
// all four workloads under PS, AR, and iSwitch (4 workers).
func TestCalibrationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	for _, w := range perfmodel.Workloads() {
		run := func(mode Mode) time.Duration {
			k := sim.NewKernel()
			ps, ar := PSConfigFor(w), ARConfigFor(w)
			c := Build(k, ClusterSpec{Topology: TopoStar, Mode: mode, Workers: 4,
				ModelFloats: w.Floats(), PS: &ps, AR: &ar})
			agents := make([]rl.Agent, 4)
			services := make([]Service, 4)
			for i := range agents {
				agents[i], services[i] = NewSyntheticAgent(w.Floats()), c.Client(i)
			}
			stats := RunSync(k, agents, services, SyncConfig{Iterations: 3,
				LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate})
			return stats.MeanIter()
		}
		ps, ar, isw := run(ModePS), run(ModeAllReduce), run(ModeISW)
		t.Logf("%-5s PS %8.2fms (paper %6.2f)  AR %8.2fms (paper %6.2f)  iSW %8.2fms (paper %6.2f)",
			w.Name,
			float64(ps)/1e6, float64(w.PaperSyncPerIterPS)/1e6,
			float64(ar)/1e6, float64(w.PaperSyncPerIterAR)/1e6,
			float64(isw)/1e6, float64(w.PaperSyncPerIterISW)/1e6)
	}
}
