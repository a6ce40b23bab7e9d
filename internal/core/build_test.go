package core

import (
	"testing"
	"time"

	"iswitch/internal/perfmodel"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// TestNoSpuriousHelpsAtZeroLoss pins the Help-timer calibration: with
// RecoveryTimeoutFor deriving the timeout from the performance model's
// expected round time, a clean (zero-loss, zero-fault) run must never
// time out into the Help path — on any topology. A miscalibrated timer
// shows up here as spurious Helps and blind retransmissions.
func TestNoSpuriousHelpsAtZeroLoss(t *testing.T) {
	const iters = 8
	nFloats := 3*protocolFloats + 5
	link := testLink()
	wl := perfmodel.Workload{
		ModelBytes:   nFloats * 4,
		LocalCompute: 500 * time.Microsecond,
		WeightUpdate: 100 * time.Microsecond,
	}
	for _, spec := range []ClusterSpec{
		{Topology: TopoStar, Workers: 8},
		{Topology: TopoTree, Workers: 8, PerRack: 4},
		{Topology: TopoFatTree, KAry: 4, HostsPerEdge: 1},
	} {
		t.Run(spec.Topology.String(), func(t *testing.T) {
			cfg := DefaultISWConfig()
			cfg.RecoveryTimeout = RecoveryTimeoutFor(wl, link)
			spec.Mode = ModeISW
			spec.ModelFloats = nFloats
			spec.Link = link
			spec.ISW = &cfg
			spec.Dedup = true
			k := sim.NewKernel()
			c := Build(k, spec).ISW
			n := len(c.Workers())

			agents := make([]rl.Agent, n)
			services := make([]Service, n)
			for i := range agents {
				agents[i] = newIntAgent(i, nFloats)
				services[i] = c.Client(i)
			}
			RunSync(k, agents, services, SyncConfig{Iterations: iters,
				LocalCompute: wl.LocalCompute, WeightUpdate: wl.WeightUpdate})
			if c.HelpsSent != 0 || c.Retransmits != 0 {
				t.Fatalf("clean run sent %d Helps and %d retransmits; RecoveryTimeoutFor is miscalibrated",
					c.HelpsSent, c.Retransmits)
			}
		})
	}
}
