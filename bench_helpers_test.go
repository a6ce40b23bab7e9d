package iswitch

import (
	"iswitch/internal/core"
	"iswitch/internal/perfmodel"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// benchSyncRound runs one synchronous in-switch aggregation round with
// full-size synthetic gradients for workload w on 4 workers.
func benchSyncRound(w perfmodel.Workload) *core.RunStats {
	k := sim.NewKernel()
	c := core.Build(k, core.ClusterSpec{Topology: core.TopoStar, Mode: core.ModeISW, Workers: 4, ModelFloats: w.Floats()})
	agents := make([]rl.Agent, 4)
	services := make([]core.Service, 4)
	for i := range agents {
		agents[i] = core.NewSyntheticAgent(w.Floats())
		services[i] = c.Client(i)
	}
	return core.RunSync(k, agents, services, core.SyncConfig{
		Iterations: 1, LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate})
}
