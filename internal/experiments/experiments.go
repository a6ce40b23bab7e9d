// Package experiments regenerates every table and figure of the
// paper's evaluation (§5–6). Each generator returns a Result whose text
// has the same rows/series the paper reports, produced by running the
// packet-level simulation (timing), the real RL stack (convergence), or
// both. DESIGN.md §4 maps each experiment to the modules involved.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment identifier (e.g. "table4", "figure12").
	ID string
	// Title matches the paper's caption.
	Title string
	// Text is the formatted reproduction output.
	Text string
}

// String renders the result with a header.
func (r Result) String() string {
	return fmt.Sprintf("=== %s: %s ===\n%s", strings.ToUpper(r.ID), r.Title, r.Text)
}

// Strategy names used across experiments.
const (
	StratPS  = "PS"
	StratAR  = "AR"
	StratISW = "iSW"
)

// SyncStrategies lists the synchronous comparison set in paper order.
func SyncStrategies() []string { return []string{StratPS, StratAR, StratISW} }

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/1e6) }

// hours converts an iteration count × per-iteration time to hours.
func hours(iters int64, perIter time.Duration) float64 {
	return float64(iters) * perIter.Seconds() / 3600
}

// strategySpec maps a comparison strategy and rack shape onto a
// ClusterSpec: perRack <= 0 selects the flat single-switch testbed,
// otherwise the two-level rack topology; async picks the asynchronous
// flavor of the parameter server.
func strategySpec(w perfmodel.Workload, strategy string, nWorkers, perRack int, async bool) core.ClusterSpec {
	spec := core.ClusterSpec{
		Topology:    core.TopoStar,
		Workers:     nWorkers,
		ModelFloats: w.Floats(),
		Link:        netsim.TenGbE(),
		Uplink:      netsim.FortyGbE(),
	}
	if perRack > 0 {
		spec.Topology = core.TopoTree
		spec.PerRack = perRack
	}
	switch strategy {
	case StratPS:
		spec.Mode = core.ModePS
		if async {
			spec.Mode = core.ModeAsyncPS
		}
		cfg := core.PSConfigFor(w)
		spec.PS = &cfg
	case StratAR:
		spec.Mode = core.ModeAllReduce
		cfg := core.ARConfigFor(w)
		spec.AR = &cfg
	case StratISW:
		spec.Mode = core.ModeISW
		cfg := core.ISWConfigFor(w)
		spec.ISW = &cfg
	default:
		panic("experiments: unknown strategy " + strategy)
	}
	return spec
}

// simSync runs a synchronous timing simulation: nWorkers synthetic
// agents carrying workload w's exact model size, under the given
// strategy, measuring per-iteration time. perRack <= 0 selects the flat
// single-switch testbed; otherwise the two-level rack topology.
func simSync(w perfmodel.Workload, strategy string, nWorkers, perRack, iters int) *core.RunStats {
	return simSyncSpec(w, strategySpec(w, strategy, nWorkers, perRack, false), iters)
}

// simSyncSpec is simSync for any synchronous spec (shard counts and
// fabrics strategySpec does not name).
func simSyncSpec(w perfmodel.Workload, spec core.ClusterSpec, iters int) *core.RunStats {
	k := sim.NewKernel()
	defer k.Shutdown() // release parked server loops (goroutine leak fix)
	c := core.Build(k, spec)
	agents := make([]rl.Agent, len(c.Workers()))
	services := make([]core.Service, len(agents))
	for i := range agents {
		agents[i], services[i] = core.NewSyntheticAgent(w.Floats()), c.Client(i)
	}
	return core.RunSync(k, agents, services, core.SyncConfig{
		Iterations:   iters,
		LocalCompute: w.LocalCompute,
		WeightUpdate: w.WeightUpdate,
	})
}

// simAsync runs an asynchronous timing simulation and returns the
// stats; strategy is PS or iSW. updates is the number of weight
// updates to simulate.
func simAsync(w perfmodel.Workload, strategy string, nWorkers, perRack int, updates int64, staleness int64) *core.AsyncStats {
	return simAsyncSpec(w, strategySpec(w, strategy, nWorkers, perRack, true), updates, staleness)
}

// simAsyncSpec is simAsync for any ModeAsyncPS or ModeISW spec.
func simAsyncSpec(w perfmodel.Workload, spec core.ClusterSpec, updates, staleness int64) *core.AsyncStats {
	k := sim.NewKernel()
	defer k.Shutdown()
	cfg := core.AsyncConfig{
		Updates: updates, StalenessBound: staleness,
		LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate,
	}
	c := core.Build(k, spec)
	agents := make([]rl.Agent, len(c.Workers()))
	for i := range agents {
		agents[i] = core.NewSyntheticAgent(w.Floats())
	}
	if c.PS != nil {
		return core.RunAsyncPS(k, agents, core.NewSyntheticAgent(w.Floats()), c.PS, cfg)
	}
	return core.RunAsyncISW(k, agents, c.ISW, cfg)
}

// asyncPerIter extracts the per-iteration (inter-update) time from an
// async run: the PS server's update interval, or the mean across
// workers' LWU threads for iSwitch.
func asyncPerIter(s *core.AsyncStats) time.Duration { return s.MeanIter() }
