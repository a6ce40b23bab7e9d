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
// ClusterSpec calibrated to w: perRack <= 0 selects the flat
// single-switch testbed, otherwise the two-level rack topology.
func strategySpec(w perfmodel.Workload, strategy string, nWorkers, perRack int) core.ClusterSpec {
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
	mode, ok := map[string]core.Mode{StratPS: core.ModePS, StratAR: core.ModeAllReduce, StratISW: core.ModeISW}[strategy]
	if !ok {
		panic("experiments: unknown strategy " + strategy)
	}
	spec.Mode = mode
	return spec.WithWorkload(w)
}

// simRun runs job on cluster c (synthetic agents unless the job names
// its own), charging workload w's compute and update times.
func simRun(w perfmodel.Workload, c *core.Cluster, job core.Job) *core.AsyncStats {
	job.LocalCompute, job.WeightUpdate = w.LocalCompute, w.WeightUpdate
	stats, err := c.Run(job)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return stats
}

// simSync runs a synchronous timing simulation: nWorkers synthetic
// agents carrying workload w's exact model size, under the given
// strategy, measuring per-iteration time. perRack <= 0 selects the flat
// single-switch testbed; otherwise the two-level rack topology.
func simSync(w perfmodel.Workload, strategy string, nWorkers, perRack, iters int) *core.RunStats {
	return simSyncSpec(w, strategySpec(w, strategy, nWorkers, perRack), iters)
}

// simSyncSpec is simSync for any synchronous spec (shard counts and
// fabrics strategySpec does not name).
func simSyncSpec(w perfmodel.Workload, spec core.ClusterSpec, iters int) *core.RunStats {
	return &simSpec(w, spec, core.Job{Iterations: iters}).RunStats
}

// simAsync runs an asynchronous timing simulation and returns the
// stats; strategy is PS or iSW. updates is the number of weight
// updates to simulate.
func simAsync(w perfmodel.Workload, strategy string, nWorkers, perRack int, updates int64, staleness int64) *core.AsyncStats {
	return simSpec(w, strategySpec(w, strategy, nWorkers, perRack), core.Job{Updates: updates, StalenessBound: staleness})
}

// simSpec builds spec on a fresh kernel and runs job on it (simRun).
func simSpec(w perfmodel.Workload, spec core.ClusterSpec, job core.Job) *core.AsyncStats {
	return simRun(w, core.Build(sim.NewKernel(), spec), job)
}

// asyncPerIter extracts the per-iteration (inter-update) time from an
// async run: the PS server's update interval, or the mean across
// workers' LWU threads for iSwitch.
func asyncPerIter(s *core.AsyncStats) time.Duration { return s.MeanIter() }
