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

// Loss/failure sweep: the reliability layer (paper §3.3 plus the
// crash/rejoin and switch-failover extensions) measured across loss
// rate × topology × training mode, with dedicated fault cells for
// worker crash (rejoin and permanent/evicted) and whole-plane switch
// failover. Every number is virtual-time and therefore deterministic;
// `iswitch-bench -exp lossy` prints it and testdata/golden/lossy.txt
// holds it.

// LossyCell is one sweep cell's measurement.
type LossyCell struct {
	Topology string  // star | tree | fattree
	Mode     string  // sync | async
	Fault    string  // "" | crash-rejoin | crash-evict | failover
	Loss     float64 // i.i.d. per-packet drop probability on every access link
	Workers  int

	Iterations int
	Total      time.Duration // virtual makespan
	MeanIter   time.Duration // mean per-iteration time across workers
	MaxIter    time.Duration // slowest single iteration — the recovery latency
	// Goodput is completed updates per virtual second.
	Goodput float64
	// Overhead is MeanIter relative to the same topology/mode at zero
	// loss and no faults (1.0 = free recovery).
	Overhead float64

	// Fabric and recovery accounting.
	Drops     uint64
	HelpsSent uint64
	Evicted   uint64
	Rejoins   uint64
	Failovers uint64
}

// LossyData is the full sweep.
type LossyData struct {
	Cells []LossyCell
}

// lossyModelFloats keeps each gradient a handful of segments so Help
// traffic exercises per-segment recovery without dominating runtime.
const lossyModelFloats = 2000

const lossyWorkers = 8
const lossyIterations = 40

// lossyWorkload is the synthetic per-iteration cost model for the
// sweep; RecoveryTimeoutFor derives the Help timer from it.
func lossyWorkload() perfmodel.Workload {
	return perfmodel.Workload{
		ModelBytes:   lossyModelFloats * 4,
		LocalCompute: 500 * time.Microsecond,
		WeightUpdate: 100 * time.Microsecond,
	}
}

// lossySpec assembles the ClusterSpec for one cell.
func lossySpec(topo string, cfg core.ISWConfig, plan *netsim.FaultPlan, horizon sim.Time) core.ClusterSpec {
	spec := core.ClusterSpec{
		Mode:            core.ModeISW,
		ModelFloats:     lossyModelFloats,
		Link:            netsim.TenGbE(),
		Uplink:          netsim.FortyGbE(),
		ISW:             &cfg,
		Dedup:           true,
		LivenessHorizon: horizon,
		Faults:          plan,
	}
	switch topo {
	case "star":
		spec.Topology = core.TopoStar
		spec.Workers = lossyWorkers
	case "tree":
		spec.Topology = core.TopoTree
		spec.Workers = lossyWorkers
		spec.PerRack = lossyWorkers / 2
	case "fattree":
		spec.Topology = core.TopoFatTree
		spec.KAry = 4
		spec.HostsPerEdge = 1 // 4 pods × 2 edge switches × 1 host = 8 workers
	default:
		panic("experiments: unknown lossy topology " + topo)
	}
	return spec
}

// lossPlan applies rate to both directions of every worker access link.
func lossPlan(rate float64, workers int) *netsim.FaultPlan {
	if rate <= 0 {
		return nil
	}
	plan := &netsim.FaultPlan{Seed: 1009}
	for w := 0; w < workers; w++ {
		plan.Links = append(plan.Links, netsim.LinkFault{Worker: w, Dir: netsim.DirBoth, Loss: rate})
	}
	return plan
}

// runLossyCell builds, trains, and measures one cell.
func runLossyCell(topo, mode, fault string, loss float64) LossyCell {
	wl := lossyWorkload()
	link := netsim.TenGbE()

	cfg := core.DefaultISWConfig()
	cfg.RecoveryTimeout = core.RecoveryTimeoutFor(wl, link)

	var horizon sim.Time
	var plan *netsim.FaultPlan
	switch fault {
	case "":
		// pure loss sweep
	case "crash-rejoin":
		plan = &netsim.FaultPlan{Crashes: []netsim.CrashFault{
			{Worker: 2, AtRound: lossyIterations / 2, PartialSegs: 2, Rejoin: true, Outage: 10 * time.Millisecond},
		}}
	case "crash-evict":
		horizon = 4 * cfg.RecoveryTimeout
		plan = &netsim.FaultPlan{Crashes: []netsim.CrashFault{
			{Worker: 2, AtRound: lossyIterations / 2, PartialSegs: 0},
		}}
	case "failover":
		cfg.FailoverAfter = 3
		// Fail the whole plane mid-run: roughly half the clean makespan in.
		at := sim.Time(lossyIterations/2) * perfmodel.ExpectedSyncRound(wl, link.BitsPerSecond)
		plan = &netsim.FaultPlan{Switches: []netsim.SwitchFault{{Switch: -1, At: at}}}
	default:
		panic("experiments: unknown lossy fault " + fault)
	}
	if loss > 0 {
		lp := lossPlan(loss, lossyWorkers)
		if plan == nil {
			plan = lp
		} else {
			plan.Seed = lp.Seed
			plan.Links = lp.Links
		}
	}

	var job core.Job
	switch mode {
	case "sync":
		job = core.Job{Iterations: lossyIterations}
	case "async":
		job = core.Job{Updates: lossyIterations, StalenessBound: 4}
	default:
		panic("experiments: unknown lossy mode " + mode)
	}
	cluster := core.Build(sim.NewKernel(), lossySpec(topo, cfg, plan, horizon))
	stats := simRun(wl, cluster, job)
	workers := cluster.Workers()
	cell := LossyCell{
		Topology: topo, Mode: mode, Fault: fault, Loss: loss,
		Workers: len(workers), Iterations: lossyIterations,
		Total: stats.Total, MeanIter: stats.MeanIter(),
	}
	for _, w := range stats.Workers {
		for _, it := range w.Iters {
			if t := it.Total(); t > cell.MaxIter {
				cell.MaxIter = t
			}
		}
	}
	if stats.Total > 0 {
		cell.Goodput = float64(lossyIterations) / stats.Total.Seconds()
	}

	for _, h := range workers {
		cell.Drops += h.Port().Dropped + h.Port().Peer().Dropped
	}
	isw := cluster.ISW
	cell.HelpsSent = isw.HelpsSent
	cell.Rejoins = isw.Rejoins
	cell.Failovers = isw.Failovers
	for _, is := range cluster.Switches() {
		cell.Evicted += is.Evicted
	}
	return cell
}

// lossyRates is the loss-rate axis of the sweep.
func lossyRates() []float64 { return []float64{0, 0.005, 0.02} }

// RunLossy runs the full sweep: loss rates × topologies × modes, plus
// the crash and failover fault cells on every topology (synchronous —
// rounds are the unit the crash/failover machinery is defined over).
func RunLossy() LossyData {
	var d LossyData
	baseline := map[string]time.Duration{}
	for _, topo := range []string{"star", "tree", "fattree"} {
		for _, mode := range []string{"sync", "async"} {
			for _, loss := range lossyRates() {
				c := runLossyCell(topo, mode, "", loss)
				key := topo + "/" + mode
				if loss == 0 {
					baseline[key] = c.MeanIter
				}
				if b := baseline[key]; b > 0 {
					c.Overhead = float64(c.MeanIter) / float64(b)
				}
				d.Cells = append(d.Cells, c)
			}
		}
		for _, fault := range []string{"crash-rejoin", "crash-evict", "failover"} {
			c := runLossyCell(topo, "sync", fault, 0)
			if b := baseline[topo+"/sync"]; b > 0 {
				c.Overhead = float64(c.MeanIter) / float64(b)
			}
			d.Cells = append(d.Cells, c)
		}
	}
	return d
}

// Lossy renders the sweep as an experiment result.
func Lossy() Result { return renderLossy(RunLossy()) }

func renderLossy(d LossyData) Result {
	var b strings.Builder
	fmt.Fprintf(&b, "Reliability sweep: %d workers, %d iterations/cell, %d-float model.\n",
		lossyWorkers, lossyIterations, lossyModelFloats)
	fmt.Fprintf(&b, "Recovery latency = slowest single iteration; overhead vs clean cell.\n\n")
	fmt.Fprintf(&b, "%8s %6s %13s %6s %10s %10s %9s %7s %6s %6s %5s %5s\n",
		"topo", "mode", "fault", "loss", "mean iter", "max iter", "goodput", "ovh", "drops", "helps", "evict", "fail")
	for _, c := range d.Cells {
		fault := c.Fault
		if fault == "" {
			fault = "-"
		}
		fmt.Fprintf(&b, "%8s %6s %13s %5.1f%% %10s %10s %8.1f/s %6.2fx %6d %6d %5d %5d\n",
			c.Topology, c.Mode, fault, c.Loss*100,
			ms(c.MeanIter), ms(c.MaxIter), c.Goodput, c.Overhead,
			c.Drops, c.HelpsSent, c.Evicted, c.Failovers)
	}
	b.WriteString("\nRecovery is exact: every surviving replica applies identical sums\n")
	b.WriteString("(shadow slots + contributor bitmap keep retransmission idempotent).\n")
	return Result{ID: "lossy",
		Title: "Reliability: loss, crash/rejoin, and switch-failover sweep", Text: b.String()}
}
