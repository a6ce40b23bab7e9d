package experiments

import (
	"fmt"
	"strings"
	"time"

	"iswitch/internal/multijob"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

// Multi-tenant job-count sweep: J co-running training jobs share one
// iSwitch hierarchy (per-job SRAM contexts, shared accelerator buses,
// FIFO admission). The paper evaluates a single job owning the switch;
// this sweep measures what sharing costs. Topology: racks of 4 hosts
// under ToR iSwitches with a 10GbE uplink to a root iSwitch — two
// 2-worker jobs share each rack, so co-tenants contend on the
// oversubscribed uplink and per-job round time rises with J, while
// fabric-wide aggregated throughput climbs until the hierarchy
// saturates. Beyond the root's SRAM budget (its default 16 MiB pool
// holds five of the cycled contexts; the sixth queues) admission
// control serializes the excess.

// jobSweepCounts is the co-running job grid.
func jobSweepCounts() []int { return []int{1, 2, 4, 6, 8} }

const (
	jobSweepWorkersPerJob = 2
	jobSweepPerRack       = 4
	jobSweepIters         = 2
)

// jobSweepSpecs builds J synchronous jobs cycling the four paper
// workloads at full model size (DQN and A2C contexts are megabytes, so
// the default SRAM pool genuinely fills up around J=6).
func jobSweepSpecs(j int) []multijob.JobSpec {
	wls := perfmodel.Workloads()
	specs := make([]multijob.JobSpec, j)
	for i := range specs {
		wl := wls[i%len(wls)]
		specs[i] = multijob.JobSpec{
			Name:     fmt.Sprintf("%s/%d", wl.Name, i),
			Workload: wl, Workers: jobSweepWorkersPerJob,
			Iterations: jobSweepIters,
		}
	}
	return specs
}

// JobSweepRow is one J's outcome.
type JobSweepRow struct {
	Jobs int
	// Names and PerJobRound hold each job's label and mean round time
	// in submission order (PerJobRound[0] is always the first DQN job,
	// the cross-J contention probe).
	Names       []string
	PerJobRound []time.Duration
	Summary     multijob.Summary
}

// jobSweepRows runs the sweep grid, one kernel per J (cells are
// independent simulations, so they run through the parallel harness).
// The experiment text and the contention regression test both consume
// these rows.
func jobSweepRows() []JobSweepRow {
	counts := jobSweepCounts()
	return parMap(len(counts), func(i int) JobSweepRow {
		j := counts[i]
		k := sim.NewKernel()
		f := multijob.NewFabric(k, switchnet.BuildTreeN(k, jobSweepWorkersPerJob*j, jobSweepPerRack,
			netsim.TenGbE(), netsim.TenGbE()), multijob.FabricConfig{})
		res, err := multijob.Run(f, jobSweepSpecs(j))
		if err != nil {
			panic(fmt.Sprintf("experiments: job-sweep J=%d: %v", j, err))
		}
		row := JobSweepRow{Jobs: j, Summary: multijob.Summarize(res)}
		for _, r := range res {
			row.Names = append(row.Names, r.Name)
			row.PerJobRound = append(row.PerJobRound, r.MeanRound)
		}
		return row
	})
}

// JobSweep runs and renders the multi-tenant job-count sweep.
func JobSweep() Result { return renderJobSweep(jobSweepRows()) }

// renderJobSweep formats sweep rows (split from the runs so tests can
// render the rows they assert on without a second sweep).
func renderJobSweep(rows []JobSweepRow) Result {
	var b strings.Builder
	fmt.Fprintf(&b, "J co-running jobs (sync, %d workers each, workloads cycled), "+
		"iSwitch racks of %d on a 10GbE uplink.\n", jobSweepWorkersPerJob, jobSweepPerRack)
	fmt.Fprintf(&b, "queued = jobs deferred by SRAM admission control; round = per-job mean, ms;\n")
	fmt.Fprintf(&b, "agg thr = switch-aggregated gradient throughput; fairness = Jain over wire bytes.\n\n")
	fmt.Fprintf(&b, "%4s %7s %13s %12s %13s %9s\n",
		"J", "queued", "makespan(ms)", "round(ms)", "agg thr(Gb/s)", "fairness")
	for _, row := range rows {
		s := row.Summary
		fmt.Fprintf(&b, "%4d %7d %13s %12s %13.3f %9.3f\n",
			row.Jobs, s.Queued, ms(s.Makespan), ms(s.MeanRound),
			s.AggThroughputBps/1e9, s.Fairness)
	}
	b.WriteString("\nPer-job round time (ms), submission order:\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "J=%d:", row.Jobs)
		for i, d := range row.PerJobRound {
			fmt.Fprintf(&b, " %s=%s", row.Names[i], ms(d))
		}
		b.WriteString("\n")
	}
	return Result{ID: "job-sweep",
		Title: "Multi-tenant in-switch aggregation job-count sweep", Text: b.String()}
}
