// Command iswitch-sim runs one distributed-training simulation with a
// chosen workload, aggregation strategy, topology, and mode, printing
// per-iteration timing and phase breakdown. It is the exploration tool
// behind the canned experiments of cmd/iswitch-bench.
//
// Examples:
//
//	iswitch-sim -workload DQN -strategy isw
//	iswitch-sim -workload PPO -strategy ar -workers 9 -topology tree
//	iswitch-sim -workload DDPG -strategy isw -mode async -updates 100 -staleness 3
//	iswitch-sim -workload A2C -strategy isw -topology 3tier -aggs 2 -tors 2 -hosts 3
//	iswitch-sim -jobs 4 -workers 2 -topology tree -jobs-policy demand
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"iswitch/internal/accel"
	"iswitch/internal/core"
	"iswitch/internal/multijob"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/trace"
)

// newTraceRecorder attaches a packet trace to host's NIC (worker 0 in
// every topology). tail selects the ring recorder: keep the last max
// events instead of the first. Data events carry the segment and size;
// any non-default JobID is labeled so multi-tenant traces demux by eye.
func newTraceRecorder(host *netsim.Host, max int, tail bool) *trace.Recorder {
	rec := trace.New(max)
	if tail {
		rec = trace.NewRing(max)
	}
	host.Port().Trace = func(at sim.Time, kind string, pkt *protocol.Packet) {
		detail := "control " + pkt.Action.String()
		if pkt.IsData() {
			detail = fmt.Sprintf("data seg=%d (%d floats)", pkt.Seg, len(pkt.Data))
		}
		if pkt.Job != protocol.DefaultJob {
			detail = fmt.Sprintf("job=%d %s", pkt.Job, detail)
		}
		rec.Record(at, "worker0/nic", kind, detail)
	}
	return rec
}

func dumpTrace(out io.Writer, rec *trace.Recorder) {
	fmt.Fprintln(out, "\npacket trace (worker 0 NIC):")
	fmt.Fprint(out, rec.String())
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "iswitch-sim:", err)
		os.Exit(1)
	}
}

// run parses args, simulates the scenario they name and writes the
// report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("iswitch-sim", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "DQN", "DQN | A2C | PPO | DDPG")
		strategy = fs.String("strategy", "isw", "ps | ar | isw")
		topology = fs.String("topology", "star", "star | tree | 3tier (3tier: isw only)")
		workers  = fs.Int("workers", 4, "worker count (star/tree)")
		perRack  = fs.Int("per-rack", 3, "workers per rack (tree)")
		aggs     = fs.Int("aggs", 2, "aggregation switches (3tier)")
		tors     = fs.Int("tors", 2, "ToRs per AGG (3tier)")
		hosts    = fs.Int("hosts", 3, "workers per ToR (3tier)")
		mode     = fs.String("mode", "sync", "sync | async (async: ps or isw)")
		psShards = fs.Int("ps-shards", 1, "PS shard servers (ps/star only; 1 = single-server baseline)")
		iters    = fs.Int("iters", 3, "sync iterations to simulate")
		updates  = fs.Int64("updates", 50, "async weight updates to simulate")
		stale    = fs.Int64("staleness", 3, "async staleness bound S")
		doTrace  = fs.Int("trace", 0, "print N packet events of worker 0's NIC (isw strategies, any topology/mode)")
		traceEnd = fs.Bool("trace-tail", false, "with -trace: keep the last N events (ring buffer) instead of the first N")
		jobs     = fs.Int("jobs", 1, "co-running training jobs sharing the fabric (isw only; workloads cycled from -workload)")
		jobsPol  = fs.String("jobs-policy", "demand", "SRAM partition policy for -jobs: demand | static")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w, err := perfmodel.WorkloadByName(*workload)
	if err != nil {
		return err
	}
	if *doTrace > 0 && *strategy != "isw" {
		return fmt.Errorf("-trace supports -strategy isw (any topology or mode)")
	}
	if *jobs < 1 {
		return fmt.Errorf("-jobs must be >= 1")
	}
	job := core.Job{LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate}
	switch *mode {
	case "sync":
		job.Iterations = *iters
	case "async":
		job.Updates, job.StalenessBound = *updates, *stale
	default:
		return fmt.Errorf("mode must be sync or async")
	}

	// One declarative spec covers every strategy × topology pairing and
	// the shared fabric of -jobs.
	spec := core.ClusterSpec{
		Workers:     *jobs * *workers,
		PerRack:     *perRack,
		ModelFloats: w.Floats(),
		Link:        netsim.TenGbE(),
		Uplink:      netsim.FortyGbE(),
		Shards:      *psShards,
	}
	switch *topology {
	case "star":
		spec.Topology = core.TopoStar
	case "tree":
		spec.Topology = core.TopoTree
	case "3tier":
		spec.Topology = core.TopoThreeTier
		spec.AGGs, spec.ToRsPerAGG, spec.HostsPerToR = *aggs, *tors, *hosts
		spec.Link, spec.Uplink, spec.CoreLink = netsim.DefaultThreeTierLinks()
	default:
		return fmt.Errorf("unknown topology %q", *topology)
	}
	if *jobs > 1 {
		if *strategy != "isw" {
			return fmt.Errorf("-jobs requires -strategy isw (only iSwitches are multi-tenant)")
		}
		return runJobs(out, w, spec, *jobs, *jobsPol, *topology, *workers, *mode, job, *doTrace, *traceEnd)
	}
	m, ok := map[string]core.Mode{"ps": core.ModePS, "ar": core.ModeAllReduce, "isw": core.ModeISW}[*strategy]
	if !ok {
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	spec.Mode = m
	spec = spec.WithWorkload(w)
	if err := spec.Validate(); err != nil {
		return err
	}
	if err := job.Validate(spec); err != nil {
		return err
	}
	c := core.Build(sim.NewKernel(), spec)
	n := len(c.Workers())
	if *doTrace > 0 {
		defer dumpTrace(out, newTraceRecorder(c.Workers()[0], *doTrace, *traceEnd))
	}
	stats, err := c.Run(job)
	if err != nil {
		return err
	}

	if *mode == "sync" {
		shardNote := ""
		if *psShards > 1 {
			shardNote = fmt.Sprintf(" | %d PS shards", *psShards)
		}
		fmt.Fprintf(out, "%s | sync %s over %s | %d workers%s | %d iterations\n",
			w.Name, *strategy, *topology, n, shardNote, *iters)
		fmt.Fprintf(out, "  per-iteration:    %v\n", stats.MeanIter().Round(1000))
		fmt.Fprintf(out, "    local compute:  %v\n", w.LocalCompute)
		fmt.Fprintf(out, "    aggregation:    %v (%.1f%% of iteration)\n", stats.MeanAgg().Round(1000),
			100*float64(stats.MeanAgg())/float64(stats.MeanIter()))
		fmt.Fprintf(out, "    weight update:  %v\n", w.WeightUpdate)
		fmt.Fprintf(out, "  total virtual:    %v\n", stats.Total.Round(1000))
		fmt.Fprintf(out, "  paper reference:  PS %v  AR %v  iSW %v per iteration\n",
			w.PaperSyncPerIterPS, w.PaperSyncPerIterAR, w.PaperSyncPerIterISW)
		return nil
	}

	fmt.Fprintf(out, "%s | async %s over %s | %d workers | %d updates | S=%d\n",
		w.Name, *strategy, *topology, n, *updates, *stale)
	fmt.Fprintf(out, "  per-update interval: %v\n", stats.MeanIter().Round(1000))
	fmt.Fprintf(out, "  committed/discarded: %d/%d\n", stats.Committed, stats.Discarded)
	fmt.Fprintf(out, "  mean staleness:      %.2f (bound %d)\n", stats.MeanStaleness(), *stale)
	for s, ps := range stats.PerShard {
		fmt.Fprintf(out, "    shard %d:           committed/discarded %d/%d, mean staleness %.2f\n",
			s, ps.Committed, ps.Discarded, ps.MeanStaleness())
	}
	fmt.Fprintf(out, "  total virtual:       %v\n", stats.Total.Round(1000))
	fmt.Fprintf(out, "  paper reference:     async PS %v  async iSW %v per iteration\n",
		w.PaperAsyncPerIterPS, w.PaperAsyncPerIterISW)
	return nil
}

// runJobs simulates J co-running training jobs sharing one iSwitch
// fabric through the multijob admission scheduler. Workloads cycle
// starting from the -workload selection; every job runs the chosen
// mode with the chosen per-job worker count.
func runJobs(out io.Writer, w perfmodel.Workload, fabric core.ClusterSpec, jobs int, policy, topology string,
	workers int, mode string, job core.Job, doTrace int, traceTail bool) error {
	var pol accel.Partition
	switch policy {
	case "demand":
		pol = accel.PartitionDemand
	case "static":
		pol = accel.PartitionStatic
	default:
		return fmt.Errorf("-jobs-policy must be demand or static")
	}

	f, err := multijob.NewFabricFromSpec(sim.NewKernel(), fabric, multijob.FabricConfig{Policy: pol})
	if err != nil {
		return err
	}
	if nHosts := jobs * workers; len(f.Hosts) < nHosts {
		return fmt.Errorf("%s fabric has %d hosts; %d jobs x %d workers need %d",
			topology, len(f.Hosts), jobs, workers, nHosts)
	}

	var rec *trace.Recorder
	if doTrace > 0 {
		rec = newTraceRecorder(f.Hosts[0], doTrace, traceTail)
	}

	wls := perfmodel.Workloads()
	start := 0
	for i, cand := range wls {
		if cand.Name == w.Name {
			start = i
		}
	}
	specs := make([]multijob.JobSpec, jobs)
	for i := range specs {
		wl := wls[(start+i)%len(wls)]
		specs[i] = multijob.JobSpec{
			Name: fmt.Sprintf("%s/%d", wl.Name, i), Workload: wl, Workers: workers,
			Iterations: job.Iterations, Updates: job.Updates, StalenessBound: job.StalenessBound,
		}
	}

	res, err := multijob.Run(f, specs)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%d co-running jobs over %s | %s SRAM partition | %d workers each | %s mode\n",
		jobs, topology, pol, workers, mode)
	fmt.Fprintf(out, "%-10s %-6s %-9s %12s %12s %11s %10s\n",
		"job", "mode", "admission", "started(ms)", "finish(ms)", "round(ms)", "wire(MB)")
	for _, r := range res {
		adm := "ok"
		switch {
		case r.Rejected:
			adm = "rejected"
		case r.Queued:
			adm = "queued"
		}
		if r.Rejected {
			fmt.Fprintf(out, "%-10s %-6s %-9s\n", r.Name, r.Mode, adm)
			continue
		}
		fmt.Fprintf(out, "%-10s %-6s %-9s %12.2f %12.2f %11.2f %10.2f\n",
			r.Name, r.Mode, adm,
			float64(r.Started)/1e6, float64(r.Finished)/1e6,
			float64(r.MeanRound)/1e6, float64(r.WireBytes)/1e6)
	}
	sum := multijob.Summarize(res)
	fmt.Fprintf(out, "\nmakespan:            %v\n", sum.Makespan.Round(1000))
	fmt.Fprintf(out, "aggregate gradient:  %.3f Gb/s\n", sum.AggThroughputBps/1e9)
	fmt.Fprintf(out, "wire fairness:       %.3f (Jain)\n", sum.Fairness)
	fmt.Fprintf(out, "admission:           %d ran, %d queued, %d rejected\n",
		sum.Ran, sum.Queued, sum.Rejected)

	if rec != nil {
		dumpTrace(out, rec)
	}
	return nil
}
