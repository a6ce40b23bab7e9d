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
	"flag"
	"fmt"
	"log"
	"os"

	"iswitch/internal/accel"
	"iswitch/internal/core"
	"iswitch/internal/multijob"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
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

func dumpTrace(rec *trace.Recorder) {
	fmt.Println("\npacket trace (worker 0 NIC):")
	fmt.Print(rec.String())
}

func main() {
	var (
		workload = flag.String("workload", "DQN", "DQN | A2C | PPO | DDPG")
		strategy = flag.String("strategy", "isw", "ps | ar | isw")
		topology = flag.String("topology", "star", "star | tree | 3tier (3tier: isw only)")
		workers  = flag.Int("workers", 4, "worker count (star/tree)")
		perRack  = flag.Int("per-rack", 3, "workers per rack (tree)")
		aggs     = flag.Int("aggs", 2, "aggregation switches (3tier)")
		tors     = flag.Int("tors", 2, "ToRs per AGG (3tier)")
		hosts    = flag.Int("hosts", 3, "workers per ToR (3tier)")
		mode     = flag.String("mode", "sync", "sync | async (async: ps or isw)")
		psShards = flag.Int("ps-shards", 1, "PS shard servers (ps/star only; 1 = single-server baseline)")
		iters    = flag.Int("iters", 3, "sync iterations to simulate")
		updates  = flag.Int64("updates", 50, "async weight updates to simulate")
		stale    = flag.Int64("staleness", 3, "async staleness bound S")
		doTrace  = flag.Int("trace", 0, "print N packet events of worker 0's NIC (isw strategies, any topology/mode)")
		traceEnd = flag.Bool("trace-tail", false, "with -trace: keep the last N events (ring buffer) instead of the first N")
		jobs     = flag.Int("jobs", 1, "co-running training jobs sharing the fabric (isw only; workloads cycled from -workload)")
		jobsPol  = flag.String("jobs-policy", "demand", "SRAM partition policy for -jobs: demand | static")
	)
	flag.Parse()

	w, err := perfmodel.WorkloadByName(*workload)
	if err != nil {
		log.Fatalf("iswitch-sim: %v", err)
	}
	if *doTrace > 0 && *strategy != "isw" {
		log.Fatalf("iswitch-sim: -trace supports -strategy isw (any topology or mode)")
	}
	if *jobs < 1 {
		log.Fatalf("iswitch-sim: -jobs must be >= 1")
	}
	if *iters < 1 {
		log.Fatalf("iswitch-sim: -iters must be >= 1")
	}
	if *updates < 1 {
		log.Fatalf("iswitch-sim: -updates must be >= 1")
	}
	if *stale < 0 {
		log.Fatalf("iswitch-sim: -staleness must be >= 0")
	}

	// One declarative spec covers every strategy × topology pairing and
	// the shared fabric of -jobs; the pieces below only vary Mode
	// (sync/async flavors) on top of it.
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
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topology)
		os.Exit(1)
	}
	if *jobs > 1 {
		if *strategy != "isw" {
			log.Fatalf("iswitch-sim: -jobs requires -strategy isw (only iSwitches are multi-tenant)")
		}
		runJobs(w, spec, *jobs, *jobsPol, *topology, *workers,
			*mode, *iters, *updates, *stale, *doTrace, *traceEnd)
		return
	}
	switch *strategy {
	case "ps":
		cfg := core.PSConfigFor(w)
		spec.PS = &cfg
		spec.Mode = core.ModePS
		if *mode == "async" {
			spec.Mode = core.ModeAsyncPS
		}
	case "ar":
		cfg := core.ARConfigFor(w)
		spec.AR = &cfg
		spec.Mode = core.ModeAllReduce
	case "isw":
		cfg := core.ISWConfigFor(w)
		spec.ISW = &cfg
		spec.Mode = core.ModeISW
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(1)
	}
	if *mode != "sync" && *mode != "async" {
		fmt.Fprintln(os.Stderr, "mode must be sync or async")
		os.Exit(1)
	}
	if *mode == "async" && *strategy == "ar" {
		fmt.Fprintln(os.Stderr, "async supports strategies: ps, isw")
		os.Exit(1)
	}
	if err := spec.Validate(); err != nil {
		log.Fatalf("iswitch-sim: %v", err)
	}
	k := sim.NewKernel()
	c := core.Build(k, spec)
	n := len(c.Workers())
	agents := make([]rl.Agent, n)
	for i := range agents {
		agents[i] = core.NewSyntheticAgent(w.Floats())
	}
	if *doTrace > 0 {
		defer dumpTrace(newTraceRecorder(c.Workers()[0], *doTrace, *traceEnd))
	}

	if *mode == "sync" {
		services := make([]core.Service, n)
		for i := range services {
			services[i] = c.Client(i)
		}
		stats := core.RunSync(k, agents, services, core.SyncConfig{
			Iterations: *iters, LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate})
		shardNote := ""
		if *psShards > 1 {
			shardNote = fmt.Sprintf(" | %d PS shards", *psShards)
		}
		fmt.Printf("%s | sync %s over %s | %d workers%s | %d iterations\n",
			w.Name, *strategy, *topology, n, shardNote, *iters)
		fmt.Printf("  per-iteration:    %v\n", stats.MeanIter().Round(1000))
		fmt.Printf("    local compute:  %v\n", w.LocalCompute)
		fmt.Printf("    aggregation:    %v (%.1f%% of iteration)\n", stats.MeanAgg().Round(1000),
			100*float64(stats.MeanAgg())/float64(stats.MeanIter()))
		fmt.Printf("    weight update:  %v\n", w.WeightUpdate)
		fmt.Printf("  total virtual:    %v\n", stats.Total.Round(1000))
		fmt.Printf("  paper reference:  PS %v  AR %v  iSW %v per iteration\n",
			w.PaperSyncPerIterPS, w.PaperSyncPerIterAR, w.PaperSyncPerIterISW)
		return
	}

	cfg := core.AsyncConfig{Updates: *updates, StalenessBound: *stale,
		LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate}
	var stats *core.AsyncStats
	if c.PS != nil {
		stats = core.RunAsyncPS(k, agents, core.NewSyntheticAgent(w.Floats()), c.PS, cfg)
	} else {
		stats = core.RunAsyncISW(k, agents, c.ISW, cfg)
	}
	fmt.Printf("%s | async %s over %s | %d workers | %d updates | S=%d\n",
		w.Name, *strategy, *topology, n, *updates, *stale)
	fmt.Printf("  per-update interval: %v\n", stats.MeanIter().Round(1000))
	fmt.Printf("  committed/discarded: %d/%d\n", stats.Committed, stats.Discarded)
	fmt.Printf("  mean staleness:      %.2f (bound %d)\n", stats.MeanStaleness(), *stale)
	for s, ps := range stats.PerShard {
		fmt.Printf("    shard %d:           committed/discarded %d/%d, mean staleness %.2f\n",
			s, ps.Committed, ps.Discarded, ps.MeanStaleness())
	}
	fmt.Printf("  total virtual:       %v\n", stats.Total.Round(1000))
	fmt.Printf("  paper reference:     async PS %v  async iSW %v per iteration\n",
		w.PaperAsyncPerIterPS, w.PaperAsyncPerIterISW)
}

// runJobs simulates J co-running training jobs sharing one iSwitch
// fabric through the multijob admission scheduler. Workloads cycle
// starting from the -workload selection; every job runs the chosen
// mode with the chosen per-job worker count.
func runJobs(w perfmodel.Workload, fabric core.ClusterSpec, jobs int, policy, topology string,
	workers int, mode string, iters int, updates, stale int64, doTrace int, traceTail bool) {
	var pol accel.Partition
	switch policy {
	case "demand":
		pol = accel.PartitionDemand
	case "static":
		pol = accel.PartitionStatic
	default:
		log.Fatalf("iswitch-sim: -jobs-policy must be demand or static")
	}

	f, err := multijob.NewFabricFromSpec(sim.NewKernel(), fabric, multijob.FabricConfig{Policy: pol})
	if err != nil {
		log.Fatalf("iswitch-sim: %v", err)
	}
	if nHosts := jobs * workers; len(f.Hosts) < nHosts {
		log.Fatalf("iswitch-sim: %s fabric has %d hosts; %d jobs x %d workers need %d",
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
		spec := multijob.JobSpec{
			Name: fmt.Sprintf("%s/%d", wl.Name, i), Workload: wl, Workers: workers,
		}
		if mode == "async" {
			spec.Mode, spec.Updates, spec.StalenessBound = multijob.ModeAsync, updates, stale
		} else {
			spec.Mode, spec.Iterations = multijob.ModeSync, iters
		}
		specs[i] = spec
	}

	res, err := multijob.Run(f, specs)
	if err != nil {
		log.Fatalf("iswitch-sim: %v", err)
	}

	fmt.Printf("%d co-running jobs over %s | %s SRAM partition | %d workers each | %s mode\n",
		jobs, topology, pol, workers, mode)
	fmt.Printf("%-10s %-6s %-9s %12s %12s %11s %10s\n",
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
			fmt.Printf("%-10s %-6s %-9s\n", r.Name, r.Mode, adm)
			continue
		}
		fmt.Printf("%-10s %-6s %-9s %12.2f %12.2f %11.2f %10.2f\n",
			r.Name, r.Mode, adm,
			float64(r.Started)/1e6, float64(r.Finished)/1e6,
			float64(r.MeanRound)/1e6, float64(r.WireBytes)/1e6)
	}
	sum := multijob.Summarize(res)
	fmt.Printf("\nmakespan:            %v\n", sum.Makespan.Round(1000))
	fmt.Printf("aggregate gradient:  %.3f Gb/s\n", sum.AggThroughputBps/1e9)
	fmt.Printf("wire fairness:       %.3f (Jain)\n", sum.Fairness)
	fmt.Printf("admission:           %d ran, %d queued, %d rejected\n",
		sum.Ran, sum.Queued, sum.Rejected)

	if rec != nil {
		dumpTrace(rec)
	}
}
