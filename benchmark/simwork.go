package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/multijob"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

// A repeat is one fresh run of a workload's fixed operation count: a
// new kernel (or new sockets), set up, run, checked and torn down.
type repeat struct {
	setup, run time.Duration // host time before / after the first timed round
	alloc      uint64        // bytes allocated during the run phase
	rounds     int
	roundMs    []float64 // host ms of each round the lead agent finished
	attempted  int
	failed     int
	// exact holds simulated results and counters: a deterministic
	// simulation must give the same ones in every repeat.
	exact values
	// host holds host-time spans of single layers, which vary.
	host values
}

func (r *repeat) add(c *repeat) {
	r.setup += c.setup
	r.run += c.run
	r.alloc += c.alloc
	r.rounds += c.rounds
	r.roundMs = append(r.roundMs, c.roundMs...)
	r.attempted += c.attempted
	r.failed += c.failed
	for k, v := range c.exact {
		r.exact[k] += v
	}
	for k, v := range c.host {
		if k == "host.heap_inuse_peak_mb" {
			r.host[k] = math.Max(r.host[k], v)
		} else {
			r.host[k] += v
		}
	}
}

// simRun measures one kernel's life from outside the layers.
type simRun struct {
	o   *options
	tr  *tracer
	p   *probe
	k   *sim.Kernel
	r   *repeat
	kid int // the kernel's identifier in the trace
	// span is the repeat's host span; firstSpan is the first span
	// recorded under it.
	span, firstSpan int
}

func newSimRun(o *options, tr *tracer, parent int, name string) *simRun {
	s := &simRun{o: o, tr: tr, k: sim.NewKernel(),
		r: &repeat{exact: values{}, host: values{}}}
	s.p = &probe{t0: time.Now(), k: s.k}
	if tr != nil {
		s.kid = tr.newKernel()
		s.span = tr.begin(name, parent)
		s.firstSpan = len(tr.spans)
	}
	return s
}

// gradients makes the run's seeded inputs; corrupting one expected
// value is the self-test that a wrong aggregate fails the run.
func (s *simRun) gradients(salt, workers, n int) *gradients {
	g := newGradients(s.o.seed*1000003+int64(salt), workers, n)
	if s.o.corrupt {
		g.sum[0] += gridStep
	}
	return g
}

func (s *simRun) agents(g *gradients, workers int, mk func(a *agent)) []rl.Agent {
	out := make([]rl.Agent, workers)
	for w := range out {
		a := &agent{p: s.p, g: g, worker: w, lead: w == 0}
		if mk != nil {
			mk(a)
		}
		out[w] = a
	}
	return out
}

// timed runs fn and records its host time as a layer span.
func (s *simRun) timed(metric string, fn func()) {
	start := time.Now()
	fn()
	s.r.host[metric] += float64(time.Since(start)) / 1e6
	if s.tr != nil {
		s.tr.hostSpan(metric, s.span, -1, 0, start, time.Now())
	}
}

// hook installs the tracer on ports (traced pass only).
func (s *simRun) hook(ports []*netsim.Port) {
	if s.tr != nil {
		s.tr.hookPorts(s.k, s.kid, ports, func() int { return len(s.p.ends) })
	}
}

// fabric is what a finished run is read back from.
type fabric struct {
	workers  []*netsim.Host
	ports    []*netsim.Port
	switches []*switchnet.ISwitch
	isw      *core.ISWCluster
}

func portsOf(hosts []*netsim.Host, sws []*switchnet.ISwitch) []*netsim.Port {
	seen := map[*netsim.Port]bool{}
	var out []*netsim.Port
	add := func(p *netsim.Port) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, h := range hosts {
		add(h.Port())
		add(h.Port().Peer())
	}
	for _, is := range sws {
		for _, p := range is.Switch().Ports() {
			add(p)
			add(p.Peer())
		}
	}
	return out
}

func clusterFabric(c *core.Cluster) fabric {
	hosts := c.Workers()
	if c.PS != nil {
		hosts = append(append([]*netsim.Host(nil), hosts...), c.PS.Server)
	}
	return fabric{workers: c.Workers(), ports: portsOf(hosts, c.Switches()),
		switches: c.Switches(), isw: c.ISW}
}

// done closes the run phase (call it right after the kernel drains):
// it takes the host measurements, reads every layer's public counters
// and records the spans. perEnd is how many rounds one lead round end
// stands for; lead are the lead worker's iteration records.
func (s *simRun) done(rounds, perEnd int, meanRound time.Duration, lead []core.IterRecord, f fabric) *repeat {
	end := time.Now()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p, r := s.p, s.r
	events, procs := s.k.Events(), p.procs
	s.k.Shutdown()

	r.setup = p.first.Sub(p.t0)
	r.run = end.Sub(p.first) - p.own
	r.alloc = mem.TotalAlloc - p.mem0.TotalAlloc
	r.rounds = rounds
	r.attempted, r.failed = p.attempted, p.failed
	prev := time.Duration(0)
	for _, e := range p.ends {
		r.roundMs = append(r.roundMs, float64(e-prev)/1e6/float64(perEnd))
		prev = e
	}

	x := r.exact
	x["sim_round_ms"] = float64(meanRound) / 1e6
	var wire uint64
	for _, h := range f.workers {
		wire += h.Port().TxBytes + h.Port().Peer().TxBytes
	}
	x["sim_wire_mb_per_round"] = float64(wire) / 1e6 / float64(rounds)
	x["sim.events"] = float64(events)
	x["sim.events_per_round"] = float64(events) / float64(rounds)
	x["sim.procs"] = float64(procs)

	var hostTx, hostRx uint64
	for _, h := range f.workers {
		hostTx += h.Port().TxPackets
		hostRx += h.Port().RxPackets
	}
	for _, port := range f.ports {
		x["netsim.tx_packets"] += float64(port.TxPackets)
		x["netsim.dropped"] += float64(port.Dropped)
		x["netsim.policed"] += float64(port.Policed)
	}
	x["netsim.host_tx_packets"] = float64(hostTx)
	x["netsim.host_rx_packets"] = float64(hostRx)
	for _, is := range f.switches {
		st := is.Accelerator().Stats()
		x["accel.packets_in"] += float64(st.PacketsIn)
		x["accel.packets_out"] += float64(st.PacketsOut)
		x["accel.dup_dropped"] += float64(st.DupDropped)
		x["switchnet.data_in"] += float64(is.DataIn)
		x["switchnet.broadcasts"] += float64(is.Broadcasts)
		x["switchnet.up_forwards"] += float64(is.UpForwards)
		x["switchnet.help_served"] += float64(is.HelpServed)
		x["switchnet.help_targeted"] += float64(is.HelpTargeted)
		x["switchnet.help_relayed"] += float64(is.HelpRelayed)
		x["switchnet.unknown_job_drops"] += float64(is.UnknownJobDrops)
		x["switchnet.enc_mismatch_drops"] += float64(is.EncMismatchDrops)
	}
	if f.isw != nil {
		x["core.helps_sent"] = float64(f.isw.HelpsSent)
		x["core.retransmits"] = float64(f.isw.Retransmits)
	}
	for _, it := range lead {
		x["core.sim_compute_ns"] += float64(it.Compute())
		x["core.sim_agg_ns"] += float64(it.Agg())
		x["core.sim_update_ns"] += float64(it.Update())
	}
	r.host["host.heap_inuse_peak_mb"] = float64(mem.HeapInuse) / 1e6
	r.host["host.gc_count"] = float64(mem.NumGC - p.mem0.NumGC)

	if s.tr != nil {
		s.spans(end, lead)
	}
	return r
}

// spans records the repeat's span tree: repeat → {setup, run} → round
// → {compute, aggregate, update}. Round spans carry both clocks; port
// events recorded during the run are attached to their round.
func (s *simRun) spans(end time.Time, lead []core.IterRecord) {
	tr, p := s.tr, s.p
	tr.end(s.span)
	tr.hostSpan("setup", s.span, -1, 0, p.t0, p.first)
	run := tr.hostSpan("run", s.span, -1, 0, p.first, end)
	rounds := make([]int, len(p.ends))
	prev := time.Duration(0)
	for i, e := range p.ends {
		rounds[i] = tr.hostSpan("round", run, i, 0, p.first.Add(prev), p.first.Add(e))
		prev = e
		if i < len(lead) {
			it := lead[i]
			v := tr.virtualSpan("round", rounds[i], i, s.kid, 0, it.Start, it.UpdateEnd)
			tr.virtualSpan("compute", v, i, s.kid, 0, it.Start, it.ComputeEnd)
			tr.virtualSpan("aggregate", v, i, s.kid, 0, it.ComputeEnd, it.AggEnd)
			tr.virtualSpan("update", v, i, s.kid, 0, it.AggEnd, it.UpdateEnd)
		}
	}
	for i := s.firstSpan; i < len(tr.spans); i++ {
		if sp := &tr.spans[i]; strings.HasPrefix(sp.Name, "tx ") && sp.Round < len(rounds) {
			sp.Parent = rounds[sp.Round]
		}
	}
}

// --- star-dqn ----------------------------------------------------------

// paperWorkload returns one of the paper's four calibrated workloads.
func paperWorkload(name string) perfmodel.Workload {
	w, err := perfmodel.WorkloadByName(name)
	if err != nil {
		panic(err) // the names are constants of this file
	}
	return w
}

// runSync builds spec with core.Build and trains it with core.RunSync
// under the benchmark's agents.
func runSync(o *options, tr *tracer, parent int, name string, spec core.ClusterSpec,
	compute, update time.Duration, iters int, mk func(*agent)) *repeat {
	s := newSimRun(o, tr, parent, name)
	var c *core.Cluster
	s.timed("core.build_ms", func() { c = core.Build(s.k, spec) })
	f := clusterFabric(c)
	n := len(f.workers)
	agents := s.agents(s.gradients(0, n, spec.ModelFloats), n, mk)
	services := make([]core.Service, n)
	for i := range services {
		services[i] = c.Client(i)
	}
	s.hook(f.ports)
	stats := core.RunSync(s.k, agents, services, core.SyncConfig{
		Iterations: iters, LocalCompute: compute, WeightUpdate: update})
	return s.done(iters, 1, stats.MeanIter(), stats.Workers[0].Iters, f)
}

func starDQN(o *options, tr *tracer, parent int) (*repeat, error) {
	w := paperWorkload("DQN")
	spec := core.ClusterSpec{Topology: core.TopoStar, Mode: core.ModeISW, Workers: 4,
		ModelFloats: o.sz.starFloats, Link: netsim.TenGbE()}
	return runSync(o, tr, parent, "star-dqn", spec, w.LocalCompute, w.WeightUpdate, o.sz.starRounds, nil), nil
}

// --- fattree16-int32-lossy ---------------------------------------------

// lossRate is the i.i.d. per-frame loss on both directions of every
// worker access link. The fault plan's seed is fixed (the one the lossy
// experiment uses) and does not follow --seed: which frames are lost
// decides how much recovery a round needs (host time per round moves by
// a factor of two between plans), so a per-seed plan would make runs
// with different seeds different workloads.
const (
	lossRate = 0.0005
	lossSeed = 1009
)

func fatTreeLossy(o *options, tr *tracer, parent int) (*repeat, error) {
	const kAry, hostsPerEdge = 4, 2
	workers := kAry * kAry / 2 * hostsPerEdge
	link := netsim.TenGbE()
	w := perfmodel.Workload{Name: "int32-lossy", ModelBytes: 4 * o.sz.lossyFloats,
		LocalCompute: 500 * time.Microsecond, WeightUpdate: 100 * time.Microsecond}
	cfg := core.DefaultISWConfig()
	cfg.RecoveryTimeout = core.RecoveryTimeoutFor(w, link)
	plan := &netsim.FaultPlan{Seed: lossSeed}
	for i := 0; i < workers; i++ {
		plan.Links = append(plan.Links, netsim.LinkFault{Worker: i, Dir: netsim.DirBoth, Loss: lossRate})
	}
	spec := core.ClusterSpec{Topology: core.TopoFatTree, Mode: core.ModeISW,
		KAry: kAry, HostsPerEdge: hostsPerEdge, ModelFloats: o.sz.lossyFloats, Link: link,
		Compression: protocol.CompInt32Block, ISW: &cfg, Dedup: true, Faults: plan}
	// The codec keeps 13 bits of the aggregate's magnitude per segment;
	// every worker must decode the same bits.
	tol := float32(workers*gridSpan) * gridStep / (1 << 12)
	var seen [2]seenSum
	r := runSync(o, tr, parent, "fattree16-int32-lossy", spec, w.LocalCompute, w.WeightUpdate,
		o.sz.lossyRounds, func(a *agent) { a.tol, a.seen = tol, &seen })
	// Every frame a worker sends or receives goes through the codec.
	r.exact["compress.encoded_segs"] = r.exact["netsim.host_tx_packets"]
	r.exact["compress.decoded_segs"] = r.exact["netsim.host_rx_packets"]
	return r, nil
}

// --- fattree1024 -------------------------------------------------------

func fatTree1024(o *options, tr *tracer, parent int) (*repeat, error) {
	sz := o.sz
	s := newSimRun(o, tr, parent, "fattree1024")
	edge := netsim.TenGbE()
	agg := netsim.LinkConfig{BitsPerSecond: 32e9, Propagation: 4 * time.Microsecond}
	spine := netsim.LinkConfig{BitsPerSecond: 64e9, Propagation: 6 * time.Microsecond}
	var f *multijob.Fabric
	s.timed("multijob.fabric_build_ms", func() {
		f = multijob.NewFatTreeFabric(s.k, sz.ftK, sz.ftHostsPerEdge, edge, agg, spine, multijob.FabricConfig{})
	})
	ppo := paperWorkload("PPO")
	specs := make([]multijob.JobSpec, sz.ftJobs)
	for j := range specs {
		g := s.gradients(j, sz.ftWorkers, sz.ftFloats)
		lead := j == 0
		specs[j] = multijob.JobSpec{Name: fmt.Sprintf("job%02d", j), Workload: ppo,
			Workers: sz.ftWorkers, Mode: multijob.ModeSync, Iterations: sz.ftIters, ModelFloats: sz.ftFloats,
			NewAgent: func(w int) rl.Agent {
				return &agent{p: s.p, g: g, worker: w, lead: lead && w == 0}
			}}
	}
	fab := fabric{workers: f.Hosts, ports: portsOf(f.Hosts, f.Switches), switches: f.Switches}
	s.hook(fab.ports)
	admit := time.Now()
	res, err := multijob.Run(f, specs)
	if err != nil {
		return nil, err
	}
	var rounds, queued int
	var mean time.Duration
	for _, r := range res {
		rounds += int(r.Rounds)
		mean += r.MeanRound
		if r.Queued {
			queued++
		}
	}
	r := s.done(rounds, sz.ftJobs, mean/time.Duration(len(res)), res[0].Sync.Workers[0].Iters, fab)
	r.host["multijob.admit_to_first_round_ms"] = float64(s.p.first.Sub(admit)) / 1e6
	r.exact["multijob.jobs_queued"] = float64(queued)
	r.exact["multijob.rounds_total"] = float64(rounds)
	return r, nil
}

// --- strategy-matrix ---------------------------------------------------

// strategies are the paper's comparison set (Tables 3 to 5).
var (
	syncStrategies  = []string{"PS", "AR", "iSW"}
	asyncStrategies = []string{"PS", "iSW"}
)

// strategySpec builds a cell's cluster exactly as the experiments
// package does for the paper's tables: the 4-worker 10 GbE star.
func strategySpec(w perfmodel.Workload, strategy string, floats int, async bool) core.ClusterSpec {
	spec := core.ClusterSpec{Topology: core.TopoStar, Workers: 4, ModelFloats: floats,
		Link: netsim.TenGbE(), Uplink: netsim.FortyGbE()}
	switch strategy {
	case "PS":
		spec.Mode = core.ModePS
		if async {
			spec.Mode = core.ModeAsyncPS
		}
		cfg := core.PSConfigFor(w)
		spec.PS = &cfg
	case "AR":
		spec.Mode = core.ModeAllReduce
		cfg := core.ARConfigFor(w)
		spec.AR = &cfg
	default:
		spec.Mode = core.ModeISW
		cfg := core.ISWConfigFor(w)
		spec.ISW = &cfg
	}
	return spec
}

func runAsync(o *options, tr *tracer, parent int, name string, w perfmodel.Workload, strategy string, floats int) *repeat {
	s := newSimRun(o, tr, parent, name)
	var c *core.Cluster
	s.timed("core.build_ms", func() { c = core.Build(s.k, strategySpec(w, strategy, floats, true)) })
	f := clusterFabric(c)
	g := s.gradients(0, 1, floats)
	cfg := core.AsyncConfig{Updates: o.sz.matrixUpdates, StalenessBound: 3,
		LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate}
	s.hook(f.ports)
	var stats *core.AsyncStats
	if strategy == "PS" {
		// The server applies each push on its own: the master agent is
		// the one that sees (and checks) aggregates.
		workers := s.agents(g, 4, func(a *agent) { a.fixed, a.lead = true, false })
		master := &agent{p: s.p, g: g, fixed: true, lead: true}
		stats = core.RunAsyncPS(s.k, workers, master, c.PS, cfg)
	} else {
		stats = core.RunAsyncISW(s.k, s.agents(g, 4, func(a *agent) { a.fixed = true }), c.ISW, cfg)
	}
	lead := stats.Workers[0].Iters
	if strategy == "PS" {
		lead = stats.Workers[len(stats.Workers)-1].Iters
	}
	return s.done(int(o.sz.matrixUpdates), 1, stats.MeanIter(), lead, f)
}

func strategyMatrix(o *options, tr *tracer, parent int) (*repeat, error) {
	total := &repeat{exact: values{}, host: values{}}
	var logSync, logAsync, errSum float64
	cells := 0
	for _, w := range perfmodel.Workloads() {
		floats := w.Floats() / o.sz.matrixDiv
		perIter := map[string]time.Duration{}
		for _, st := range syncStrategies {
			name := "sync-" + st + "-" + w.Name
			r := runSync(o, tr, parent, name, strategySpec(w, st, floats, false),
				w.LocalCompute, w.WeightUpdate, o.sz.matrixIters, nil)
			perIter[name] = time.Duration(r.exact["sim_round_ms"] * 1e6)
			total.add(r)
		}
		for _, st := range asyncStrategies {
			name := "async-" + st + "-" + w.Name
			r := runAsync(o, tr, parent, name, w, st, floats)
			perIter[name] = time.Duration(r.exact["sim_round_ms"] * 1e6)
			total.add(r)
		}
		logSync += math.Log(float64(perIter["sync-PS-"+w.Name]) / float64(perIter["sync-iSW-"+w.Name]))
		logAsync += math.Log(float64(perIter["async-PS-"+w.Name]) / float64(perIter["async-iSW-"+w.Name]))
		for _, c := range []struct {
			name  string
			paper time.Duration
		}{
			{"sync-PS-", w.PaperSyncPerIterPS}, {"sync-AR-", w.PaperSyncPerIterAR},
			{"sync-iSW-", w.PaperSyncPerIterISW},
			{"async-PS-", w.PaperAsyncPerIterPS}, {"async-iSW-", w.PaperAsyncPerIterISW},
		} {
			errSum += math.Abs(float64(perIter[c.name+w.Name]-c.paper)) / float64(c.paper)
			cells++
		}
	}
	nw := float64(len(perfmodel.Workloads()))
	x := total.exact
	// A mean round and its wire bytes mean nothing across 20 different
	// cells; the matrix reports the paper's ratios instead.
	delete(x, "sim_round_ms")
	delete(x, "sim_wire_mb_per_round")
	x["sim.events_per_round"] = x["sim.events"] / float64(total.rounds)
	x["sim_sync_speedup_vs_ps"] = math.Exp(logSync / nw)
	x["sim_async_speedup_vs_ps"] = math.Exp(logAsync / nw)
	x["sim_err_vs_paper_pct"] = 100 * errSum / float64(cells)
	return total, nil
}
