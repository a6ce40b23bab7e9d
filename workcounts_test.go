package iswitch

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/multijob"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
	"iswitch/internal/transport"
)

// Work counts. A simulated run of a fixed spec does the same work every
// time: the same kernel events, process wakes, frames on each link,
// accelerator bursts and fresh pooled headers. TestWorkCountsGolden runs
// the shapes of the benchmark's five workloads (benchmark/main.go) at a
// few rounds each and compares their counts with
// testdata/workcounts.golden, so a change that does more or less work
// shows it exactly, before any wall-clock measurement. After an
// intended change, regenerate with
//
//	go test -run TestWorkCountsGolden -update .
//
// and state each moved row's old and new value.

var update = flag.Bool("update", false, "rewrite testdata/workcounts.golden")

const workCountsGolden = "testdata/workcounts.golden"

// counts are one shape's totals in the order they print, with the
// rounds they were taken over.
type counts struct {
	rounds int
	names  []string
	values map[string]uint64
}

func newCounts() *counts { return &counts{values: map[string]uint64{}} }

func (c *counts) add(name string, v uint64) {
	if _, ok := c.values[name]; !ok {
		c.names = append(c.names, name)
	}
	c.values[name] += v
}

// simFabric is what a finished simulated run is read back from.
type simFabric struct {
	k        *sim.Kernel
	hosts    []*netsim.Host
	switches []*switchnet.ISwitch
	isw      *core.ISWCluster
}

// read adds the run's counters: the kernel's, every link direction's
// reachable from the hosts and the switches, every accelerator's and
// switch engine's, and the in-switch workers' recovery counts.
func (c *counts) read(f simFabric) {
	c.add("sim.events", f.k.Events())
	c.add("sim.wakes", f.k.Wakes())
	seen := map[*netsim.Port]bool{}
	var ports []*netsim.Port
	add := func(p *netsim.Port) {
		if !seen[p] {
			seen[p] = true
			ports = append(ports, p)
		}
	}
	for _, h := range f.hosts {
		add(h.Port())
		add(h.Port().Peer())
	}
	for _, is := range f.switches {
		for _, p := range is.Switch().Ports() {
			add(p)
			add(p.Peer())
		}
	}
	for _, p := range ports {
		c.add("netsim.tx_packets", p.TxPackets)
		c.add("netsim.tx_bytes", p.TxBytes)
		c.add("netsim.dropped", p.Dropped)
	}
	for _, is := range f.switches {
		st := is.Accelerator().Stats()
		c.add("accel.packets_in", st.PacketsIn)
		c.add("accel.bursts_added", st.BurstsAdded)
		c.add("accel.cycles", st.Cycles)
		c.add("accel.dup_dropped", st.DupDropped)
		c.add("switchnet.data_in", is.DataIn)
		c.add("switchnet.broadcasts", is.Broadcasts)
		c.add("switchnet.headers_made", is.HeadersMade)
	}
	if f.isw != nil {
		c.add("core.helps_sent", f.isw.HelpsSent)
		c.add("core.retransmits", f.isw.Retransmits)
	}
}

// runCluster builds spec, runs job on it and adds the run's counts.
func (c *counts) runCluster(t *testing.T, spec core.ClusterSpec, job core.Job) {
	t.Helper()
	k := sim.NewKernel()
	cl := core.Build(k, spec)
	if _, err := cl.Run(job); err != nil {
		t.Fatal(err)
	}
	hosts := cl.Workers()
	if cl.PS != nil {
		hosts = append(append([]*netsim.Host(nil), hosts...), cl.PS.Server)
	}
	c.read(simFabric{k: k, hosts: hosts, switches: cl.Switches(), isw: cl.ISW})
	c.rounds += job.Iterations + int(job.Updates)
}

// heldPools runs fn with the collector off and one processor, from
// empty pools, and adds the headers the pool had to allocate. A
// collection empties every sync.Pool and a pool caches per processor,
// so only then is the number of fresh headers a property of the run.
func (c *counts) heldPools(fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC() // the second collection also empties the pools' victim caches
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := protocol.FreshHeaders()
	fn()
	c.add("protocol.fresh_headers", protocol.FreshHeaders()-before)
}

// The shapes, each at a few rounds: the model sizes and the loss rate
// are the benchmark's, except where noted.

func starDQNCounts(t *testing.T) *counts {
	c := newCounts()
	w, _ := perfmodel.WorkloadByName("DQN")
	c.heldPools(func() {
		c.runCluster(t, core.ClusterSpec{Topology: core.TopoStar, Mode: core.ModeISW, Workers: 4,
			ModelFloats: 1_602_500, Link: netsim.TenGbE()},
			core.Job{Iterations: 3, LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate})
	})
	return c
}

func fatTree1024Counts(t *testing.T) *counts {
	c := newCounts()
	c.heldPools(func() {
		k := sim.NewKernel()
		f := multijob.NewFatTreeFabric(k, 8, 32, netsim.TenGbE(),
			netsim.LinkConfig{BitsPerSecond: 32e9, Propagation: 4 * time.Microsecond},
			netsim.LinkConfig{BitsPerSecond: 64e9, Propagation: 6 * time.Microsecond},
			multijob.FabricConfig{})
		ppo, _ := perfmodel.WorkloadByName("PPO")
		specs := make([]multijob.JobSpec, 64)
		for j := range specs {
			specs[j] = multijob.JobSpec{Name: fmt.Sprintf("job%02d", j), Workload: ppo,
				Workers: 16, Iterations: 3, ModelFloats: 400}
		}
		res, err := multijob.Run(f, specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			c.rounds += int(r.Rounds)
		}
		c.read(simFabric{k: k, hosts: f.Hosts, switches: f.Switches})
	})
	return c
}

// The lossy shape runs a tenth of the benchmark's model, so the test
// stays short; 0.0005 loss still drops frames in both directions.
func fatTreeLossyCounts(t *testing.T) *counts {
	c := newCounts()
	const kAry, hostsPerEdge = 4, 2
	workers := kAry * kAry / 2 * hostsPerEdge
	link := netsim.TenGbE()
	w := perfmodel.Workload{Name: "int32-lossy", ModelBytes: 4 * 40_000,
		LocalCompute: 500 * time.Microsecond, WeightUpdate: 100 * time.Microsecond}
	cfg := core.DefaultISWConfig()
	cfg.RecoveryTimeout = core.RecoveryTimeoutFor(w, link)
	plan := &netsim.FaultPlan{Seed: 1009}
	for i := 0; i < workers; i++ {
		plan.Links = append(plan.Links, netsim.LinkFault{Worker: i, Dir: netsim.DirBoth, Loss: 0.0005})
	}
	c.heldPools(func() {
		c.runCluster(t, core.ClusterSpec{Topology: core.TopoFatTree, Mode: core.ModeISW,
			KAry: kAry, HostsPerEdge: hostsPerEdge, ModelFloats: w.Floats(), Link: link,
			Compression: protocol.CompInt32Block, ISW: &cfg, Dedup: true, Faults: plan},
			core.Job{Iterations: 3, LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate})
	})
	return c
}

// The matrix runs every cell of Tables 3 to 5 at a twentieth of each
// model: sync PS, ring all-reduce and iSW, async PS and iSW.
func strategyMatrixCounts(t *testing.T) *counts {
	c := newCounts()
	c.heldPools(func() {
		for _, w := range perfmodel.Workloads() {
			floats := w.Floats() / 20
			for _, cell := range []struct {
				mode  core.Mode
				async bool
			}{{core.ModePS, false}, {core.ModeAllReduce, false}, {core.ModeISW, false},
				{core.ModePS, true}, {core.ModeISW, true}} {
				spec := core.ClusterSpec{Topology: core.TopoStar, Mode: cell.mode, Workers: 4,
					ModelFloats: floats, Link: netsim.TenGbE(), Uplink: netsim.FortyGbE()}.WithWorkload(w)
				job := core.Job{Iterations: 2, LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate}
				if cell.async {
					job.Iterations, job.Updates, job.StalenessBound = 0, 8, 3
				}
				c.runCluster(t, spec, job)
			}
		}
	})
	return c
}

// The UDP shape runs real sockets, so only the switch's frame counts are
// a property of the run: which goroutine finds a pooled header depends
// on the OS scheduler. No frame is lost on the loopback, so no Help is
// sent while every round completes well inside the 5 s timeout.
func udpLoopbackCounts(t *testing.T) *counts {
	const workers, floats, rounds = 2, 10_005, 20
	sw, err := transport.ListenSwitch("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback socket: %v", err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = sw.Serve()
	}()
	defer func() {
		_ = sw.Close()
		<-served
	}()
	var clients [workers]*transport.Client
	for i := range clients {
		cl, err := transport.Dial(sw.Addr(), floats)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Join(); err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	_, _, joins := sw.Counters()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := range clients {
		wg.Add(1)
		go func(cl *transport.Client) {
			defer wg.Done()
			grad := make([]float32, floats)
			for r := 0; r < rounds; r++ {
				if _, err := cl.Aggregate(grad); err != nil {
					errs <- err
					return
				}
			}
		}(clients[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	dataIn, broadcasts, control := sw.Counters()
	c := newCounts()
	c.rounds = rounds
	c.add("transport.switch_data_in", dataIn)
	c.add("transport.switch_broadcasts", broadcasts)
	c.add("transport.helps", control-joins)
	return c
}

// TestWorkCountsGolden compares every shape's counts, total and per
// round, with the committed golden.
func TestWorkCountsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	if testing.Short() {
		t.Skip("runs five workloads")
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# work counts per workload shape: total, per round (go test -run TestWorkCountsGolden -update .)")
	for _, shape := range []struct {
		name string
		run  func(*testing.T) *counts
	}{
		{"star-dqn", starDQNCounts},
		{"fattree1024", fatTree1024Counts},
		{"fattree16-int32-lossy", fatTreeLossyCounts},
		{"strategy-matrix", strategyMatrixCounts},
		{"udp-loopback", udpLoopbackCounts},
	} {
		c := shape.run(t)
		fmt.Fprintf(&buf, "%s rounds %d\n", shape.name, c.rounds)
		for _, name := range c.names {
			v := c.values[name]
			fmt.Fprintf(&buf, "%s %-28s %14d %16.2f\n", shape.name, name, v, float64(v)/float64(c.rounds))
		}
	}
	if *update {
		if err := os.WriteFile(workCountsGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workCountsGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
