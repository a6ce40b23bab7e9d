package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

func TestJobValidate(t *testing.T) {
	sync := Job{Iterations: 3, LocalCompute: time.Millisecond}
	async := Job{Updates: 5, StalenessBound: 3}
	with := func(j Job, f func(*Job)) Job { f(&j); return j }
	mode := func(m Mode) ClusterSpec { return ClusterSpec{Mode: m} }
	isw := func(c protocol.Compression) ClusterSpec { return ClusterSpec{Mode: ModeISW, Compression: c} }
	for _, tc := range []struct {
		name string
		job  Job
		spec ClusterSpec
		want string // "" accepts
	}{
		{"sync-isw", sync, mode(ModeISW), ""},
		{"sync-ps", sync, mode(ModePS), ""},
		{"sync-ar", sync, mode(ModeAllReduce), ""},
		{"async-isw", async, mode(ModeISW), ""},
		{"async-ps", async, mode(ModePS), ""},
		{"async-s0", with(async, func(j *Job) { j.StalenessBound = 0 }), mode(ModeISW), ""},
		{"sync-int32block", sync, isw(protocol.CompInt32Block), ""},
		{"async-fp16", async, isw(protocol.CompFP16), ""},
		{"negative-iters", Job{Iterations: -1}, mode(ModeISW), "must not be negative"},
		{"negative-updates", Job{Updates: -2}, mode(ModeISW), "must not be negative"},
		{"neither", Job{}, mode(ModeISW), "exactly one of Iterations"},
		{"both", Job{Iterations: 3, Updates: 5}, mode(ModeISW), "exactly one of Iterations"},
		{"negative-staleness", with(async, func(j *Job) { j.StalenessBound = -1 }), mode(ModeISW), "StalenessBound must not be negative"},
		{"updates-on-ar", async, mode(ModeAllReduce), "allreduce is synchronous-only"},
		{"async-int32block", async, isw(protocol.CompInt32Block), "int32block compression is synchronous-only"},
		{"async-topk", async, isw(protocol.CompTopK), "topk compression is synchronous-only"},
	} {
		err := tc.job.Validate(tc.spec)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// Run shuts the kernel down on every path. A permanent crash leaves the
// dead worker parked forever; the hand-written ladder (Build, then
// RunSync) left it and its goroutine behind after every call.
func TestRunShutsDownKernel(t *testing.T) {
	nFloats := 2*protocolFloats + 9
	spec := func() ClusterSpec {
		cfg := DefaultISWConfig()
		cfg.RecoveryTimeout = 2 * time.Millisecond
		plan := &netsim.FaultPlan{Crashes: []netsim.CrashFault{{Worker: 2, AtRound: relCrashRound}}}
		return relSpec(ClusterSpec{Topology: TopoStar, Workers: 6}, nFloats, &cfg, plan, 4*cfg.RecoveryTimeout)
	}
	job := Job{Iterations: relIters, LocalCompute: 200 * time.Microsecond, WeightUpdate: 50 * time.Microsecond}

	ladder := Build(sim.NewKernel(), spec())
	agents := make([]rl.Agent, len(ladder.Workers()))
	services := make([]Service, len(agents))
	for i := range agents {
		agents[i], services[i] = NewSyntheticAgent(nFloats), ladder.Client(i)
	}
	RunSync(ladder.k, agents, services, job)
	if ladder.k.Procs() == 0 {
		t.Fatal("the ladder left no process parked: the crash-evict spec no longer shows the leak")
	}
	ladder.k.Shutdown()

	c := Build(sim.NewKernel(), spec())
	stats, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stats.Workers[0].Iters); got != relIters {
		t.Fatalf("survivor ran %d iterations, want %d", got, relIters)
	}
	if n := c.k.Procs(); n != 0 {
		t.Fatalf("Run left %d processes parked", n)
	}

	// The synchronous parameter server's loops, which the first worker's
	// Setup starts, never return; Run releases them too.
	ps := Build(sim.NewKernel(), starSpec(ModePS, 2, 100))
	if _, err := ps.Run(Job{Iterations: 3}); err != nil {
		t.Fatal(err)
	}
	if n := ps.k.Procs(); n != 0 {
		t.Fatalf("a parameter-server Run left %d processes parked", n)
	}
}

// Run is the ladder it replaces: on every mode, Run over a job's agents
// gives the stats the exported loops give over the same agents wired by
// hand.
func TestRunMatchesLadder(t *testing.T) {
	const nWorkers, nFloats = 3, 2*protocolFloats + 5
	sync := Job{Iterations: 4, LocalCompute: 300 * time.Microsecond, WeightUpdate: 40 * time.Microsecond}
	async := Job{Updates: 12, StalenessBound: 2, LocalCompute: 300 * time.Microsecond, WeightUpdate: 40 * time.Microsecond,
		ComputeJitter: func(w, it int) sim.Time { return sim.Time((w*7+it*3)%5) * 20 * time.Microsecond }}
	for _, tc := range []struct {
		mode Mode
		job  Job
	}{{ModeISW, sync}, {ModePS, sync}, {ModeAllReduce, sync}, {ModeISW, async}, {ModePS, async}} {
		ladder := func() *AsyncStats {
			k := sim.NewKernel()
			defer k.Shutdown()
			c := Build(k, starSpec(tc.mode, nWorkers, nFloats))
			agents := make([]rl.Agent, nWorkers)
			services := make([]Service, nWorkers)
			for i := range agents {
				agents[i], services[i] = newIntAgent(i, nFloats), c.Client(i)
			}
			switch {
			case tc.job.Iterations > 0:
				return &AsyncStats{RunStats: *RunSync(k, agents, services, tc.job)}
			case tc.mode == ModePS:
				return RunAsyncPS(k, agents, newIntAgent(99, nFloats), c.PS, tc.job)
			}
			return RunAsyncISW(k, agents, c.ISW, tc.job)
		}()
		job := tc.job
		var trained []*intAgent
		job.NewAgent = func(i int) rl.Agent {
			trained = append(trained, newIntAgent(i, nFloats))
			return trained[i]
		}
		master := newIntAgent(99, nFloats)
		job.Master = master
		got, err := Build(sim.NewKernel(), starSpec(tc.mode, nWorkers, nFloats)).Run(job)
		if err != nil {
			t.Fatalf("%v: %v", tc.mode, err)
		}
		asyncPS := tc.mode == ModePS && tc.job.Updates > 0
		if len(trained) != nWorkers || trained[0].iter == 0 || asyncPS != (len(master.applied) > 0) {
			t.Fatalf("%v: Run did not train the job's agents (%d built, worker 0 computed %d gradients, master applied %d)",
				tc.mode, len(trained), trained[0].iter, len(master.applied))
		}
		if got.Total != ladder.Total || got.MeanIter() != ladder.MeanIter() || got.Updates != ladder.Updates ||
			got.ShardStats != ladder.ShardStats || len(got.Workers) != len(ladder.Workers) {
			t.Fatalf("%v updates=%d: Run gave total %v, mean %v, %+v; the ladder %v, %v, %+v", tc.mode, tc.job.Updates,
				got.Total, got.MeanIter(), got.ShardStats, ladder.Total, ladder.MeanIter(), ladder.ShardStats)
		}
	}
}

// The job's length is the one sync/async switch. Over star and tree,
// every mode, every scheme and each way of setting the length (the
// updates-on-ps and iters-on-async-ps rows of TestJobValidate are two
// of its cells), a spec and job that Validate and Job.Validate accept
// run through Run to stats of the requested length; any other pair is
// rejected with a reason. The expected verdict is spelled out here, not
// read off Validate.
func TestLengthPicksDiscipline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	supported := map[Mode]map[protocol.Compression]bool{
		ModeISW:       {protocol.CompNone: true, protocol.CompFP16: true, protocol.CompInt32Block: true, protocol.CompTopK: true},
		ModePS:        {protocol.CompNone: true, protocol.CompFP16: true},
		ModeAllReduce: {protocol.CompNone: true},
	}
	ran := map[string]int{}
	for _, topo := range []Topology{TopoStar, TopoTree} {
		for _, mode := range []Mode{ModeISW, ModePS, ModeAllReduce} {
			for _, scheme := range protocol.Compressions() {
				for _, length := range []string{"iterations", "updates", "both", "neither"} {
					nWorkers := 2 + rng.Intn(3)
					spec := ClusterSpec{Topology: topo, Mode: mode, Workers: nWorkers, PerRack: 1 + rng.Intn(nWorkers),
						ModelFloats: 1 + rng.Intn(2*protocolFloats), Compression: scheme, Link: testLink()}
					job := Job{LocalCompute: 100 * time.Microsecond, WeightUpdate: 20 * time.Microsecond}
					if length == "iterations" || length == "both" {
						job.Iterations = 1 + rng.Intn(3)
					}
					if length == "updates" || length == "both" {
						job.Updates, job.StalenessBound = int64(1+rng.Intn(6)), int64(rng.Intn(3))
					}
					name := fmt.Sprintf("%v/%v/%v/%s", topo, mode, scheme, length)
					stateless := scheme == protocol.CompNone || scheme == protocol.CompFP16
					want := (length == "iterations" || length == "updates" && mode != ModeAllReduce && stateless) &&
						supported[mode][scheme]

					err := spec.Validate()
					if err == nil {
						err = job.Validate(spec)
					}
					if (err == nil) != want {
						t.Errorf("%s: accepted %v, want %v (error %v)", name, err == nil, want, err)
						continue
					}
					if err != nil {
						if !strings.HasPrefix(err.Error(), "core: ") || len(err.Error()) < 20 {
							t.Errorf("%s: rejected without a reason: %q", name, err)
						}
						continue
					}
					stats, err := Build(sim.NewKernel(), spec).Run(job)
					if err != nil {
						t.Fatalf("%s: Run rejected an accepted job: %v", name, err)
					}
					ran[length]++
					// Per-worker records of a synchronous or in-switch run;
					// an asynchronous parameter server records each update
					// on its shard, after the workers.
					records, rounds := stats.Workers, job.Updates
					if job.Iterations > 0 {
						rounds = int64(job.Iterations)
					} else if mode == ModePS {
						records = records[nWorkers:]
					}
					if stats.Updates != rounds || len(records) == 0 {
						t.Fatalf("%s: stats of %d updates over %d records, want %d", name, stats.Updates, len(records), rounds)
					}
					for i, ws := range records {
						if int64(len(ws.Iters)) != rounds {
							t.Fatalf("%s: record %d holds %d rounds, want %d", name, i, len(ws.Iters), rounds)
						}
					}
				}
			}
		}
	}
	if ran["iterations"] == 0 || ran["updates"] == 0 {
		t.Fatalf("the sweep ran %v", ran)
	}
}

// benchmark/ drives the parameter server by hand: Build, then RunSync
// over c.Client. Build spawns no process, and the first client's Setup
// starts the synchronous servers, so that path gives Run's records.
func TestPSHandWiredMatchesRun(t *testing.T) {
	const nWorkers, nFloats = 3, 2*protocolFloats + 5
	job := Job{Iterations: 3, LocalCompute: 300 * time.Microsecond, WeightUpdate: 40 * time.Microsecond}
	for _, tc := range []struct {
		topo   Topology
		shards int
	}{{TopoStar, 1}, {TopoStar, 2}, {TopoTree, 1}} {
		spec := ClusterSpec{Topology: tc.topo, Mode: ModePS, Workers: nWorkers, PerRack: 2,
			ModelFloats: nFloats, Shards: tc.shards, Link: testLink()}
		k := sim.NewKernel()
		c := Build(k, spec)
		if n := k.Procs(); n != 0 {
			t.Fatalf("%v S=%d: Build spawned %d processes", tc.topo, tc.shards, n)
		}
		agents := make([]rl.Agent, nWorkers)
		services := make([]Service, nWorkers)
		for i := range agents {
			agents[i], services[i] = newIntAgent(i, nFloats), c.Client(i)
		}
		hand := RunSync(k, agents, services, job)
		k.Shutdown()

		job := job
		job.NewAgent = func(i int) rl.Agent { return newIntAgent(i, nFloats) }
		run, err := Build(sim.NewKernel(), spec).Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if hand.Total != run.Total || len(hand.Workers) != len(run.Workers) {
			t.Fatalf("%v S=%d: by hand total %v over %d workers, Run %v over %d",
				tc.topo, tc.shards, hand.Total, len(hand.Workers), run.Total, len(run.Workers))
		}
		for w := range hand.Workers {
			if !slices.Equal(hand.Workers[w].Iters, run.Workers[w].Iters) {
				t.Fatalf("%v S=%d worker %d: by hand %v, Run %v", tc.topo, tc.shards, w, hand.Workers[w].Iters, run.Workers[w].Iters)
			}
		}
	}
}
