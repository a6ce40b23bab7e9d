package core

import (
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
		{"async-ps", async, mode(ModeAsyncPS), ""},
		{"async-s0", with(async, func(j *Job) { j.StalenessBound = 0 }), mode(ModeISW), ""},
		{"sync-int32block", sync, isw(protocol.CompInt32Block), ""},
		{"async-fp16", async, isw(protocol.CompFP16), ""},
		{"negative-iters", Job{Iterations: -1}, mode(ModeISW), "must not be negative"},
		{"negative-updates", Job{Updates: -2}, mode(ModeISW), "must not be negative"},
		{"neither", Job{}, mode(ModeISW), "exactly one of Iterations"},
		{"both", Job{Iterations: 3, Updates: 5}, mode(ModeISW), "exactly one of Iterations"},
		{"negative-staleness", with(async, func(j *Job) { j.StalenessBound = -1 }), mode(ModeISW), "StalenessBound must not be negative"},
		{"updates-on-ps", async, mode(ModePS), "ps is synchronous-only"},
		{"updates-on-ar", async, mode(ModeAllReduce), "allreduce is synchronous-only"},
		{"iters-on-async-ps", sync, mode(ModeAsyncPS), "runs no synchronous servers"},
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

	// A rejected job still releases what Build spawned (the synchronous
	// parameter server's loops).
	ps := Build(sim.NewKernel(), starSpec(ModePS, 2, 100))
	if _, err := ps.Run(Job{Updates: 3}); err == nil {
		t.Fatal("Updates on ModePS accepted")
	}
	if n := ps.k.Procs(); n != 0 {
		t.Fatalf("a rejected Run left %d processes parked", n)
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
	}{{ModeISW, sync}, {ModePS, sync}, {ModeAllReduce, sync}, {ModeISW, async}, {ModeAsyncPS, async}} {
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
			case tc.mode == ModeAsyncPS:
				return RunAsyncPS(k, agents, newIntAgent(99, nFloats), c.PS, tc.job)
			case tc.job.Updates > 0:
				return RunAsyncISW(k, agents, c.ISW, tc.job)
			}
			return &AsyncStats{RunStats: *RunSync(k, agents, services, tc.job)}
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
		if len(trained) != nWorkers || trained[0].iter == 0 || (tc.mode == ModeAsyncPS) != (len(master.applied) > 0) {
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
