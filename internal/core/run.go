package core

import (
	"fmt"

	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// Job is what a cluster trains: how long, what each step costs in
// virtual time, and which agents learn. A run is a spec plus a job:
// Build turns a ClusterSpec into a cluster and Cluster.Run trains a Job
// on it.
type Job struct {
	// Iterations is the number of synchronous training iterations.
	Iterations int
	// Updates is the target number of asynchronous weight updates
	// ("Number of Iterations" in Table 5: weight updates at the PS, or
	// LWU updates for iSwitch).
	Updates int64
	// StalenessBound is Algorithm 1's S: a local gradient computed
	// against weights more than S updates old is discarded.
	StalenessBound int64
	// LocalCompute is the virtual time charged per local gradient
	// (perfmodel calibration); WeightUpdate per optimizer step.
	LocalCompute sim.Time
	WeightUpdate sim.Time
	// ComputeJitter, when non-nil, returns extra local-compute time for
	// worker w's iter-th gradient in an asynchronous run. Deterministic
	// (seeded) jitter lets stress tests skew the workers without losing
	// reproducibility; nil means no jitter.
	ComputeJitter func(worker, iter int) sim.Time
	// NewAgent, when non-nil, constructs worker i's agent; nil selects
	// timing-only synthetic agents of the spec's ModelFloats.
	NewAgent func(worker int) rl.Agent
	// Master is the asynchronous parameter server's agent: it holds the
	// authoritative weights and optimizer, and must share the workers'
	// model seed (its environment is never stepped). nil selects a
	// synthetic agent. Asynchronous ModePS only.
	Master rl.Agent
}

// SyncConfig and AsyncConfig are Job under the names RunSync,
// RunAsyncISW and RunAsyncPS take it by.
type SyncConfig = Job

// AsyncConfig is Job (see SyncConfig).
type AsyncConfig = Job

// Agents builds one agent per worker: NewAgent's, or timing-only
// synthetic agents of modelFloats floats when NewAgent is nil.
func (j Job) Agents(workers, modelFloats int) []rl.Agent {
	agents := make([]rl.Agent, workers)
	for i := range agents {
		if j.NewAgent != nil {
			agents[i] = j.NewAgent(i)
		} else {
			agents[i] = NewSyntheticAgent(modelFloats)
		}
	}
	return agents
}

// jitterFor resolves the per-gradient compute jitter (zero when unset).
func (j Job) jitterFor(worker, iter int) sim.Time {
	if j.ComputeJitter == nil {
		return 0
	}
	return j.ComputeJitter(worker, iter)
}

// Validate says why the job cannot run on a cluster built from spec, or
// returns nil. Exactly one of Iterations and Updates is set, and that
// choice is the discipline: Updates runs asynchronously, so only where
// an asynchronous design exists (ModeISW, ModePS) under a stateless
// wire scheme.
func (j Job) Validate(spec ClusterSpec) error {
	m := spec.Mode
	switch {
	case j.Iterations < 0 || j.Updates < 0:
		return fmt.Errorf("core: a job's length must not be negative, got Iterations %d, Updates %d", j.Iterations, j.Updates)
	case (j.Iterations > 0) == (j.Updates > 0):
		return fmt.Errorf("core: a job sets exactly one of Iterations (synchronous) and Updates (asynchronous), got %d and %d", j.Iterations, j.Updates)
	case j.StalenessBound < 0:
		return fmt.Errorf("core: StalenessBound must not be negative, got %d: every gradient would be discarded and the run would never end", j.StalenessBound)
	case j.Updates > 0 && m != ModeISW && m != ModePS:
		return fmt.Errorf("core: %v is synchronous-only: set Iterations, not Updates", m)
	case j.Updates > 0 && (spec.Compression == protocol.CompInt32Block || spec.Compression == protocol.CompTopK):
		return fmt.Errorf("core: %v compression is synchronous-only: its per-round state needs every worker in the same round", spec.Compression)
	}
	return nil
}

// Run trains job on the cluster: it builds one agent per worker, spawns
// the discipline the job's length names (synchronous rounds for
// Iterations; for Updates, the asynchronous parameter server on ModePS
// or Algorithm 1 on ModeISW), runs the kernel and shuts it down, on
// every path. Ports and switch and recovery counters stay readable
// afterwards.
func (c *Cluster) Run(job Job) (*AsyncStats, error) {
	defer c.k.Shutdown()
	if err := job.Validate(c.Spec); err != nil {
		return nil, err
	}
	agents := job.Agents(len(c.Workers()), c.Spec.ModelFloats)
	var stats *AsyncStats
	switch {
	case job.Iterations > 0:
		stats = spawnSync(c.k, agents, c.Client, job, nil)
	case c.PS != nil:
		master := job.Master
		if master == nil {
			master = NewSyntheticAgent(c.Spec.ModelFloats)
		}
		stats = c.PS.spawnAsync(c.k, agents, master, job)
	default: // Validate admits no other async mode
		stats = c.ISW.spawnAsync(c.k, agents, job, nil)
	}
	c.k.Run()
	return stats, nil
}

// Spawn is Run's in-switch half for a kernel several jobs share: it
// spawns job's processes, agents[i] on worker i, without running the
// kernel. The stats are complete once the kernel drains; done, when
// non-nil, fires in kernel context when the job's last worker finishes.
func (c *ISWCluster) Spawn(k *sim.Kernel, agents []rl.Agent, job Job, done func()) *AsyncStats {
	if job.Updates > 0 {
		return c.spawnAsync(k, agents, job, done)
	}
	return spawnSync(k, agents, c.Client, job, done)
}
