// Package multijob runs several distributed RL training jobs
// concurrently over one simulated in-switch-aggregation fabric.
//
// The paper evaluates iSwitch with one job owning the switch; a
// production rack is shared. This package models that sharing end to
// end: every job gets its own aggregation context on each switch it
// touches (segment buffers carved from a finite SRAM pool, its own
// membership table and threshold), data packets are demultiplexed by
// the JobID carried in the IPv4 Identification field, concurrent jobs'
// bursts contend on the accelerator's 256-bit bus, and an admission
// controller queues jobs whose SRAM demand does not fit. Admission
// order is a pluggable Policy (FabricConfig.Admission): the default is
// strict FIFO, so a large job is never starved by small latecomers;
// WeightedFair backfills small jobs into the gaps with a bounded
// bypass count, and PriorityPreempt checkpoints lower-priority
// preemptible tenants out of the switches to admit urgent work (the
// contract is DESIGN.md §10).
//
// A fabric carrying exactly one admitted job is bit- and clock-
// identical to the single-tenant path (pinned by tests): the job tag
// costs zero wire bytes, a lone job never waits on the shared bus, and
// SRAM reservation is control-plane-only.
package multijob

import (
	"fmt"
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/core"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

// Mode labels a job's training discipline in its result. A JobSpec
// picks the discipline by the length it sets: Iterations or Updates.
type Mode int

const (
	// ModeSync is synchronous training (global barrier per iteration).
	ModeSync Mode = iota
	// ModeAsync is the asynchronous LGC/LWU pipeline (Algorithm 1).
	ModeAsync
)

// String names the mode for reports.
func (m Mode) String() string {
	if m == ModeAsync {
		return "async"
	}
	return "sync"
}

// JobSpec describes one training job submitted to a shared fabric.
type JobSpec struct {
	// Name labels the job in reports (defaults to the workload name).
	Name string
	// Workload supplies the model size and calibrated compute/update
	// times (perfmodel Table 1).
	Workload perfmodel.Workload
	// Workers is how many fabric hosts the job occupies.
	Workers int
	// Mode must be left unset (ModeSync): the length a spec sets picks
	// its discipline, and Run rejects any other value.
	//
	// Deprecated: set Updates for the asynchronous pipeline. The field
	// stays while benchmark/ writes it.
	Mode Mode
	// Iterations is the synchronous iteration count; Updates and
	// StalenessBound drive the asynchronous pipeline. A spec sets
	// exactly one of Iterations and Updates, which picks the discipline.
	Iterations     int
	Updates        int64
	StalenessBound int64
	// ModelFloats overrides the gradient length (0 selects the
	// workload's full model — tests use small overrides to keep
	// simulations fast without changing the code path).
	ModelFloats int
	// NewAgent, when non-nil, constructs worker i's agent (equivalence
	// tests inject seeded real agents); nil selects timing-only
	// synthetic agents.
	NewAgent func(worker int) rl.Agent

	// SubmitAt delays the job's submission to the admission queue
	// (virtual time; 0 submits at simulation start).
	SubmitAt time.Duration
	// Weight is the job's fair share under WeightedFair admission and
	// egress shaping (<= 0 counts as 1). When any job in a multi-job
	// run sets a positive weight, per-job token buckets are installed
	// on every contended switch port so a job's share of an
	// oversubscribed link is bounded by its weight fraction.
	Weight float64
	// Priority orders admission under PriorityPreempt (higher wins).
	Priority int
	// Preemptible consents to checkpoint/restore: the scheduler may
	// detach this job's switch contexts (partial aggregates, dedup
	// bitmaps, membership) to make room for another tenant and attach
	// them again later, bit-identically. Requires a synchronous job
	// (Iterations, not Updates) and a positive RecoveryTimeout —
	// preempted workers ride the loss-recovery path (retransmission +
	// switch dedup) across the gap.
	Preemptible bool
	// RecoveryTimeout arms worker-side loss recovery (core.ISWConfig);
	// it also enables the switch dedup bitmap for this job, which
	// checkpoint/restore and link-fault tolerance both require.
	RecoveryTimeout time.Duration
	// Elastic, when non-nil, flexes the job's worker count mid-run
	// (synchronous jobs only: each phase sets its own Iterations, and
	// Updates must stay 0). Workers must cover the largest phase.
	Elastic *ElasticPlan
	// Adversary, when non-nil, runs the job as an open-loop adversarial
	// tenant (no training: a tagged data flood for Duration) used by
	// the isolation experiments.
	Adversary *AdversaryPlan
	// Faults injects link faults (loss, down windows) on this job's
	// worker NICs; Worker indices are job-local. Crash and switch
	// faults are not supported here — use core.ClusterSpec for those.
	Faults *netsim.FaultPlan
}

func (s JobSpec) name() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Workload.Name
}

func (s JobSpec) floats() int {
	if s.ModelFloats > 0 {
		return s.ModelFloats
	}
	return s.Workload.Floats()
}

// job is the training run the spec asks core for: its length, the
// workload's step times and the agents (an elastic phase sets its own
// Iterations).
func (s JobSpec) job() core.Job {
	return core.Job{Iterations: s.Iterations, Updates: s.Updates, StalenessBound: s.StalenessBound,
		LocalCompute: s.Workload.LocalCompute, WeightUpdate: s.Workload.WeightUpdate, NewAgent: s.NewAgent}
}

// mode labels the discipline the spec's length picks.
func (s JobSpec) mode() Mode {
	if s.Updates > 0 {
		return ModeAsync
	}
	return ModeSync
}

// FabricConfig parameterizes the shared-resource model of every switch
// in a fabric.
type FabricConfig struct {
	// SRAMBytes is each switch's aggregation SRAM (0 selects
	// accel.DefaultSRAMBytes).
	SRAMBytes int64
	// Policy selects how SRAM is carved between jobs.
	Policy accel.Partition
	// MaxJobs bounds the static partition's slot count (0 selects 8).
	MaxJobs int
	// Admission selects the queue policy (nil selects strict FIFO).
	Admission Policy
}

// Fabric is a built multi-tenant topology: hosts, iSwitch-enabled
// switches with per-switch SRAM pools and shared buses, and the
// per-host aggregation path (contributing switch up to the root) that
// admission walks.
type Fabric struct {
	K     *sim.Kernel
	Hosts []*netsim.Host

	// target[i] is the switch address host i's gradients go to; path[i]
	// is host i's aggregation chain, leaf switch first, root last.
	target []protocol.Addr
	path   [][]*switchnet.ISwitch

	// Switches lists every iSwitch in the fabric, root first.
	Switches []*switchnet.ISwitch

	cfg  FabricConfig
	next int // host-allocation cursor
}

// NewFabric makes a built iSwitch fabric multi-tenant: every switch
// gets its own SRAM pool and shared bus (cfg), and the fabric's
// per-worker chains become the paths admission walks.
func NewFabric(k *sim.Kernel, fab *switchnet.Fabric, cfg FabricConfig) *Fabric {
	f := &Fabric{K: k, Hosts: fab.Workers, Switches: fab.Switches, cfg: cfg}
	for i := range fab.Workers {
		f.target = append(f.target, fab.Leaf(i).Addr())
		f.path = append(f.path, fab.Chain(i))
	}
	for _, is := range f.Switches {
		is.SetTenancy(accel.NewSRAMPool(cfg.SRAMBytes, cfg.Policy, cfg.MaxJobs),
			accel.NewSharedBus())
	}
	return f
}

// NewFatTreeFabric is NewFabric over switchnet.BuildFatTree: kAry=8
// with hostsPerEdge=32 is the 1024-worker rackscale shape the
// ladder-queue kernel is sized for.
func NewFatTreeFabric(k *sim.Kernel, kAry, hostsPerEdge int,
	edge, aggLink, coreLink netsim.LinkConfig, cfg FabricConfig) *Fabric {
	return NewFabric(k, switchnet.BuildFatTree(k, kAry, hostsPerEdge, edge, aggLink, coreLink), cfg)
}

// NewFabricFromSpec builds a multi-tenant fabric from the same
// declarative core.ClusterSpec the single-job Build consumes: the
// spec's topology shape and link tiers pick the fabric, cfg supplies
// the tenancy model (SRAM partition, admission policy). Shape rules and
// link defaults are core's (ClusterSpec.ResolveFabric), so a shape
// Build would reject is an error here too, never a panic downstream.
// The spec's Mode and per-mode configs are ignored — every tenant names
// its own workload in its JobSpec.
func NewFabricFromSpec(k *sim.Kernel, spec core.ClusterSpec, cfg FabricConfig) (*Fabric, error) {
	fab, err := spec.BuildFabric(k)
	if err != nil {
		return nil, fmt.Errorf("multijob: %w", err)
	}
	return NewFabric(k, fab, cfg), nil
}

// FreeHosts reports how many fabric hosts are still unassigned.
func (f *Fabric) FreeHosts() int { return len(f.Hosts) - f.next }

// allocHosts claims the next n hosts for a job.
func (f *Fabric) allocHosts(n int) ([]*netsim.Host, []protocol.Addr, [][]*switchnet.ISwitch, error) {
	if n <= 0 {
		return nil, nil, nil, fmt.Errorf("multijob: job needs at least one worker")
	}
	if f.next+n > len(f.Hosts) {
		return nil, nil, nil, fmt.Errorf("multijob: fabric has %d free hosts, job wants %d",
			f.FreeHosts(), n)
	}
	lo := f.next
	f.next += n
	return f.Hosts[lo : lo+n], f.target[lo : lo+n], f.path[lo : lo+n], nil
}

// switchesFor dedupes the switches on a set of aggregation chains,
// leaf levels first (admission order does not matter; eviction walks
// the same list).
func switchesFor(chains [][]*switchnet.ISwitch) []*switchnet.ISwitch {
	seen := make(map[*switchnet.ISwitch]bool)
	var out []*switchnet.ISwitch
	for level := 0; ; level++ {
		any := false
		for _, chain := range chains {
			if level >= len(chain) {
				continue
			}
			any = true
			if is := chain[level]; !seen[is] {
				seen[is] = true
				out = append(out, is)
			}
		}
		if !any {
			return out
		}
	}
}

// admit reserves job contexts on every switch of the job's chains,
// rolling back on partial failure, then wires the per-job hierarchy
// membership (each parent learns which child switches forward the
// job's partial aggregates).
func (f *Fabric) admit(job protocol.JobID, modelFloats int, chains [][]*switchnet.ISwitch) error {
	sws := switchesFor(chains)
	for i, is := range sws {
		if err := is.AdmitJob(job, uint64(modelFloats)); err != nil {
			for _, done := range sws[:i] {
				done.EvictJob(job)
			}
			return err
		}
	}
	for _, chain := range chains {
		for level := 0; level+1 < len(chain); level++ {
			chain[level+1].RegisterChildSwitchJob(job, chain[level].Addr())
		}
	}
	return nil
}

// evict tears the job's contexts down on every involved switch,
// releasing SRAM for queued jobs.
func (f *Fabric) evict(job protocol.JobID, chains [][]*switchnet.ISwitch) {
	for _, is := range switchesFor(chains) {
		is.EvictJob(job)
	}
}

// feasible reports whether a job of the given model size could ever be
// admitted, even on an otherwise-empty fabric. Infeasible jobs are
// rejected outright rather than queued (a queued infeasible job would
// head-block the FIFO forever).
func (f *Fabric) feasible(modelFloats int) bool {
	demand := accel.ContextDemand(modelFloats, protocol.FloatsPerPacket)
	for _, is := range f.Switches {
		pool := is.SRAMPool()
		if pool == nil {
			continue
		}
		limit := pool.Capacity()
		if pool.Policy() == accel.PartitionStatic {
			// Static partitioning caps every context at one slot; a
			// demand above that can never be reserved, even on an
			// otherwise empty switch.
			limit = pool.Capacity() / int64(pool.MaxJobs())
		}
		if demand > limit {
			return false
		}
	}
	return true
}

// WireBytesFor sums the job-tagged bytes transmitted on every link of
// the fabric (each packet counted once per hop, so this is a
// byte·hops bandwidth-usage measure, the input to fair-share
// accounting).
func (f *Fabric) WireBytesFor(job protocol.JobID) uint64 {
	var total uint64
	for _, is := range f.Switches {
		for _, port := range is.Switch().Ports() {
			total += port.TxBytesByJob(job)
		}
	}
	for _, h := range f.Hosts {
		total += h.Port().TxBytesByJob(job)
	}
	return total
}
