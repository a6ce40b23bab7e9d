package multijob

import (
	"fmt"
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/core"
	"iswitch/internal/engine"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/switchnet"
)

// JobResult is one job's outcome on the shared fabric.
type JobResult struct {
	Job      protocol.JobID
	Name     string
	Workload string
	Mode     Mode
	Workers  int
	// ModelFloats is the gradient length the job actually ran with.
	ModelFloats int
	// Weight and Priority echo the spec (fair-share accounting inputs).
	Weight   float64
	Priority int
	// Adversary marks non-training flood tenants.
	Adversary bool

	// Rejected jobs can never fit the fabric (demand above a switch's
	// SRAM capacity) and did not run at all.
	Rejected bool
	// Queued reports whether admission control deferred the job behind
	// earlier tenants before it started.
	Queued bool
	// Preemptions counts how many times the job was checkpointed out of
	// the switches mid-run to make room for another tenant.
	Preemptions int

	// Started and Finished are virtual-clock bounds of the job's run
	// (Started > 0 for jobs that waited in the admission queue).
	Started, Finished time.Duration
	// MeanRound is the mean per-iteration (sync) or inter-update
	// (async) time across the job's workers.
	MeanRound time.Duration
	// Rounds is iterations (sync) or weight updates (async) completed.
	Rounds int64
	// GradBytes is the gradient volume the fabric aggregated for this
	// job: rounds × workers × model bytes.
	GradBytes uint64
	// WireBytes is the job-tagged traffic summed over every fabric link
	// (byte·hops), the fair-share accounting input.
	WireBytes uint64

	// Sync/Async expose the underlying run statistics (exactly one is
	// non-nil for non-elastic training jobs that ran).
	Sync  *core.RunStats
	Async *core.AsyncStats
}

type jobRun struct {
	spec    JobSpec
	id      protocol.JobID
	arrival int
	demand  int64 // per-switch SRAM the job reserves
	hosts   []*netsim.Host
	targets []protocol.Addr
	chains  [][]*switchnet.ISwitch
	res     *JobResult
	started bool
	// bypassed counts later arrivals admitted past this queued job.
	bypassed int
	// cps holds the per-switch checkpoints while the job is preempted,
	// aligned with switchesFor(chains); non-nil means re-admission goes
	// through RestoreJob instead of AdmitJob.
	cps []*engine.JobCheckpoint

	// Elastic accumulators (per-phase stats summed by finish).
	elRounds   int64
	elRoundSum time.Duration
	elGrad     uint64
}

type scheduler struct {
	f       *Fabric
	policy  Policy
	queue   []*jobRun
	running []*jobRun
	all     []*jobRun
}

// shaperBurstBytes is the floor of the per-job egress token-bucket
// depth: a few MTUs, so tiny-model jobs never hit an empty bucket.
// The actual depth is the larger of this and twice one round's
// gradient (see shaperBurst) — a closed-loop tenant's per-round
// partial burst is admitted unpoliced while a sustained over-rate
// flood drains the bucket and has its excess dropped at egress. A
// weighted job that nonetheless overdrives its share loses frames and
// must recover via its RecoveryTimeout, so weighted specs should arm
// one (see DESIGN.md §10).
const shaperBurstBytes = 6144

// shaperBurst sizes a job's token-bucket depth: twice its per-round
// gradient volume on any one link, floored at shaperBurstBytes.
func shaperBurst(spec JobSpec) float64 {
	if b := float64(2 * spec.floats() * 4); b > shaperBurstBytes {
		return b
	}
	return shaperBurstBytes
}

// Run submits specs to the fabric and simulates until every admitted
// job completes. Queued jobs are offered freed SRAM in the order the
// fabric's admission Policy dictates — strict FIFO by default (no job
// is ever starved, at the cost of head-of-line blocking), weighted-
// fair backfilling or priority preemption when configured. Jobs whose
// demand exceeds a switch's SRAM capacity outright are marked Rejected
// and never run. Results are returned in spec order.
func Run(f *Fabric, specs []JobSpec) ([]*JobResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("multijob: no jobs submitted")
	}
	s := &scheduler{f: f, policy: f.cfg.Admission}
	if s.policy == nil {
		s.policy = FIFO()
	}
	weighted := false
	for i, spec := range specs {
		if err := validateSpec(spec); err != nil {
			return nil, fmt.Errorf("multijob: job %q: %w", spec.name(), err)
		}
		if spec.Weight > 0 {
			weighted = true
		}
		jr := &jobRun{
			spec: spec, arrival: i,
			id:     protocol.JobID(i + 1),
			demand: accel.ContextDemand(spec.floats(), protocol.FloatsPerPacket),
			res: &JobResult{
				Job: protocol.JobID(i + 1), Name: spec.name(),
				Workload: spec.Workload.Name, Mode: spec.Mode,
				Workers: spec.Workers, ModelFloats: spec.floats(),
				Weight: spec.Weight, Priority: spec.Priority,
				Adversary: spec.Adversary != nil,
			},
		}
		s.all = append(s.all, jr)
		if !f.feasible(spec.floats()) {
			jr.res.Rejected = true
			continue
		}
		hosts, targets, chains, err := f.allocHosts(spec.Workers)
		if err != nil {
			return nil, fmt.Errorf("multijob: job %q: %w", spec.name(), err)
		}
		jr.hosts, jr.targets, jr.chains = hosts, targets, chains
		if at := spec.SubmitAt; at > 0 {
			jr := jr
			f.K.After(at, func() {
				s.queue = append(s.queue, jr)
				s.tryAdmit()
			})
		} else {
			s.queue = append(s.queue, jr)
		}
	}
	if weighted && len(specs) > 1 {
		s.armShaping()
	}
	s.tryAdmit()
	f.K.Run()
	// Release switch/server processes still parked on their RX channels
	// so a sweep over many fabrics does not accumulate goroutines.
	f.K.Shutdown()

	results := make([]*JobResult, len(s.all))
	for i, jr := range s.all {
		if !jr.res.Rejected && !jr.started {
			return nil, fmt.Errorf("multijob: job %q was never admitted (queue deadlock?)", jr.spec.name())
		}
		if jr.started && jr.res.Finished == 0 {
			return nil, fmt.Errorf("multijob: job %q never completed", jr.spec.name())
		}
		results[i] = jr.res
	}
	return results, nil
}

// validateSpec rejects spec combinations the scheduler cannot honor.
func validateSpec(spec JobSpec) error {
	// job() reads only the length of the spec's mode: the other one
	// would be dropped without a word.
	if spec.Mode == ModeSync && spec.Updates > 0 {
		return fmt.Errorf("a synchronous job sets Iterations, not Updates (got Updates %d); set Mode to ModeAsync to run Algorithm 1", spec.Updates)
	}
	if spec.Mode == ModeAsync && spec.Iterations > 0 {
		return fmt.Errorf("an asynchronous job sets Updates, not Iterations (got Iterations %d)", spec.Iterations)
	}
	if spec.Preemptible {
		if spec.Mode != ModeSync {
			return fmt.Errorf("preemptible jobs must be synchronous")
		}
		if spec.RecoveryTimeout <= 0 {
			return fmt.Errorf("preemptible jobs need RecoveryTimeout > 0 (workers ride loss recovery across the preemption gap)")
		}
		if spec.Elastic != nil || spec.Adversary != nil {
			return fmt.Errorf("preemptible jobs cannot be elastic or adversarial")
		}
	}
	if spec.Adversary != nil {
		if spec.Elastic != nil {
			return fmt.Errorf("a job cannot be both adversarial and elastic")
		}
		if spec.Adversary.Duration <= 0 {
			return fmt.Errorf("adversary needs a positive Duration")
		}
	}
	if el := spec.Elastic; el != nil {
		if spec.Mode != ModeSync {
			return fmt.Errorf("elastic jobs must be synchronous")
		}
		if len(el.Phases) == 0 {
			return fmt.Errorf("elastic plan has no phases")
		}
		for i, ph := range el.Phases {
			if ph.Workers < 1 || ph.Workers > spec.Workers {
				return fmt.Errorf("elastic phase %d wants %d workers, spec allocates %d", i, ph.Workers, spec.Workers)
			}
			if ph.Iterations < 1 {
				return fmt.Errorf("elastic phase %d has no iterations", i)
			}
		}
	}
	if spec.Adversary == nil && spec.Elastic == nil {
		if err := spec.job().Validate(core.ClusterSpec{Mode: core.ModeISW}); err != nil {
			return err
		}
	}
	if fp := spec.Faults; fp != nil {
		if len(fp.Crashes) > 0 || len(fp.Switches) > 0 {
			return fmt.Errorf("multijob fault injection supports link faults only")
		}
		for _, lf := range fp.Links {
			if lf.Worker < 0 || lf.Worker >= spec.Workers {
				return fmt.Errorf("link fault names worker %d of %d", lf.Worker, spec.Workers)
			}
		}
		if spec.RecoveryTimeout <= 0 {
			return fmt.Errorf("link faults need RecoveryTimeout > 0 to recover")
		}
	}
	return nil
}

// info is the policy's view of a job.
func (s *scheduler) info(jr *jobRun) JobInfo {
	return JobInfo{
		ID: jr.id, Name: jr.spec.name(), Arrival: jr.arrival,
		Weight: jr.spec.Weight, Priority: jr.spec.Priority,
		DemandBytes: jr.demand, Bypassed: jr.bypassed,
		Preemptible: jr.spec.Preemptible, Preempted: jr.cps != nil,
	}
}

func (s *scheduler) infos(runs []*jobRun) []JobInfo {
	out := make([]JobInfo, len(runs))
	for i, jr := range runs {
		out[i] = s.info(jr)
	}
	return out
}

// tryAdmit offers freed SRAM to queued jobs in policy order until a
// full pass admits nobody. Reserve (inside admit/restore) stays the
// authoritative check; a refusal counts SRAM pressure on the refusing
// switch's pool.
func (s *scheduler) tryAdmit() {
	for len(s.queue) > 0 {
		admitted := -1
		order := s.policy.Order(s.infos(s.queue))
		for _, qi := range order {
			if qi < 0 || qi >= len(s.queue) {
				continue // defensive against misbehaving policies
			}
			jr := s.queue[qi]
			ok := s.admitOne(jr)
			if !ok {
				if victims := s.policy.Victims(s.info(jr), s.infos(s.running)); len(victims) > 0 {
					if s.preemptFor(jr, victims) {
						ok = s.admitOne(jr)
					}
				}
			}
			if ok {
				admitted = qi
				break // queue indices shifted; restart the pass
			}
			if s.policy.Strict() {
				break
			}
		}
		if admitted < 0 {
			// No progress: everything still queued is deferred.
			for _, waiting := range s.queue {
				waiting.res.Queued = true
			}
			return
		}
		jr := s.queue[admitted]
		s.queue = append(s.queue[:admitted], s.queue[admitted+1:]...)
		for _, q := range s.queue {
			if q.arrival < jr.arrival {
				q.bypassed++
			}
		}
	}
}

// admitOne reserves the job's switch contexts (fresh admission) or
// restores its checkpoints (re-admission after preemption). On success
// the job is running.
func (s *scheduler) admitOne(jr *jobRun) bool {
	if jr.cps != nil {
		return s.restoreOne(jr)
	}
	if err := s.f.admit(jr.id, jr.spec.floats(), jr.chains); err != nil {
		return false
	}
	if jr.spec.RecoveryTimeout > 0 {
		// Loss recovery (and preemption, which rides it) needs the
		// switch dedup bitmap so retransmissions stay idempotent.
		for _, is := range switchesFor(jr.chains) {
			is.SetDedupJob(jr.id, true)
		}
	}
	s.running = append(s.running, jr)
	s.start(jr)
	return true
}

// restoreOne re-attaches a preempted job's contexts, all or nothing: a
// refusal on any switch preempts the restored prefix again, and the new
// checkpoints wait for the next attempt.
func (s *scheduler) restoreOne(jr *jobRun) bool {
	sws := switchesFor(jr.chains)
	for i, is := range sws {
		if err := is.RestoreJob(jr.cps[i]); err != nil {
			for j, done := range sws[:i] {
				// It was attached a moment ago: detaching cannot fail.
				jr.cps[j], _ = done.PreemptJob(jr.id)
			}
			return false
		}
	}
	jr.cps = nil
	s.running = append(s.running, jr)
	return true
}

// preemptFor checkpoints out the shortest prefix of the policy's
// victim list predicted to make jr fit. Without that prediction a
// too-small victim set would be evicted for nothing (and an evict/
// restore ping-pong could livelock); with it, preemption only happens
// when it provably frees enough SRAM.
func (s *scheduler) preemptFor(jr *jobRun, victims []protocol.JobID) bool {
	byID := make(map[protocol.JobID]*jobRun, len(s.running))
	for _, r := range s.running {
		byID[r.id] = r
	}
	var prefix []*jobRun
	for _, v := range victims {
		vr := byID[v]
		if vr == nil || !vr.spec.Preemptible {
			continue
		}
		prefix = append(prefix, vr)
		if !s.fitsAfterEvicting(jr, prefix) {
			continue
		}
		for _, vr := range prefix {
			if !s.preempt(vr) {
				return false
			}
		}
		return true
	}
	return false
}

// fitsAfterEvicting predicts whether jr's reservation would succeed on
// every switch of its chains once the given victims release theirs.
// It mirrors accel.SRAMPool.Reserve exactly.
func (s *scheduler) fitsAfterEvicting(jr *jobRun, victims []*jobRun) bool {
	victimHolds := func(vr *jobRun, is *switchnet.ISwitch) bool {
		for _, vs := range switchesFor(vr.chains) {
			if vs == is {
				return true
			}
		}
		return false
	}
	sws := switchesFor(jr.chains)
	for i, is := range sws {
		pool := is.SRAMPool()
		if pool == nil {
			continue
		}
		demand := jr.demand
		if jr.cps != nil {
			demand = jr.cps[i].SRAMDemand
		}
		var freedBytes int64
		freedSlots := 0
		for _, vr := range victims {
			if victimHolds(vr, is) {
				freedBytes += pool.Reserved(uint16(vr.id))
				freedSlots++
			}
		}
		if pool.Policy() == accel.PartitionStatic {
			slot := pool.Capacity() / int64(pool.MaxJobs())
			if demand > slot || pool.Jobs()-freedSlots >= pool.MaxJobs() {
				return false
			}
		} else if demand > pool.Free()+freedBytes {
			return false
		}
	}
	return true
}

// preempt detaches a running job's contexts from every switch it
// occupies and re-queues it. The job's workers keep running: their
// uploads fall on deaf switches until the restore, then the
// loss-recovery path (retransmission + dedup) resumes the round exactly.
func (s *scheduler) preempt(vr *jobRun) bool {
	sws := switchesFor(vr.chains)
	cps := make([]*engine.JobCheckpoint, len(sws))
	for i, is := range sws {
		cp, err := is.PreemptJob(vr.id)
		if err != nil {
			for j := 0; j < i; j++ { // roll the detached prefix back
				_ = sws[j].RestoreJob(cps[j])
			}
			return false
		}
		cps[i] = cp
	}
	vr.cps = cps
	vr.bypassed = 0 // the evicted job must not instantly freeze the queue
	vr.res.Preemptions++
	s.removeRunning(vr)
	s.queue = append(s.queue, vr)
	return true
}

func (s *scheduler) removeRunning(jr *jobRun) {
	for i, r := range s.running {
		if r == jr {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
}

// armShaping installs per-job egress policers on every switch port
// where two or more weighted jobs' aggregation chains contend, each
// job's token bucket refilling at its weight fraction of the line rate
// (over-rate frames drop at egress, see netsim.Shaper). Host-facing
// ports have a single tenant and stay unpoliced, as does every port in
// a single-job run — the legacy byte-identity path.
func (s *scheduler) armShaping() {
	type portKey struct {
		is   *switchnet.ISwitch
		port *netsim.Port
	}
	jobsOn := make(map[portKey]map[*jobRun]bool)
	note := func(k portKey, jr *jobRun) {
		if jobsOn[k] == nil {
			jobsOn[k] = make(map[*jobRun]bool)
		}
		jobsOn[k][jr] = true
	}
	for _, jr := range s.all {
		if jr.res.Rejected {
			continue
		}
		for _, chain := range jr.chains {
			for lvl := 0; lvl+1 < len(chain); lvl++ {
				up := chain[lvl].Uplink()
				note(portKey{chain[lvl], up}, jr)          // partials up
				note(portKey{chain[lvl+1], up.Peer()}, jr) // broadcasts down
			}
		}
	}
	for k, jobs := range jobsOn {
		if len(jobs) < 2 {
			continue // uncontended: never shape a lone tenant
		}
		var sum float64
		for jr := range jobs {
			sum += weightOr1(jr.spec.Weight)
		}
		for jr := range jobs {
			k.is.LimitJobEgressOn(k.port, jr.id, weightOr1(jr.spec.Weight)/sum, shaperBurst(jr.spec))
		}
	}
}

// start spawns the job's training processes at the current virtual
// time.
func (s *scheduler) start(jr *jobRun) {
	jr.started = true
	jr.res.Started = s.f.K.Now()

	if fp := jr.spec.Faults; fp != nil {
		for _, lf := range fp.Links {
			up := jr.hosts[lf.Worker].Port()
			fp.ApplyLink(lf, up, up.Peer())
		}
	}
	if jr.spec.Adversary != nil {
		s.startAdversary(jr)
		return
	}
	if jr.spec.Elastic != nil {
		s.startElastic(jr)
		return
	}

	spec := jr.spec
	job := spec.job()
	cfg := core.DefaultISWConfig()
	cfg.Job = jr.id
	cfg.RecoveryTimeout = spec.RecoveryTimeout
	cluster := core.NewISWOnFabric(jr.hosts, jr.targets, spec.floats(), spec.Workers, cfg)

	stats := cluster.Spawn(s.f.K, job.Agents(spec.Workers, spec.floats()), job, func() { s.finish(jr) })
	if spec.Mode == ModeAsync {
		jr.res.Async = stats
	} else {
		jr.res.Sync = &stats.RunStats
	}
}

// finish runs in kernel context when the job's last worker completes:
// record its outcome, release its switch contexts, and admit queued
// jobs into the freed SRAM.
func (s *scheduler) finish(jr *jobRun) {
	s.removeRunning(jr)
	if jr.cps != nil {
		// The job completed while preempted (detached after its final
		// broadcast had already left the switches): drop the
		// checkpoints and pull it off the queue.
		jr.cps = nil
		for i, q := range s.queue {
			if q == jr {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
	}
	jr.res.Finished = s.f.K.Now()
	s.f.evict(jr.id, jr.chains)

	spec := jr.spec
	switch {
	case spec.Elastic != nil:
		jr.res.Rounds = jr.elRounds
		if jr.elRounds > 0 {
			jr.res.MeanRound = jr.elRoundSum / time.Duration(jr.elRounds)
		}
		jr.res.GradBytes = jr.elGrad
	case jr.res.Sync != nil:
		jr.res.MeanRound = jr.res.Sync.MeanIter()
		jr.res.Rounds = jr.res.Sync.Updates
	case jr.res.Async != nil:
		jr.res.MeanRound = jr.res.Async.MeanIter()
		jr.res.Rounds = jr.res.Async.Updates
	}
	if spec.Elastic == nil {
		jr.res.GradBytes = uint64(jr.res.Rounds) * uint64(spec.Workers) * uint64(spec.floats()) * 4
	}
	jr.res.WireBytes = s.f.WireBytesFor(jr.id)

	s.tryAdmit()
}

// JainOver computes Jain's fairness index over the achieved wire
// throughput (bytes per active second) of the results selected by
// keep — compliant tenants, typically; the isolation experiments
// exclude the adversary. Rate, not volume: iteration-bounded jobs all
// move the same bytes eventually, so volume shares are trivially fair
// even when one tenant was starved to a crawl. Throughput shares are
// what an adversary actually distorts.
func JainOver(results []*JobResult, keep func(*JobResult) bool) float64 {
	var shares []float64
	for _, r := range results {
		if r.Rejected || (keep != nil && !keep(r)) {
			continue
		}
		active := (r.Finished - r.Started).Seconds()
		if active <= 0 {
			continue
		}
		shares = append(shares, float64(r.WireBytes)/active)
	}
	return perfmodel.JainFairness(shares)
}
