package engine

import (
	"fmt"

	"iswitch/internal/protocol"
)

// Job preemption: the control-plane operation behind SRAM preemption.
// PreemptJob detaches a job's context from the switch and frees its SRAM
// for another tenant; RestoreJob attaches the same context again. The
// context is everything the job holds on this switch — membership rows
// with their assigned IDs and the ID allocator, the negotiated scheme,
// auto-H mode, the accelerator's pending segments and dedup bitmaps, the
// shadow slots — and nothing of it is copied. A restored job resumes
// mid-round exactly: contributions that were already summed stay summed,
// the dedup bitmap still rejects retransmissions of them, the shadow
// slots keep re-serving the rounds they held, and an emission that was
// waiting out the accelerator's latency at the preemption keeps its
// shadow share in the context it left.
//
// The one thing a preemption drops is liveness: lastSeen is re-learned
// from the first packets after the restore, so a preemption window never
// ages members toward eviction.

// JobCheckpoint is a preempted job's context, detached from one switch.
type JobCheckpoint struct {
	Job protocol.JobID
	// SRAMDemand is the pool reservation the job held when it was
	// preempted (0 on unmetered switches); the restore re-reserves
	// exactly it.
	SRAMDemand int64
	ctx        *jobCtx // nil once restored
}

// PreemptJob detaches an admitted job's context, releasing its SRAM and
// bus state. The returned checkpoint restores the job once, via
// RestoreJob. The default job cannot be preempted.
func (e *Engine) PreemptJob(job protocol.JobID) (*JobCheckpoint, error) {
	if job == protocol.DefaultJob {
		return nil, fmt.Errorf("engine: the default job cannot be preempted")
	}
	var demand int64
	if e.pool != nil {
		demand = e.pool.Reserved(uint16(job))
	}
	ctx := e.detach(job)
	if ctx == nil {
		return nil, fmt.Errorf("engine: job %d is not admitted on %s", job, e.addr)
	}
	ctx.lastSeen = nil
	return &JobCheckpoint{Job: job, SRAMDemand: demand, ctx: ctx}, nil
}

// RestoreJob re-admits a preempted job, re-reserving its SRAM and
// attaching the context PreemptJob detached. It fails if the checkpoint
// was already restored, if the job is admitted (a restore is not a
// merge) or if the SRAM no longer fits.
func (e *Engine) RestoreJob(cp *JobCheckpoint) error {
	if cp.ctx == nil {
		return fmt.Errorf("engine: job %d's checkpoint was already restored", cp.Job)
	}
	if e.ctx(cp.Job) != nil {
		return fmt.Errorf("engine: job %d is already admitted on %s", cp.Job, e.addr)
	}
	if e.pool != nil {
		if err := e.pool.Reserve(uint16(cp.Job), cp.SRAMDemand); err != nil {
			return err
		}
	}
	e.attach(cp.ctx)
	cp.ctx = nil
	return nil
}
