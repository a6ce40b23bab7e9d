package engine

import (
	"encoding/binary"
	"fmt"

	"iswitch/internal/accel"
	"iswitch/internal/protocol"
)

// Job checkpoint/restore: the control-plane operation behind SRAM
// preemption. CheckpointJob serializes everything a job's context holds
// on this switch — membership rows (with their assigned IDs), the
// negotiated scheme, auto-H mode, the accelerator's pending segment
// state, and the shadow slots — so the scheduler can evict the job,
// hand its SRAM to another tenant, and later restore the context
// bit-identically. A restored job resumes mid-round: contributions that
// were already summed stay summed, the dedup bitmap still rejects
// retransmissions of them, and shadow slots keep re-serving the rounds
// they held.
//
// What is deliberately NOT checkpointed: liveness timestamps (lastSeen
// is re-learned from the first packets after restore — a preemption
// window must not age members toward eviction) and the activity
// counters (observability, not state).

// JobCheckpoint is one job's serialized context on one switch.
type JobCheckpoint struct {
	Job         protocol.JobID
	ModelFloats uint64
	// SRAMDemand is the pool reservation the job held at checkpoint
	// time (0 on unmetered switches); restore re-reserves exactly it.
	SRAMDemand int64
	Scheme     protocol.Compression
	AutoH      bool
	// HelpUpSince preserves the parent-path health counter so a restore
	// mid-recovery does not reset failover escalation.
	HelpUpSince int
	// Members are the membership rows in join order, IDs included.
	// NextID preserves the table's ID allocator so IDs assigned after
	// restore never collide with pre-checkpoint ones.
	Members []Member
	NextID  int
	Acc     *accel.AccSnapshot
	Shadow  *accel.ShadowSnapshot
}

// CheckpointJob serializes an admitted job's context. The context is
// left untouched; pair with EvictJob (or use PreemptJob) to free the
// SRAM. The default job cannot be checkpointed.
func (e *Engine) CheckpointJob(job protocol.JobID) (*JobCheckpoint, error) {
	if job == protocol.DefaultJob {
		return nil, fmt.Errorf("engine: the default job cannot be checkpointed")
	}
	ctx := e.jobs[job]
	if ctx == nil {
		return nil, fmt.Errorf("engine: job %d is not admitted on %s", job, e.addr)
	}
	cp := &JobCheckpoint{
		Job:         job,
		ModelFloats: ctx.modelFloats,
		Scheme:      ctx.scheme,
		AutoH:       ctx.autoH,
		HelpUpSince: ctx.helpUpSince,
		Members:     append([]Member(nil), ctx.mem.members...),
		NextID:      ctx.mem.nextID,
		Acc:         ctx.acc.Snapshot(),
		Shadow:      ctx.shadow.Snapshot(),
	}
	if e.pool != nil {
		cp.SRAMDemand = e.pool.Reserved(uint16(job))
	}
	return cp, nil
}

// PreemptJob checkpoints a job and evicts it in one step, freeing its
// SRAM for another tenant. The returned checkpoint restores the job
// bit-identically via RestoreJob.
func (e *Engine) PreemptJob(job protocol.JobID) (*JobCheckpoint, error) {
	cp, err := e.CheckpointJob(job)
	if err != nil {
		return nil, err
	}
	e.EvictJob(job)
	return cp, nil
}

// RestoreJob re-admits a previously checkpointed job, re-reserving its
// SRAM and rebuilding its context exactly as CheckpointJob saw it. It
// fails if the job is already admitted (a restore is not a merge) or if
// the SRAM no longer fits.
func (e *Engine) RestoreJob(cp *JobCheckpoint) error {
	if cp.Job == protocol.DefaultJob {
		return fmt.Errorf("engine: the default job cannot be restored")
	}
	if e.jobs[cp.Job] != nil {
		return fmt.Errorf("engine: job %d is already admitted on %s", cp.Job, e.addr)
	}
	if e.pool != nil {
		if err := e.pool.Reserve(uint16(cp.Job), cp.SRAMDemand); err != nil {
			return err
		}
	}
	ctx := newJobCtx(cp.Job)
	ctx.autoH = cp.AutoH
	ctx.helpUpSince = cp.HelpUpSince
	ctx.scheme = cp.Scheme
	ctx.modelFloats = cp.ModelFloats
	ctx.mem.members = append(ctx.mem.members[:0], cp.Members...)
	for i, m := range cp.Members {
		ctx.mem.byAddr[m.Addr.Key()] = i
	}
	ctx.mem.nextID = cp.NextID
	ctx.acc.Restore(cp.Acc)
	ctx.shadow.Restore(cp.Shadow)
	e.jobs[cp.Job] = ctx
	return nil
}

// --- Binary encoding -----------------------------------------------------

const jobCheckpointVersion = 1

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendAddr(b []byte, a protocol.Addr) []byte {
	b = append(b, a.IP[:]...)
	return appendU16(b, a.Port)
}

// MarshalBinary encodes the checkpoint as a versioned little-endian
// byte stream — the form a control plane would DMA off the switch.
func (cp *JobCheckpoint) MarshalBinary() ([]byte, error) {
	b := []byte{jobCheckpointVersion}
	b = appendU16(b, uint16(cp.Job))
	b = appendU64(b, cp.ModelFloats)
	b = appendU64(b, uint64(cp.SRAMDemand))
	b = append(b, uint8(cp.Scheme))
	if cp.AutoH {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendU32(b, uint32(cp.HelpUpSince))
	b = appendU32(b, uint32(cp.NextID))
	b = appendU32(b, uint32(len(cp.Members)))
	for _, m := range cp.Members {
		b = appendU32(b, uint32(m.ID))
		b = appendAddr(b, m.Addr)
		b = append(b, uint8(m.Type))
		b = appendU32(b, uint32(int32(m.Parent)))
		b = appendU64(b, m.ModelFloats)
	}
	acc, err := cp.Acc.MarshalBinary()
	if err != nil {
		return nil, err
	}
	b = appendU32(b, uint32(len(acc)))
	b = append(b, acc...)
	shadow, err := cp.Shadow.MarshalBinary()
	if err != nil {
		return nil, err
	}
	b = appendU32(b, uint32(len(shadow)))
	b = append(b, shadow...)
	return b, nil
}

type cpReader struct {
	b   []byte
	err error
}

func (r *cpReader) need(n int, what string) bool {
	if r.err != nil {
		return false
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("engine: truncated checkpoint (%s)", what)
		return false
	}
	return true
}
func (r *cpReader) u8(what string) uint8 {
	if !r.need(1, what) {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}
func (r *cpReader) u16(what string) uint16 {
	if !r.need(2, what) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}
func (r *cpReader) u32(what string) uint32 {
	if !r.need(4, what) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}
func (r *cpReader) u64(what string) uint64 {
	if !r.need(8, what) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}
func (r *cpReader) bytes(n int, what string) []byte {
	if !r.need(n, what) {
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// UnmarshalBinary decodes a checkpoint encoded by MarshalBinary.
func (cp *JobCheckpoint) UnmarshalBinary(b []byte) error {
	*cp = JobCheckpoint{}
	r := cpReader{b: b}
	if v := r.u8("version"); r.err == nil && v != jobCheckpointVersion {
		return fmt.Errorf("engine: JobCheckpoint version %d unsupported", v)
	}
	cp.Job = protocol.JobID(r.u16("job"))
	cp.ModelFloats = r.u64("modelFloats")
	cp.SRAMDemand = int64(r.u64("sramDemand"))
	cp.Scheme = protocol.Compression(r.u8("scheme"))
	cp.AutoH = r.u8("autoH") != 0
	cp.HelpUpSince = int(r.u32("helpUpSince"))
	cp.NextID = int(r.u32("nextID"))
	nm := int(r.u32("memberCount"))
	for i := 0; i < nm && r.err == nil; i++ {
		var m Member
		m.ID = int(r.u32("member.id"))
		var a protocol.Addr
		copy(a.IP[:], r.bytes(4, "member.ip"))
		a.Port = r.u16("member.port")
		m.Addr, m.Key = a, a.String() // Key is derived, not on the wire
		m.Type = MemberType(r.u8("member.type"))
		m.Parent = int(int32(r.u32("member.parent")))
		m.ModelFloats = r.u64("member.modelFloats")
		if r.err == nil {
			cp.Members = append(cp.Members, m)
		}
	}
	accLen := int(r.u32("accLen"))
	accBytes := r.bytes(accLen, "acc")
	shadowLen := int(r.u32("shadowLen"))
	shadowBytes := r.bytes(shadowLen, "shadow")
	if r.err != nil {
		return r.err
	}
	cp.Acc = &accel.AccSnapshot{}
	if err := cp.Acc.UnmarshalBinary(accBytes); err != nil {
		return err
	}
	cp.Shadow = &accel.ShadowSnapshot{}
	return cp.Shadow.UnmarshalBinary(shadowBytes)
}
