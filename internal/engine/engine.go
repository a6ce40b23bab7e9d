// Package engine is the iSwitch protocol (paper §3.2–3.4) free of I/O,
// one engine per side. It knows no clock, link or socket.
//
// Engine is the switch side: the control plane of Table 2 over a
// lightweight membership table, and the data plane of Figure 7 that
// sums tagged segments in the aggregation accelerator, forwards partial
// aggregates up the switch hierarchy and broadcasts completed ones back
// down. A Driver says where a frame goes and when. The simulated switch
// (switchnet.ISwitch), the real-UDP switch (transport.Switch) and the
// worker that takes over after a switch dies (core's failover relay)
// are its three drivers.
//
// Client is the worker side: Join, tagged segments up under the job's
// compression scheme, reassembly of the broadcast, Help on a stall and
// answers to the Helps it is sent. A Sender carries its frames. The
// simulated worker (core) and the UDP client (transport.Client) are its
// two drivers. So the protocol is spelled once on each side.
package engine

import (
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/protocol"
)

// Driver is the world as the engine sees it: where a frame goes and
// when. Every frame handed over is the driver's to deliver and release.
type Driver interface {
	// Forward sends a frame of the engine's own making toward dst. The
	// frame may be one holder of a header other members also hold (a
	// broadcast, Packet.Ref), whose own Dst names none of them: the
	// driver routes on dst and writes no field of the frame.
	Forward(pkt *protocol.Packet, dst protocol.Addr)
	// SendUp sends a frame to the parent level. Only an engine that was
	// given a parent (SetParent) calls it.
	SendUp(pkt *protocol.Packet)
	// Now is the driver's clock, read for liveness and bus contention.
	Now() time.Duration
	// After runs fn once d has passed: the accelerator's latency between
	// completing a segment and emitting it. A driver with no model of
	// that latency runs fn at once.
	After(d time.Duration, fn func())
}

// Engine is one switch's iSwitch extension: the control plane and the
// in-switch aggregation accelerator, fed one frame at a time (Handle).
//
// In a hierarchy, each switch aggregates the contributions of its
// children (workers and lower switches). When its local threshold H is
// reached for a segment, a non-root switch forwards one partially
// aggregated packet to its parent; the root broadcasts the globally
// aggregated segment back down, and lower switches replicate broadcasts
// to their children (paper §3.4).
//
// Multi-tenancy: every membership table, accelerator, threshold, and
// emission cache is scoped to a job context keyed by the packet's
// JobID (carried in the IPv4 Identification field). Job 0 — the
// default context — always exists and is what the single-tenant
// accessors below operate on, so legacy single-job fabrics behave
// bit-identically. Additional jobs must be admitted (AdmitJob) before
// their packets are honoured; data for unknown jobs is dropped, never
// aggregated, so a queued or evicted job can not corrupt an admitted
// job's segment buffers. When a finite SRAM pool is attached
// (SetTenancy), admission reserves the job's worst-case segment-state
// demand; when a shared bus is attached, concurrent jobs' bursts
// contend for the 256-bit datapath.
type Engine struct {
	drv  Driver
	addr protocol.Addr

	// def is job 0's context; jobs holds every admitted context,
	// def included, at its job ID's index (nil: not admitted). It grows
	// on admission, so a frame finds its job's context without hashing.
	def  *jobCtx
	jobs []*jobCtx

	// pool meters per-job SRAM (nil: unmetered legacy switch). bus
	// models cross-job datapath contention (nil: none).
	pool *accel.SRAMPool
	bus  *accel.SharedBus

	// parent is the next level up, reached through Driver.SendUp; the
	// root has none.
	parent    protocol.Addr
	hasParent bool

	// freeEm recycles the records that carry a completed segment across
	// the accelerator's latency.
	freeEm *emission

	// relayScratch is relayToMissing's target list, kept between calls.
	relayScratch []protocol.Addr

	// horizon, when positive, arms lazy liveness detection: a worker
	// whose contribution is blocking a segment and that has not been
	// heard from within horizon is evicted (Leave + SetH adjustment)
	// the next time a Help forces the switch to look at the segment.
	horizon time.Duration

	// failed marks a dead aggregation plane: the switch stops consuming
	// iSwitch traffic addressed to itself (control and data alike) while
	// plain L2/L3 forwarding keeps working — the failure model for
	// whole-switch failover to the backup software relay path.
	failed bool

	// Stats
	HelpServed       uint64 // Helps answered from the shadow slots
	ControlIn        uint64
	DataIn           uint64
	Broadcasts       uint64
	HeadersMade      uint64 // pooled headers the engine made: emissions, shares, Helps, Acks, Halts
	UpForwards       uint64
	HelpRelayed      uint64 // Helps relayed to every other member (storm path)
	HelpTargeted     uint64 // Helps relayed only to missing contributors
	HelpUpForwards   uint64 // Helps escalated to the parent switch
	Evicted          uint64 // workers removed by the liveness horizon
	FailDrops        uint64 // iSwitch frames discarded by a failed switch
	UnknownJobDrops  uint64 // packets for unadmitted jobs discarded
	EncMismatchDrops uint64 // contributions the accelerator refuses: an encoding that defies the job's scheme, a top-k index outside its segment
}

// jobCtx is one training job's slice of the switch: its accelerator
// (segment buffers + counters, and the job's compression scheme),
// membership table, auto-H mode, and the shadow aggregation slots that
// re-serve lost broadcasts.
type jobCtx struct {
	job   protocol.JobID
	acc   *accel.Accelerator
	mem   *Membership
	autoH bool // H tracks member count until SetH overrides

	// shadow keeps each segment's most recently emitted frame (matched
	// by round tag when the job runs tagged recovery) so a lost
	// broadcast copy can be re-served directly to the requester of a
	// Help while the next round is already accumulating in the primary
	// slot — without this, a worker that loses the last broadcast of a
	// job has no live peers left to recover through.
	shadow *accel.ShadowStore

	// lastSeen tracks when each member last transmitted anything, for
	// the liveness horizon, by Addr.Key. Only maintained when the horizon
	// is armed.
	lastSeen map[uint64]time.Duration

	// helpUpSince counts Helps escalated to the parent with no parent
	// broadcast observed in between — the signal that the upstream
	// aggregation path is dead and worker acks must be withheld so
	// workers escalate to failover.
	helpUpSince int
}

func newJobCtx(job protocol.JobID) *jobCtx {
	return &jobCtx{
		job:    job,
		acc:    accel.New(accel.DefaultConfig()),
		mem:    NewMembership(),
		autoH:  true,
		shadow: accel.NewShadowStore(),
	}
}

// SetTenancy arms multi-tenant resource modeling: admitted jobs reserve
// segment-state SRAM from pool, and concurrent jobs' bursts contend on
// bus. Either may be nil to disable that dimension. The default job 0
// context is never metered — a tenancy-armed switch carrying one job
// times identically to a legacy switch. SRAM is a per-switch resource:
// sharing one pool across a hierarchy would double-charge a job admitted
// at several levels.
func (e *Engine) SetTenancy(pool *accel.SRAMPool, bus *accel.SharedBus) {
	e.pool = pool
	e.bus = bus
}

// New builds a root-level engine that emits through drv. addr is the
// switch's own protocol address: the source of its aggregated packets
// and the destination its children send to.
func New(addr protocol.Addr, drv Driver) *Engine {
	def := newJobCtx(protocol.DefaultJob)
	return &Engine{
		drv:  drv,
		addr: addr,
		def:  def,
		jobs: []*jobCtx{def},
	}
}

// SetParent puts the engine one level below parent: completed local
// aggregates and escalated Helps go up (Driver.SendUp) instead of out.
func (e *Engine) SetParent(parent protocol.Addr) { e.parent, e.hasParent = parent, true }

// Addr returns the switch's protocol address.
func (e *Engine) Addr() protocol.Addr { return e.addr }

// Accelerator exposes the default job's aggregation unit (tests,
// experiments, single-tenant fabrics).
func (e *Engine) Accelerator() *accel.Accelerator { return e.def.acc }

// AcceleratorOf exposes an admitted job's aggregation unit (nil if the
// job is not admitted).
func (e *Engine) AcceleratorOf(job protocol.JobID) *accel.Accelerator {
	if ctx := e.ctx(job); ctx != nil {
		return ctx.acc
	}
	return nil
}

// Membership exposes the default job's control-plane table.
func (e *Engine) Membership() *Membership { return e.def.mem }

// MembershipOf exposes an admitted job's membership table (nil if the
// job is not admitted).
func (e *Engine) MembershipOf(job protocol.JobID) *Membership {
	if ctx := e.ctx(job); ctx != nil {
		return ctx.mem
	}
	return nil
}

// SRAMPool returns the attached SRAM pool (nil on unmetered switches).
func (e *Engine) SRAMPool() *accel.SRAMPool { return e.pool }

// ctx resolves a job's context; nil means the job is not admitted.
func (e *Engine) ctx(job protocol.JobID) *jobCtx {
	if int(job) < len(e.jobs) {
		return e.jobs[job]
	}
	return nil
}

// attach puts an admitted job's context at its index, growing the slice
// at least twofold so a switch admitting jobs in ascending order
// reallocates O(log n) times.
func (e *Engine) attach(ctx *jobCtx) {
	if int(ctx.job) >= len(e.jobs) {
		jobs := make([]*jobCtx, max(int(ctx.job)+1, 2*len(e.jobs)))
		copy(jobs, e.jobs)
		e.jobs = jobs
	}
	e.jobs[ctx.job] = ctx
}

// AdmitJob creates an aggregation context for a job, reserving its
// worst-case segment-state SRAM when a pool is attached. Admitting an
// already-admitted job is a no-op. Job 0 is always admitted.
func (e *Engine) AdmitJob(job protocol.JobID, modelFloats uint64) error {
	if e.ctx(job) != nil {
		return nil
	}
	if e.pool != nil {
		demand := accel.ContextDemand(int(modelFloats), protocol.FloatsPerPacket)
		if err := e.pool.Reserve(uint16(job), demand); err != nil {
			return err
		}
	}
	if e.bus != nil {
		e.bus.Admit(uint16(job))
	}
	e.attach(newJobCtx(job))
	return nil
}

// EvictJob tears down a job's context, releasing its SRAM and bus
// state. It reports whether a context existed. The default job can not
// be evicted.
func (e *Engine) EvictJob(job protocol.JobID) bool {
	ctx := e.detach(job)
	if ctx == nil {
		return false
	}
	ctx.shadow.Reset() // the kept frames go back to their pools
	return true
}

// detach removes an admitted job's context from the switch, releasing
// its SRAM and bus state, and returns it (nil for the default job or a
// job not admitted).
func (e *Engine) detach(job protocol.JobID) *jobCtx {
	if job == protocol.DefaultJob {
		return nil
	}
	ctx := e.ctx(job)
	if ctx == nil {
		return nil
	}
	e.jobs[job] = nil
	if e.pool != nil {
		e.pool.Release(uint16(job))
	}
	if e.bus != nil {
		e.bus.Forget(uint16(job))
	}
	return ctx
}

// Jobs lists the admitted job IDs in ascending order (job 0 included).
func (e *Engine) Jobs() []protocol.JobID {
	var out []protocol.JobID
	for _, ctx := range e.jobs {
		if ctx != nil {
			out = append(out, ctx.job)
		}
	}
	return out
}

// Fail kills the switch's aggregation plane: from now on every iSwitch
// frame addressed to this switch (contributions, Joins, Helps) is
// discarded, while ordinary forwarding — including worker-to-worker
// relay traffic for the backup aggregation path — keeps working. This
// models an accelerator/control-plane death that leaves the L2/L3
// pipeline up; there is no un-fail.
func (e *Engine) Fail() { e.failed = true }

// SetLivenessHorizon arms dead-contributor detection: when a Help forces
// the switch to inspect a stalled segment, any worker whose contribution
// is missing and that has been silent for longer than d is evicted from
// the membership (lowering auto-H) so the round completes with the
// survivors. Zero disables detection (the default): a crashed worker
// then stalls its job forever, exactly as before.
func (e *Engine) SetLivenessHorizon(d time.Duration) { e.horizon = d }

// Shadow exposes the default job's shadow aggregation slots.
func (e *Engine) Shadow() *accel.ShadowStore { return e.def.shadow }

// SetCompression pins a job's negotiated compression scheme and model
// length in its accelerator on this switch. The fabric builder calls it
// on every level: parent switches never see a worker Join, yet must
// know how to interpret and re-emit the partials their children
// forward. No-op if the job is not admitted.
func (e *Engine) SetCompression(job protocol.JobID, scheme protocol.Compression, modelFloats uint64) {
	if ctx := e.ctx(job); ctx != nil {
		ctx.acc.SetCompression(scheme, modelFloats)
	}
}

// Handle is the data-plane intercept, a "bump-in-the-wire": it consumes
// only ToS-tagged frames addressed to this switch and reports false for
// everything else, which the driver forwards by its normal tables.
// fromParent marks a frame that arrived from the parent level. A
// consumed frame is the engine's to release.
func (e *Engine) Handle(pkt *protocol.Packet, fromParent bool) bool {
	if e.failed {
		if (pkt.IsControl() || pkt.IsData()) && pkt.Dst == e.addr {
			e.FailDrops++
			pkt.Release()
			return true
		}
		return false // plain forwarding survives the aggregation plane
	}
	switch {
	case pkt.IsControl():
		e.ControlIn++
		// Control packets not addressed to this switch are forwarded along
		// the normal path (e.g. Halt relayed down, Ack back to a worker).
		// One that is addressed here ends here.
		if pkt.Dst != e.addr {
			return false
		}
		e.handleControl(pkt)
		pkt.Release()
		return true
	case pkt.IsData():
		// Data not addressed to this switch and not arriving from the
		// parent is transit traffic (e.g. the backup relay path crossing
		// a healthy fabric): forward it, never aggregate it.
		if pkt.Dst != e.addr {
			return false
		}
		e.DataIn++
		e.handleData(pkt, fromParent)
		return true
	default:
		return false // regular traffic: forward normally
	}
}

// handleControl applies a control addressed to this switch. It does not
// keep pkt or its value: Handle releases the frame afterwards.
func (e *Engine) handleControl(pkt *protocol.Packet) {
	ctx := e.ctx(pkt.Job)
	if ctx == nil {
		// Control for a job with no admitted context: a Join racing
		// admission, or a stale action after eviction. Refuse.
		e.UnknownJobDrops++
		e.ack(pkt.Src, pkt.Job, false)
		return
	}
	e.touch(ctx, pkt.Src)
	switch pkt.Action {
	case protocol.ActionJoin:
		floats, scheme, err := protocol.ParseJoinScheme(pkt.Value)
		if err != nil {
			e.ack(pkt.Src, pkt.Job, false)
			return
		}
		// A re-Join from an already-registered address updates the row
		// in place (Membership.Join), so the member count — and with it
		// the automatic threshold H — must not move.
		ctx.mem.Join(pkt.Src, MemberWorker, 0, floats)
		// Only a scheme-carrying Join (9 bytes) renegotiates the job's
		// compression: a legacy 8-byte Join must not reset a scheme the
		// fabric builder already pinned.
		if len(pkt.Value) == 9 {
			ctx.acc.SetCompression(scheme, floats)
		}
		e.refreshAutoH(ctx)
		e.ack(pkt.Src, pkt.Job, true)
	case protocol.ActionLeave:
		ok := ctx.mem.Leave(pkt.Src)
		e.refreshAutoH(ctx)
		// Rounds that were only waiting on the departed worker are now
		// satisfied at the lowered H: emit them so nobody stalls.
		e.emitDrained(ctx)
		e.ack(pkt.Src, pkt.Job, ok)
	case protocol.ActionReset:
		ctx.acc.Reset()
		e.ack(pkt.Src, pkt.Job, true)
	case protocol.ActionSetH:
		h, err := protocol.ParseSetH(pkt.Value)
		if err != nil || ctx.acc.SetThreshold(h) != nil {
			e.ack(pkt.Src, pkt.Job, false)
			return
		}
		ctx.autoH = false
		e.ack(pkt.Src, pkt.Job, true)
	case protocol.ActionFBcast:
		// Force-broadcast every partially aggregated segment downstream.
		for _, seg := range ctx.acc.PendingSegs() {
			if sum, ok := ctx.acc.Flush(seg); ok {
				e.emit(ctx, seg, sum)
			}
		}
		e.ack(pkt.Src, pkt.Job, true)
	case protocol.ActionHelp:
		e.handleHelp(ctx, pkt)
	case protocol.ActionAck:
		// A liveness acknowledgement bounced off a peer switch (e.g. the
		// parent answering a forwarded Help): absorb, never re-ack, or
		// two switches would nack each other forever.
	case protocol.ActionHalt:
		for _, m := range ctx.mem.Members() {
			halt := protocol.NewControl(e.addr, m.Addr, protocol.ActionHalt, nil)
			halt.Job = ctx.job
			e.HeadersMade++
			e.drv.Forward(halt, m.Addr)
		}
	default:
		e.ack(pkt.Src, pkt.Job, false)
	}
}

// handleHelp implements loss recovery (paper §3.3 extended with
// SwitchML-style slot state). Resolution order:
//
//  1. Shadow slot hit — the aggregate was already emitted and the
//     requester lost its broadcast copy: re-serve it directly.
//  2. Without the dedup bitmap (async jobs, legacy fabrics) the switch
//     has no idea who contributed: relay the Help to every other worker
//     so they all retransmit (the storm path, unchanged).
//  3. With dedup armed and the segment holding partial state, relay the
//     Help only to the members whose contribution is missing — the
//     requester included, which is what re-gathers a rejoined worker.
//     Missing workers past the liveness horizon are evicted instead.
//  4. With no slot state at a non-root switch, escalate the Help to the
//     parent: the aggregate lives (or stalled) further up.
//  5. With no slot state at the root (or on a Help pushed down by the
//     parent), re-gather: ask every local member to retransmit.
//
// Helps from workers are acknowledged (when not answered with data) so
// a worker can distinguish "switch alive, peers slow" from "switch
// dead" — except when the switch's own parent path looks dead, in which
// case acks are withheld and the worker escalates to relay failover.
func (e *Engine) handleHelp(ctx *jobCtx, pkt *protocol.Packet) {
	seg, err := protocol.ParseHelp(pkt.Value)
	if err != nil {
		e.ack(pkt.Src, pkt.Job, false)
		return
	}
	if e.serveFromShadow(ctx, seg, pkt.Src) {
		return
	}
	if !ctx.acc.Dedup() {
		e.HelpRelayed++
		for _, m := range ctx.mem.Workers() {
			if m.Addr == pkt.Src {
				continue
			}
			e.drv.Forward(e.help(ctx, m.Addr, seg), m.Addr)
		}
		return
	}
	if ctx.acc.CountOf(seg) > 0 {
		e.relayToMissing(ctx, seg)
		e.maybeAckHelp(ctx, pkt.Src, false)
		return
	}
	if e.hasParent && pkt.Src != e.parent {
		e.HelpUpForwards++
		ctx.helpUpSince++
		e.drv.SendUp(e.help(ctx, e.parent, seg))
		e.maybeAckHelp(ctx, pkt.Src, true)
		return
	}
	// Root with no state, or a re-gather request from the parent: the
	// segment's every contribution was lost — including the requester's
	// own (a dropped upload, or a context preempted while data was in
	// flight). Ask ALL local members to resend, requester included: a
	// worker requester re-serves its retained gradient, and a child
	// switch requester recycled the segment's state when it emitted
	// upward, so the Help must go back down to make it re-gather from
	// its own subtree. Dedup filters any contribution that does arrive
	// twice.
	e.HelpRelayed++
	for _, m := range ctx.mem.Members() {
		e.drv.Forward(e.help(ctx, m.Addr, seg), m.Addr)
	}
	e.maybeAckHelp(ctx, pkt.Src, false)
}

// help builds this switch's own Help for seg: a relayed or escalated
// Help never aliases the value of the frame that caused it.
func (e *Engine) help(ctx *jobCtx, dst protocol.Addr, seg uint64) *protocol.Packet {
	h := protocol.NewHelp(e.addr, dst, seg)
	h.Job = ctx.job
	e.HeadersMade++
	return h
}

// serveFromShadow answers a Help from the segment's shadow slot with
// the kept emission as it was sent, encoding and shift included: the
// narrowed (q, shift) pair of a quantized job, the rounded floats of an
// fp16 job, the raw aggregate otherwise. The response is one more share
// of the kept emission: a later emission into the slot releases the
// slot's share only, so the payload stays intact until the requester
// releases the response.
func (e *Engine) serveFromShadow(ctx *jobCtx, seg uint64, req protocol.Addr) bool {
	resp := ctx.shadow.Serve(seg, ctx.acc.Quantized())
	if resp == nil {
		return false
	}
	e.HelpServed++
	e.HeadersMade++
	resp.Src, resp.Dst, resp.ToS, resp.Job, resp.Seg = e.addr, req, protocol.ToSData, ctx.job, seg
	e.drv.Forward(resp, req)
	return true
}

// dataHeader returns a pooled header for an emission of this switch's
// own.
func (e *Engine) dataHeader(ctx *jobCtx, dst protocol.Addr, seg uint64) *protocol.Packet {
	p := protocol.GetPacket()
	p.Src, p.Dst, p.ToS, p.Job, p.Seg = e.addr, dst, protocol.ToSData, ctx.job, seg
	e.HeadersMade++
	return p
}

// relayToMissing forwards a Help only to the members whose contribution
// to seg has not been seen, evicting missing contributors that are past
// the liveness horizon — workers and child switches alike (a child
// switch whose only worker died goes silent exactly like a dead worker;
// hosts-per-edge=1 fat-trees hit this). If eviction lowers H enough to
// complete segments, they are emitted immediately.
func (e *Engine) relayToMissing(ctx *jobCtx, seg uint64) {
	now := e.drv.Now()
	// The targets go in the engine's scratch slice, taken for the call:
	// a driver may re-enter Handle from Forward (the in-memory ablation
	// driver does), and that nested call starts a scratch of its own.
	targets := e.relayScratch[:0]
	e.relayScratch = nil
	var stale []protocol.Addr
	for _, m := range ctx.mem.Members() {
		if ctx.acc.Seen(seg, m.Key) {
			continue
		}
		if e.horizon > 0 {
			if last, ok := ctx.lastSeen[m.Addr.Key()]; ok && now-last > e.horizon {
				stale = append(stale, m.Addr)
				continue
			}
		}
		targets = append(targets, m.Addr)
	}
	// Evict only after the scan: Leave compacts the slice Members returns.
	for _, a := range stale {
		ctx.mem.Leave(a)
		delete(ctx.lastSeen, a.Key())
		e.Evicted++
	}
	if len(stale) > 0 {
		e.refreshAutoH(ctx)
		e.emitDrained(ctx)
	}
	// Unless eviction completed and emitted the segment, chase the rest.
	if ctx.acc.CountOf(seg) != 0 {
		e.HelpTargeted++
		for _, t := range targets {
			e.drv.Forward(e.help(ctx, t, seg), t)
		}
		if e.hasParent {
			// Chasing missing members can outlast the parent's liveness
			// horizon (this switch is waiting out its own horizon before
			// evicting a dead contributor, and emits nothing upward in the
			// meantime). Refresh liveness with an Ack so an alive-but-stalled
			// switch is not itself evicted while it resolves the round; a
			// truly dead subtree sends nothing and ages out as intended.
			up := protocol.NewControl(e.addr, e.parent, protocol.ActionAck, protocol.AckOK)
			up.Job = ctx.job
			e.HeadersMade++
			e.drv.SendUp(up)
		}
	}
	e.relayScratch = targets[:0]
}

// helpUpSuppressAfter is how many consecutive unanswered parent
// escalations a switch tolerates before it stops acking worker Helps,
// letting workers conclude the aggregation path is dead.
const helpUpSuppressAfter = 3

// maybeAckHelp acknowledges a worker's Help that was not answered with
// data, as proof the switch (and, transitively, the path it can still
// reach) is alive.
func (e *Engine) maybeAckHelp(ctx *jobCtx, req protocol.Addr, escalated bool) {
	m, ok := ctx.mem.Lookup(req)
	if !ok || m.Type != MemberWorker {
		return // peer switches judge liveness by broadcasts, not acks
	}
	if escalated && ctx.helpUpSince > helpUpSuppressAfter {
		return
	}
	e.ack(req, ctx.job, true)
}

// touch records member liveness when the horizon is armed.
func (e *Engine) touch(ctx *jobCtx, src protocol.Addr) {
	if e.horizon <= 0 {
		return
	}
	if ctx.lastSeen == nil {
		ctx.lastSeen = make(map[uint64]time.Duration)
	}
	ctx.lastSeen[src.Key()] = e.drv.Now()
}

// emitDrained emits every segment whose counter satisfies the (possibly
// just lowered) threshold H — shared by Leave and liveness eviction.
func (e *Engine) emitDrained(ctx *jobCtx) {
	segs, sums := ctx.acc.DrainSatisfied()
	for i, seg := range segs {
		e.emit(ctx, seg, sums[i])
	}
}

// emit sends a completed segment's sum, on loan from the job's
// accelerator, toward the parent or down to the members. The sum is
// written once: the frame that travels up carries the loan with it, and
// the parent's Release after ingesting it returns the buffer here; the
// members hold the one emission (broadcast), and the last of them to
// release it returns the buffer.
func (e *Engine) emit(ctx *jobCtx, seg uint64, sum accel.Sum) {
	out := e.dataHeader(ctx, e.parent, seg)
	sum.Lend(out)
	if e.hasParent {
		e.UpForwards++
		e.drv.SendUp(out)
		return
	}
	e.broadcast(ctx, out)
	out.Release()
}

// refreshAutoH keeps H equal to the number of children while in
// automatic mode (the paper's default: H = number of child nodes).
func (e *Engine) refreshAutoH(ctx *jobCtx) {
	if ctx.autoH && ctx.mem.Count() > 0 {
		_ = ctx.acc.SetThreshold(uint32(ctx.mem.Count()))
	}
}

// SetDedup toggles the default job's contributor bitmap (idempotent
// retransmissions for synchronous loss recovery).
func (e *Engine) SetDedup(on bool) { e.def.acc.SetDedup(on) }

// SetDedupJob toggles an admitted job's contributor bitmap.
func (e *Engine) SetDedupJob(job protocol.JobID, on bool) {
	if ctx := e.ctx(job); ctx != nil {
		ctx.acc.SetDedup(on)
	}
}

// ForceThreshold pins the default job's aggregation threshold H,
// disabling the auto-H that tracks membership — the programmatic
// equivalent of a SetH control message issued by the operator.
func (e *Engine) ForceThreshold(h uint32) error {
	if err := e.def.acc.SetThreshold(h); err != nil {
		return err
	}
	e.def.autoH = false
	return nil
}

// RegisterChildSwitchJob records a lower-level switch as a contributor
// to an admitted job's context — how a multi-tenant scheduler tells a
// parent switch which children will forward partial aggregates for the
// job. No-op if the job is not admitted here.
func (e *Engine) RegisterChildSwitchJob(job protocol.JobID, addr protocol.Addr) {
	ctx := e.ctx(job)
	if ctx == nil {
		return
	}
	ctx.mem.Join(addr, MemberSwitch, 0, 0)
	e.refreshAutoH(ctx)
}

// UnregisterChildSwitchJob removes a lower-level switch from an
// admitted job's membership — the inverse of RegisterChildSwitchJob,
// used when an elastic job shrinks out of a subtree and the parent must
// stop waiting for that child's partials. Segments the removal leaves
// satisfied at the lowered H are emitted immediately. No-op if the job
// is not admitted here.
func (e *Engine) UnregisterChildSwitchJob(job protocol.JobID, addr protocol.Addr) {
	ctx := e.ctx(job)
	if ctx == nil {
		return
	}
	if !ctx.mem.Leave(addr) {
		return
	}
	e.refreshAutoH(ctx)
	e.emitDrained(ctx)
}

func (e *Engine) handleData(pkt *protocol.Packet, fromParent bool) {
	ctx := e.ctx(pkt.Job)
	if ctx == nil {
		// Data for a job with no admitted context here: discard. This
		// is the isolation guarantee — a queued/evicted job's packets
		// can never reach another job's segment buffers.
		e.UnknownJobDrops++
		pkt.Release()
		return
	}
	// A data packet arriving from the parent is a downstream broadcast
	// of a globally aggregated segment: fan it out to the job's children
	// (broadcast) and retire this switch's hold on it. It is also proof
	// the upstream aggregation path is alive.
	if fromParent {
		ctx.helpUpSince = 0
		e.broadcast(ctx, pkt)
		pkt.Release()
		return
	}
	e.touch(ctx, pkt.Src)
	// Otherwise it is an upstream contribution: run it through the
	// job's accelerator (keyed by source for the optional dedup
	// bitmap), charging the datapath latency before any output. The
	// accelerator refuses a contribution whose encoding defies the
	// job's scheme before it can touch a segment buffer. With a
	// shared bus attached, the burst train also queues behind other
	// jobs' in-flight bursts. The contributor key is only looked up when
	// dedup is armed, and was rendered once, at Join: Addr.String costs
	// an allocation, and the datapath must stay allocation-free.
	var contributor string
	if ctx.acc.Dedup() {
		contributor = ctx.mem.KeyOf(pkt.Src)
	}
	seg := pkt.Seg
	sum, done, lat, ok := ctx.acc.IngestFrame(pkt, contributor)
	// The accelerator summed the payload into its own segment buffer;
	// the contribution frame is spent.
	pkt.Release()
	if !ok {
		e.EncMismatchDrops++
		return
	}
	if e.bus != nil {
		lat = e.bus.Charge(e.drv.Now(), uint16(ctx.job), lat)
	}
	if !done {
		return
	}
	em := e.freeEm
	if em == nil {
		em = &emission{e: e}
		em.fire = em.run
	} else {
		e.freeEm = em.next
	}
	em.ctx, em.seg, em.sum = ctx, seg, sum
	e.drv.After(lat, em.fire)
}

// emission is one completed segment waiting out the accelerator's
// latency. The latency varies per segment (bus contention), so each is
// its own event; the record and its bound method are recycled, so
// scheduling one allocates nothing after the first.
type emission struct {
	e    *Engine
	ctx  *jobCtx
	seg  uint64
	sum  accel.Sum
	fire func() // em.run, bound once
	next *emission
}

func (em *emission) run() {
	e, ctx, seg, sum := em.e, em.ctx, em.seg, em.sum
	em.ctx, em.sum = nil, accel.Sum{}
	em.next, e.freeEm = e.freeEm, em
	e.emit(ctx, seg, sum)
}

// broadcast fans a data packet out to every member of the job (workers
// and child switches), one unicast frame per child so each egress link
// serializes independently, exactly as port-replication hardware
// behaves. pkt is this switch's own frame (its emission, or the share
// its parent addressed to it), stamped with this switch as its source;
// the caller releases it afterwards. A worker gets pkt itself, one more
// holder of the one header (Ref), and so does the segment's shadow
// slot, ready to re-serve lost copies. A child switch routes on the
// frame's own Dst, so it gets a share addressed to it, which it fans
// out the same way: the switches of a tree all hold the root's one
// buffer.
func (e *Engine) broadcast(ctx *jobCtx, pkt *protocol.Packet) {
	e.Broadcasts++
	pkt.Src = e.addr
	ctx.shadow.Keep(pkt.Ref())
	for _, m := range ctx.mem.Members() {
		if m.Type == MemberWorker {
			e.drv.Forward(pkt.Ref(), m.Addr)
			continue
		}
		cp := pkt.Share()
		e.HeadersMade++
		cp.Dst = m.Addr
		e.drv.Forward(cp, m.Addr)
	}
}

func (e *Engine) ack(dst protocol.Addr, job protocol.JobID, ok bool) {
	v := protocol.AckOK
	if !ok {
		v = protocol.AckFail
	}
	ack := protocol.NewControl(e.addr, dst, protocol.ActionAck, v)
	ack.Job = job
	e.HeadersMade++
	e.drv.Forward(ack, dst)
}
