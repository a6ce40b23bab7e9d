// Package accel models the iSwitch in-switch aggregation accelerator
// (paper §3.3, Figure 7).
//
// The hardware ingests tagged data packets as 256-bit bus bursts: a
// separator splits header bursts from payload bursts, a Seg decoder
// extracts the segment index, a per-segment counter tracks how many
// worker contributions have been summed, and eight parallel 32-bit
// floating-point adders accumulate each payload burst into a BRAM
// buffer addressed by (Seg, burst offset). When a segment's counter
// reaches the aggregation threshold H, the output module emits one data
// packet carrying the fully aggregated segment, zeroes the buffer, and
// resets the counter.
//
// This package reproduces both the function (the exact float32 sums, in
// packet-arrival order, as a hardware adder pipeline would produce) and
// the timing (cycles consumed per packet at the published 200 MHz clock
// and 256-bit bus width).
//
// Performance contract: the ingest is the simulation's innermost loop,
// so its steady-state path is allocation-free — payload bursts are
// summed by the vectorized tensor kernels, and segment buffers come from
// a sync.Pool-backed free list that emitted aggregates return to via
// Recycle or RecycleQ. pool_test.go enforces 0 allocs/op on this path.
package accel

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/tensor"
	tensorkernels "iswitch/internal/tensor/kernels"
)

// Config describes the accelerator datapath. The defaults mirror the
// paper's NetFPGA-SUME implementation.
type Config struct {
	// BusWidthBits is the internal AXI4-Stream bus width; one burst of
	// this many bits is processed per clock cycle.
	BusWidthBits int
	// ClockHz is the accelerator clock frequency.
	ClockHz float64
	// PipelineDepth is the fill latency of the separator → decoder →
	// adder → buffer pipeline, in cycles, charged once per packet.
	PipelineDepth int
	// Threshold is the initial aggregation threshold H: how many
	// contributions a segment needs before it is emitted. The control
	// plane overwrites it via SetH; by default H equals the number of
	// workers (child nodes).
	Threshold uint32
}

// DefaultConfig returns the paper's hardware parameters: 256-bit bus,
// 200 MHz clock, eight float32 adders (256/32).
func DefaultConfig() Config {
	return Config{BusWidthBits: 256, ClockHz: 200e6, PipelineDepth: 8, Threshold: 1}
}

// AddersPerCycle returns how many float32 lanes one burst carries.
func (c Config) AddersPerCycle() int { return c.BusWidthBits / 32 }

// segState is one segment's accumulation buffer and counter. seen is
// the optional contributor set (hardware analog: one bit per member
// port) that makes retransmissions idempotent: a list, not a map, as a
// segment's fan-in is a handful of children, reused with the pooled
// record. A segment accumulates in exactly one of buf (float32 adders:
// raw, fp16, and sparse traffic) or qbuf (quant: the saturating int32
// adders of the block-scaled quantized path) — the job's compression
// scheme is fixed at Join, so the two never mix within a job.
type segState struct {
	buf   []float32
	qbuf  []int32
	quant bool
	count uint32
	seen  []string
	next  *segState // the spare list's link, while banked bufferless
}

// Accelerator is the functional + timing model of the in-switch
// aggregation unit. It is single-threaded by construction: the embedding
// switch feeds it one packet at a time, exactly as the input arbiter
// serializes bursts in hardware.
type Accelerator struct {
	cfg   Config
	h     uint32
	segs  map[uint64]*segState
	dedup bool

	// scheme is the job's negotiated wire compression: which frame
	// encodings IngestFrame takes and how a completed sum is emitted.
	// modelFloats sizes the dense slots top-k selections scatter into.
	scheme      protocol.Compression
	modelFloats uint64

	// pool and spare recycle segState records so steady-state
	// aggregation never allocates. pool holds the records that have a
	// buffer: a new segment takes one, and the GC may reclaim idle ones.
	// Emission hands the buffer to the caller and leaves the bufferless
	// record on the spare list (64 bytes each, bounded by the segments in
	// flight; the accelerator is single-threaded, so a plain list);
	// Recycle puts the returned buffer on a spare record and banks it in
	// pool. A returned buffer therefore never lands on a record that
	// already holds one.
	pool  sync.Pool
	spare *segState

	// qscratch re-widens narrowed child partials (q << shift) before
	// the saturating add, without mutating the caller's payload.
	qscratch []int32

	stats Stats
}

// Stats counts accelerator activity for experiments and tests.
type Stats struct {
	PacketsIn   uint64 // tagged data packets ingested
	PacketsOut  uint64 // fully aggregated segments emitted
	Flushes     uint64 // partial segments force-broadcast (FBcast)
	Resets      uint64 // Reset control actions applied
	BurstsAdded uint64 // payload bursts pushed through the adders
	Cycles      uint64 // total cycles consumed
	DupDropped  uint64 // duplicate contributions ignored (dedup mode)
}

// New creates an accelerator with the given configuration.
func New(cfg Config) *Accelerator {
	if cfg.BusWidthBits <= 0 || cfg.BusWidthBits%32 != 0 {
		panic(fmt.Sprintf("accel: bus width %d must be a positive multiple of 32", cfg.BusWidthBits))
	}
	if cfg.ClockHz <= 0 {
		panic("accel: clock frequency must be positive")
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 1
	}
	return &Accelerator{cfg: cfg, h: cfg.Threshold, segs: make(map[uint64]*segState)}
}

// Threshold returns the current aggregation threshold H.
func (a *Accelerator) Threshold() uint32 { return a.h }

// SetThreshold applies a SetH control action.
func (a *Accelerator) SetThreshold(h uint32) error {
	if h == 0 {
		return fmt.Errorf("accel: aggregation threshold must be >= 1")
	}
	a.h = h
	return nil
}

// SetCompression fixes the job's wire scheme and the model length that
// top-k's dense slots are cut from (0 keeps the length already set).
func (a *Accelerator) SetCompression(scheme protocol.Compression, modelFloats uint64) {
	a.scheme = scheme
	if modelFloats > 0 {
		a.modelFloats = modelFloats
	}
}

// Quantized reports whether the job sums on the int32 adders: its
// emissions, and the shadow slots that keep them, are quantized.
func (a *Accelerator) Quantized() bool { return a.scheme == protocol.CompInt32Block }

// Stats returns a snapshot of activity counters.
func (a *Accelerator) Stats() Stats { return a.stats }

// Reset applies a Reset control action: clear all buffers and counters.
func (a *Accelerator) Reset() {
	for seg, st := range a.segs {
		delete(a.segs, seg)
		a.recycleState(st)
	}
	a.stats.Resets++
}

// getState takes a segment record for a new segment: one that holds a
// buffer if there is one, else a spare or a fresh one. Its counter and
// contributor bitmap are cleared.
func (a *Accelerator) getState() *segState {
	st, _ := a.pool.Get().(*segState)
	if st == nil {
		st = a.spareState()
	}
	st.count = 0
	st.seen = st.seen[:0]
	return st
}

// spareState takes a bufferless record off the spare list, or makes one.
func (a *Accelerator) spareState() *segState {
	st := a.spare
	if st == nil {
		return &segState{}
	}
	a.spare, st.next = st.next, nil
	return st
}

// newSegState returns a segment record with a zeroed n-element buffer
// for the float32 or, quant, the int32 adders.
func (a *Accelerator) newSegState(n int, quant bool) *segState {
	st := a.getState()
	st.quant = quant
	if quant {
		st.qbuf, st.buf = zeroed(st.qbuf, n), st.buf[:0]
	} else {
		st.buf, st.qbuf = zeroed(st.buf, n), st.qbuf[:0]
	}
	return st
}

// zeroed returns buf as n zeroed elements, reusing its storage when it
// fits.
func zeroed[T float32 | int32](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// grown returns buf widened to n elements with its contents kept: a
// contribution longer than its segment (a malformed or inconsistent
// length; hardware would flag it via the control plane) drops no data.
func grown[T float32 | int32](buf []T, n int) []T {
	if n <= len(buf) {
		return buf
	}
	g := make([]T, n)
	copy(g, buf)
	return g
}

// recycleState banks a record, buffer included, for reuse.
func (a *Accelerator) recycleState(st *segState) { a.pool.Put(st) }

// Sum is a completed segment's aggregate as the job emits it: the
// float32 sum (rounded through half precision for an fp16 job, dense for
// top-k) or the int32 sum narrowed into the int16 wire range with its
// re-widening Shift. Enc is the encoding the emission carries. The
// buffer is on loan from the accelerator: Lend it onto a frame, or hand
// it back with Recycle or RecycleQ.
type Sum struct {
	Data  []float32
	QData []int32
	Shift uint8
	Enc   protocol.Compression
	owner *Accelerator
}

// Lend makes the sum frame p's payload, tagged with its encoding; the
// last frame referring to the buffer hands it back to the accelerator.
func (s Sum) Lend(p *protocol.Packet) {
	p.Enc, p.Shift = s.Enc, s.Shift
	if s.Enc == protocol.CompInt32Block {
		p.LendQData(s.QData, s.owner)
		return
	}
	p.LendData(s.Data, s.owner)
}

// take detaches a completed segment's sum for the caller, in the job's
// emission representation, and leaves the bufferless record on the
// spare list. This is the one place a sum is narrowed or rounded.
func (a *Accelerator) take(st *segState) Sum {
	sum := Sum{owner: a}
	if st.quant {
		sum.QData, st.qbuf = st.qbuf, nil
		sum.Shift = tensorkernels.NarrowShift(tensorkernels.MaxAbsI32(sum.QData))
		tensorkernels.ShrI32(sum.QData, sum.Shift)
		sum.Enc = protocol.CompInt32Block
	} else {
		sum.Data, st.buf = st.buf, nil
		if a.scheme == protocol.CompFP16 {
			tensorkernels.F16RoundInPlace(sum.Data)
			sum.Enc = protocol.CompFP16
		}
	}
	st.next, a.spare = a.spare, st
	return sum
}

// Recycle returns a float aggregate buffer previously handed out (by
// an ingest, DrainSatisfied, or Flush) to the segment-buffer pool. Call
// it once the aggregate has been consumed (e.g. serialized onto the
// wire) and do not use buf afterwards; the accelerator will reuse the
// storage for a future segment. Recycling is optional: buffers that
// are retained instead are simply replaced by fresh allocations.
func (a *Accelerator) Recycle(buf []float32) {
	if buf == nil {
		return
	}
	st := a.spareState()
	st.buf = buf[:0]
	a.pool.Put(st)
}

// RecycleQ is Recycle for integer aggregate buffers.
func (a *Accelerator) RecycleQ(buf []int32) {
	if buf == nil {
		return
	}
	st := a.spareState()
	st.qbuf = buf[:0]
	a.pool.Put(st)
}

// Pending reports how many segments hold partial (uncommitted) sums.
func (a *Accelerator) Pending() int { return len(a.segs) }

// SetDedup enables (or disables) the contributor bitmap: with dedup on,
// a second contribution from the same source to an in-progress segment
// is ignored, making loss-recovery retransmissions idempotent.
// Synchronous jobs enable it; asynchronous jobs keep it off, where a
// fast worker legitimately contributes multiple gradients per aggregate
// ("faster workers contribute more", paper §4.1).
func (a *Accelerator) SetDedup(on bool) { a.dedup = on }

// Dedup reports whether the contributor bitmap is active.
func (a *Accelerator) Dedup() bool { return a.dedup }

// Ingest accumulates one raw float32 payload into the segment buffer
// identified by seg, in arrival order. If this contribution is the H-th
// for the segment, the fully aggregated payload is returned (done=true),
// the buffer is zeroed, and the counter reset — the "on-the-fly"
// behaviour of Figure 8b. latency is the datapath time consumed.
//
// Ownership of the returned slice transfers to the caller: the
// accelerator never touches it again unless it is handed back via
// Recycle, so it is safe to retain.
func (a *Accelerator) Ingest(seg uint64, data []float32) (sum []float32, done bool, latency time.Duration) {
	return a.IngestFrom(seg, "", data)
}

// IngestFrom is Ingest with a contributor identity for dedup mode. An
// empty contributor is never deduplicated.
func (a *Accelerator) IngestFrom(seg uint64, contributor string, data []float32) (sum []float32, done bool, latency time.Duration) {
	s, done, latency := a.ingest(&protocol.Packet{Seg: seg, Data: data}, contributor)
	return s.Data, done, latency
}

// IngestQFrom is IngestFrom for one block-scaled quantized contribution
// (q with its narrowing shift) on the integer datapath; a completed sum
// comes back narrowed, with its shift (hand it back via RecycleQ).
func (a *Accelerator) IngestQFrom(seg uint64, contributor string, q []int32, shift uint8) (qsum []int32, outShift uint8, done bool, latency time.Duration) {
	s, done, latency := a.ingest(&protocol.Packet{Seg: seg, Enc: protocol.CompInt32Block, QData: q, Shift: shift}, contributor)
	return s.QData, s.Shift, done, latency
}

// IngestFrame is the switch's ingest: it sums one contribution frame
// from contributor (dedup mode) into the frame's segment, on the
// datapath the job's scheme gives it. ok is false, and nothing is
// summed or charged, when the frame's encoding defies the scheme: a
// frame framed under the wrong scheme would corrupt the sum, so the
// switch trusts the Join-time contract, never the frame. Top-k jobs
// legitimately carry two layouts: workers' sparse selections (an empty
// one is a legal count-only frame) and the dense partials child
// switches forward (CompNone). A selection is refused too when an index
// lies past its segment's span of the model or lacks its value: the
// scatter-add would write outside the segment's slot.
func (a *Accelerator) IngestFrame(pkt *protocol.Packet, contributor string) (sum Sum, done bool, latency time.Duration, ok bool) {
	if pkt.Enc != a.scheme && (a.scheme != protocol.CompTopK || pkt.Enc != protocol.CompNone) {
		return Sum{}, false, 0, false
	}
	if pkt.Enc == protocol.CompTopK && !a.inSpan(pkt) {
		return Sum{}, false, 0, false
	}
	sum, done, latency = a.ingest(pkt, contributor)
	return sum, done, latency, true
}

// inSpan reports whether every entry of a sparse selection pairs an
// index inside its segment's span of the model with a value.
func (a *Accelerator) inSpan(pkt *protocol.Packet) bool {
	if len(pkt.Idx) != len(pkt.Data) {
		return false
	}
	lo, hi := protocol.SegmentRange(int(a.modelFloats), protocol.SegIndex(pkt.Seg))
	for _, i := range pkt.Idx {
		if int(i) >= hi-lo {
			return false
		}
	}
	return true
}

// ingest accumulates one contribution on the datapath its encoding
// names, charging the payload's wire bytes: the float32 adders for raw
// and fp16 payloads (fp16 at half width, so half the bus bursts), a
// scatter-add of top-k's (index, value) pairs into the dense slot for
// the segment's span of the model, or the saturating int32 adders for
// int32block, with a child's narrowed partial re-widened (q << shift,
// exact) onto the base grid — an exactly associative sum, so the
// aggregate is bit-identical under any arrival order. The H-th
// contribution completes the segment and returns its Sum.
func (a *Accelerator) ingest(pkt *protocol.Packet, contributor string) (sum Sum, done bool, latency time.Duration) {
	a.stats.PacketsIn++
	n, bytes := len(pkt.Data), 4*len(pkt.Data)
	switch pkt.Enc {
	case protocol.CompInt32Block:
		n, bytes = len(pkt.QData), 1+2*len(pkt.QData)
	case protocol.CompTopK:
		lo, hi := protocol.SegmentRange(int(a.modelFloats), protocol.SegIndex(pkt.Seg))
		n, bytes = hi-lo, 2+6*len(pkt.Idx)
	case protocol.CompFP16:
		bytes = 2 * len(pkt.Data)
	}
	st := a.segs[pkt.Seg]
	if st == nil {
		st = a.newSegState(n, pkt.Enc == protocol.CompInt32Block)
		a.segs[pkt.Seg] = st
	}
	latency = a.packetLatencyBytes(bytes)
	if a.isDup(st, contributor) {
		return Sum{}, false, latency
	}
	switch pkt.Enc {
	case protocol.CompInt32Block:
		st.qbuf = grown(st.qbuf, n)
		addend := pkt.QData
		if pkt.Shift > 0 {
			// Re-widen into scratch so the frame's payload stays intact.
			if cap(a.qscratch) < n {
				a.qscratch = make([]int32, n)
			}
			addend = a.qscratch[:n]
			copy(addend, pkt.QData)
			tensorkernels.ShlI32(addend, pkt.Shift)
		}
		tensorkernels.AddSatInt32(st.qbuf[:n], addend)
	case protocol.CompTopK:
		st.buf = grown(st.buf, n)
		tensorkernels.ScatterAdd(st.buf, pkt.Idx, pkt.Data)
	default:
		st.buf = grown(st.buf, n)
		tensor.Add(st.buf[:n], pkt.Data)
	}
	st.count++
	if st.count < a.h {
		return Sum{}, false, latency
	}
	delete(a.segs, pkt.Seg)
	a.stats.PacketsOut++
	return a.take(st), true, latency
}

// isDup applies the dedup bitmap: true means this contribution was
// already counted and must be ignored.
func (a *Accelerator) isDup(st *segState, contributor string) bool {
	if !a.dedup || contributor == "" {
		return false
	}
	if st.hasSeen(contributor) {
		a.stats.DupDropped++
		return true
	}
	st.seen = append(st.seen, contributor)
	return false
}

// hasSeen reports whether contributor is in the segment's set.
func (st *segState) hasSeen(contributor string) bool {
	for _, c := range st.seen {
		if c == contributor {
			return true
		}
	}
	return false
}

// Flush applies an FBcast control action to one segment: return the
// partially aggregated sum, in the job's emission representation, and
// clear the segment. ok is false if the segment holds nothing.
func (a *Accelerator) Flush(seg uint64) (sum Sum, ok bool) {
	st := a.segs[seg]
	if st == nil {
		return Sum{}, false
	}
	delete(a.segs, seg)
	a.stats.Flushes++
	return a.take(st), true
}

// DrainSatisfied emits every pending segment whose counter already
// meets the (possibly just lowered) threshold H — how the control plane
// unblocks rounds that were waiting on a worker that left the job.
// Results are ordered by ascending segment.
func (a *Accelerator) DrainSatisfied() (segs []uint64, sums []Sum) {
	for _, s := range a.PendingSegs() {
		st := a.segs[s]
		if st.count >= a.h {
			segs = append(segs, s)
			delete(a.segs, s)
			sums = append(sums, a.take(st))
			a.stats.PacketsOut++
		}
	}
	return segs, sums
}

// PendingSegs lists the segments holding partial sums, ascending.
func (a *Accelerator) PendingSegs() []uint64 {
	segs := make([]uint64, 0, len(a.segs))
	for s := range a.segs {
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs
}

// FlushAll force-broadcasts every partial segment, in ascending segment
// order (via PendingSegs, the one place the sorted enumeration lives),
// returning the segment indices flushed. The discarded partial sums'
// buffers are recycled.
func (a *Accelerator) FlushAll() []uint64 {
	segs := a.PendingSegs()
	for _, s := range segs {
		st := a.segs[s]
		delete(a.segs, s)
		a.recycleState(st)
		a.stats.Flushes++
	}
	return segs
}

// packetLatencyBytes models the datapath cost of one packet: pipeline
// fill plus one cycle per bus burst of header and payload. Compressed
// payloads occupy fewer bursts, which is where the quantized schemes'
// datapath speedup comes from.
func (a *Accelerator) packetLatencyBytes(payloadBytes int) time.Duration {
	burstBytes := a.cfg.BusWidthBits / 8
	headerBytes := 14 + 20 + 8 + 8 // ETH + IP + UDP + Seg
	bursts := ceilDiv(headerBytes, burstBytes) + ceilDiv(payloadBytes, burstBytes)
	cycles := a.cfg.PipelineDepth + bursts
	a.stats.BurstsAdded += uint64(ceilDiv(payloadBytes, burstBytes))
	a.stats.Cycles += uint64(cycles)
	return a.CyclesToDuration(cycles)
}

// PacketLatency returns the datapath latency for a packet carrying
// nFloats float32 elements, without mutating state. Exported for the
// timing model and scalability experiments.
func (a *Accelerator) PacketLatency(nFloats int) time.Duration {
	burstBytes := a.cfg.BusWidthBits / 8
	bursts := ceilDiv(14+20+8+8, burstBytes) + ceilDiv(4*nFloats, burstBytes)
	return a.CyclesToDuration(a.cfg.PipelineDepth + bursts)
}

// CyclesToDuration converts accelerator cycles to wall time.
func (a *Accelerator) CyclesToDuration(cycles int) time.Duration {
	return time.Duration(float64(cycles) / a.cfg.ClockHz * float64(time.Second))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Seen reports whether contributor is recorded for a pending segment
// (dedup mode).
func (a *Accelerator) Seen(seg uint64, contributor string) bool {
	st := a.segs[seg]
	return st != nil && st.hasSeen(contributor)
}

// CountOf reports a pending segment's contribution count.
func (a *Accelerator) CountOf(seg uint64) uint32 {
	if st := a.segs[seg]; st != nil {
		return st.count
	}
	return 0
}
