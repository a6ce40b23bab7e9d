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
// Performance contract: Ingest is the simulation's innermost loop, so
// its steady-state path is allocation-free — payload bursts are summed
// by the vectorized tensor kernels, and segment buffers come from a
// sync.Pool-backed free list that emitted aggregates can be returned to
// via Recycle. bench_test.go enforces 0 allocs/op on this path.
package accel

import (
	"fmt"
	"sort"
	"sync"
	"time"

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
// raw, fp16, and sparse traffic) or qbuf (the saturating int32 adders
// of the block-scaled quantized path) — the job's compression scheme is
// fixed at Join, so the two never mix within a job.
type segState struct {
	buf   []float32
	qbuf  []int32
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

// newSegState returns a segment record with a zeroed n-element buffer.
func (a *Accelerator) newSegState(n int) *segState {
	st := a.getState()
	if cap(st.buf) >= n {
		st.buf = st.buf[:n]
		tensor.Zero(st.buf)
	} else {
		st.buf = make([]float32, n)
	}
	st.qbuf = st.qbuf[:0]
	return st
}

// newSegStateQ is newSegState for the integer datapath: a zeroed
// n-element int32 accumulator.
func (a *Accelerator) newSegStateQ(n int) *segState {
	st := a.getState()
	if cap(st.qbuf) >= n {
		st.qbuf = st.qbuf[:n]
		clear(st.qbuf)
	} else {
		st.qbuf = make([]int32, n)
	}
	st.buf = st.buf[:0]
	return st
}

// recycleState banks a record, buffer included, for reuse.
func (a *Accelerator) recycleState(st *segState) { a.pool.Put(st) }

// takeBuf detaches a completed segment's buffer for the caller and
// leaves the bufferless record on the spare list.
func (a *Accelerator) takeBuf(st *segState) []float32 {
	buf := st.buf
	st.buf = nil
	st.next, a.spare = a.spare, st
	return buf
}

// takeQBuf is takeBuf for the integer datapath.
func (a *Accelerator) takeQBuf(st *segState) []int32 {
	buf := st.qbuf
	st.qbuf = nil
	st.next, a.spare = a.spare, st
	return buf
}

// Recycle returns an aggregate buffer previously handed out by Ingest,
// IngestFrom, DrainSatisfied, or Flush to the segment-buffer pool. Call
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

// RecycleQ is Recycle for integer aggregate buffers handed out by
// IngestQFrom, DrainSatisfiedQ, or FlushQ.
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

// Ingest accumulates one data packet's payload into the segment buffer
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
	return a.IngestFromBytes(seg, contributor, data, 4*len(data))
}

// IngestFromBytes is IngestFrom with an explicit wire-payload byte
// count for the datapath latency charge — how the fp16 scheme's
// half-width payloads consume half the bus bursts while the in-memory
// representation stays float32.
func (a *Accelerator) IngestFromBytes(seg uint64, contributor string, data []float32, payloadBytes int) (sum []float32, done bool, latency time.Duration) {
	a.stats.PacketsIn++
	st := a.segs[seg]
	if st == nil {
		st = a.newSegState(len(data))
		a.segs[seg] = st
	}
	latency = a.packetLatencyBytes(payloadBytes)
	if a.isDup(st, contributor) {
		return nil, false, latency
	}
	if len(st.buf) != len(data) {
		// A malformed or inconsistent segment length; hardware would
		// flag this via the control plane. Grow to the larger size so
		// no data is silently dropped.
		if len(data) > len(st.buf) {
			grown := make([]float32, len(data))
			copy(grown, st.buf)
			st.buf = grown
		}
	}
	tensor.Add(st.buf[:len(data)], data)
	st.count++

	if st.count >= a.h {
		delete(a.segs, seg)
		a.stats.PacketsOut++
		return a.takeBuf(st), true, latency
	}
	return nil, false, latency
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

// IngestQFrom accumulates one block-scaled quantized contribution on
// the integer datapath: the payload is re-widened by its narrowing
// shift (q << shift, exact) onto the segment's base grid and added with
// the saturating int32 adders — an exactly associative sum, so the
// aggregate is bit-identical under any arrival order. When the H-th
// contribution lands, the completed sum is narrowed back into the int16
// wire range and returned with its narrowing shift; ownership of the
// returned slice transfers to the caller (hand it back via RecycleQ).
func (a *Accelerator) IngestQFrom(seg uint64, contributor string, q []int32, shift uint8) (qsum []int32, outShift uint8, done bool, latency time.Duration) {
	a.stats.PacketsIn++
	st := a.segs[seg]
	if st == nil {
		st = a.newSegStateQ(len(q))
		a.segs[seg] = st
	}
	latency = a.packetLatencyBytes(1 + 2*len(q))
	if a.isDup(st, contributor) {
		return nil, 0, false, latency
	}
	if len(q) > len(st.qbuf) {
		grown := make([]int32, len(q))
		copy(grown, st.qbuf)
		st.qbuf = grown
	}
	addend := q
	if shift > 0 {
		// Re-widen into scratch so the caller's payload stays intact.
		if cap(a.qscratch) < len(q) {
			a.qscratch = make([]int32, len(q))
		}
		addend = a.qscratch[:len(q)]
		copy(addend, q)
		tensorkernels.ShlI32(addend, shift)
	}
	tensorkernels.AddSatInt32(st.qbuf[:len(q)], addend)
	st.count++

	if st.count >= a.h {
		delete(a.segs, seg)
		a.stats.PacketsOut++
		sum := a.takeQBuf(st)
		k := tensorkernels.NarrowShift(tensorkernels.MaxAbsI32(sum))
		tensorkernels.ShrI32(sum, k)
		return sum, k, true, latency
	}
	return nil, 0, false, latency
}

// IngestSparseFrom accumulates one top-k sparse contribution:
// scatter-add the (index, value) pairs into the segment's dense float32
// buffer, sized segLen. An empty pair list still counts as the worker's
// contribution — that is how a segment with no selected elements
// completes. The emitted aggregate is dense.
func (a *Accelerator) IngestSparseFrom(seg uint64, contributor string, idx []uint16, vals []float32, segLen int) (sum []float32, done bool, latency time.Duration) {
	a.stats.PacketsIn++
	st := a.segs[seg]
	if st == nil {
		st = a.newSegState(segLen)
		a.segs[seg] = st
	}
	latency = a.packetLatencyBytes(2 + 6*len(idx))
	if a.isDup(st, contributor) {
		return nil, false, latency
	}
	if segLen > len(st.buf) {
		grown := make([]float32, segLen)
		copy(grown, st.buf)
		st.buf = grown
	}
	tensorkernels.ScatterAdd(st.buf, idx, vals)
	st.count++

	if st.count >= a.h {
		delete(a.segs, seg)
		a.stats.PacketsOut++
		return a.takeBuf(st), true, latency
	}
	return nil, false, latency
}

// Flush applies an FBcast control action to one segment: return the
// partially aggregated payload (with how many contributions it holds)
// and clear the segment. ok is false if the segment holds nothing.
func (a *Accelerator) Flush(seg uint64) (sum []float32, count uint32, ok bool) {
	st := a.segs[seg]
	if st == nil {
		return nil, 0, false
	}
	delete(a.segs, seg)
	a.stats.Flushes++
	count = st.count
	return a.takeBuf(st), count, true
}

// FlushQ is Flush for the integer datapath: the partial sum is narrowed
// the same way a completed emission would be, so downstream decoding is
// uniform.
func (a *Accelerator) FlushQ(seg uint64) (q []int32, shift uint8, count uint32, ok bool) {
	st := a.segs[seg]
	if st == nil {
		return nil, 0, 0, false
	}
	delete(a.segs, seg)
	a.stats.Flushes++
	count = st.count
	sum := a.takeQBuf(st)
	k := tensorkernels.NarrowShift(tensorkernels.MaxAbsI32(sum))
	tensorkernels.ShrI32(sum, k)
	return sum, k, count, true
}

// DrainSatisfied emits every pending segment whose counter already
// meets the (possibly just lowered) threshold H — how the control plane
// unblocks rounds that were waiting on a worker that left the job.
// Results are ordered by ascending segment.
func (a *Accelerator) DrainSatisfied() (segs []uint64, sums [][]float32) {
	for _, s := range a.PendingSegs() {
		st := a.segs[s]
		if st.count >= a.h {
			segs = append(segs, s)
			delete(a.segs, s)
			sums = append(sums, a.takeBuf(st))
			a.stats.PacketsOut++
		}
	}
	return segs, sums
}

// DrainSatisfiedQ is DrainSatisfied for the integer datapath, narrowing
// each emitted sum and reporting its per-segment shift.
func (a *Accelerator) DrainSatisfiedQ() (segs []uint64, sums [][]int32, shifts []uint8) {
	for _, s := range a.PendingSegs() {
		st := a.segs[s]
		if st.count >= a.h {
			segs = append(segs, s)
			delete(a.segs, s)
			sum := a.takeQBuf(st)
			k := tensorkernels.NarrowShift(tensorkernels.MaxAbsI32(sum))
			tensorkernels.ShrI32(sum, k)
			sums = append(sums, sum)
			shifts = append(shifts, k)
			a.stats.PacketsOut++
		}
	}
	return segs, sums, shifts
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

// SeenBy reports the contributors recorded for a pending segment
// (dedup mode); nil when the segment has no state. Debugging aid.
func (a *Accelerator) SeenBy(seg uint64) []string {
	st := a.segs[seg]
	if st == nil {
		return nil
	}
	out := append(make([]string, 0, len(st.seen)), st.seen...)
	sort.Strings(out)
	return out
}

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
