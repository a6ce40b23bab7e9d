package protocol

import (
	"math"
	"sync"
	"sync/atomic"
)

// Frame memory. A Packet is a small pooled header holding at most one
// reference to a counted payload record; the record is either a pooled
// buffer the frame was filled into (Set*Copy) or a slice on loan from
// its owner (Lend*), handed back when the last frame referring to it is
// released. The paper's accelerator works the same way: it sums a
// segment into one BRAM buffer and its output module replicates that
// one buffer to the ports (§3.3, Figure 7).
//
// The two pools are separate, so a header-only GetPacket (a control, an
// uplink frame aliasing the worker's gradient) can never take a buffer
// away from the payload-bearing frames.
//
// Who allocates, who may alias, who releases:
//
//	frame            header from       payload                       released by
//	uplink data      NewData/Share/    fp32/fp16 alias the sender's  the engine after IngestFrame:
//	                 NewSparseData     gradient; int32block shares    a switch's, or after failover
//	                                   the client's retained wire     the relay worker's; the last
//	                                   round; top-k copies the codec  release of a wire round hands
//	                                   selection in (Set*Copy)        its buffer back to the client
//	uplink train     none until due:   the round's gradient, or the   the client's record: its last
//	                 Train.Frame makes train's own Share of the wire  Frame or Drop releases the
//	                 each header as    round                          wire-round share; each frame
//	                 its frame reaches                                it made goes as uplink data
//	                 the switch (at
//	                 once on a socket)
//	emission         GetPacket         on loan from the accelerator   the emitting switch after the
//	                                   (LendData/LendQData)           fan-out (root) or, see up-forward
//	broadcast        the emission's    the emission's record, held    each holder once: a worker after
//	                 header, Ref per   once by the one header; a      Take (the relay's own, off its
//	                 worker and shadow child's Share is one more      loopback queue), the switch after
//	                 slot; a child     reference, which the child     its fan-out, the ShadowStore when
//	                 switch gets a     fans out the same way          the next round overwrites the
//	                 Share                                            slot (or on Reset); the last
//	                                                                  returns the header to the pool
//	up-forward       the emission      the child's loan travels up    the parent after Ingest*From:
//	                                                                  the buffer returns to the child
//	shadow re-serve  Share             one more reference to the      the requesting worker
//	                                   kept emission's record
//	control          NewControl/       value ≤ InlineValueLen bytes   the engine's Handle after
//	                 NewHelp           inline in the header           handleControl; the worker's
//	                                                                  receive loop
//	decoded datagram UnmarshalPayload  control value inline; data     the UDP switch's engine after
//	                 (Unmarshal)       decoded into a pooled buffer   Handle; the UDP client's engine
//	                                                                  after Take
//	dropped frame    any               any                            netsim, at the drop site
//	kept frame       PooledClone       pooled deep copy: the one      whoever keeps it, when done
//	                                   copy left, for callers that
//	                                   hold a frame past delivery
//
// Ownership rules:
//
//   - A pooled header has one owner per holder: exactly one unless Ref
//     added more. Each owner either retains it forever or calls Release
//     exactly once, after which it must not touch the packet; the last
//     Release returns the header to the pool. A header with several
//     holders is read by all of them and written by none.
//   - A payload may be read through any frame that refers to it and
//     written through none once it is shared: every holder sees the
//     same memory.
//   - Release on a non-pooled packet is a no-op, so delivery paths may
//     release unconditionally. Forgetting a Release leaks nothing: the
//     GC collects the header, and a loaned buffer that never comes back
//     is replaced by its owner. Pooling is an optimization, never a
//     correctness requirement.
//   - Shallow copies (cp := *pkt) alias the payload without counting:
//     the copy must not outlive the original's Release, and must never
//     be released itself.

var packetPool = sync.Pool{New: func() any {
	freshHeaders.Add(1)
	return new(Packet)
}}

// freshHeaders counts the headers packetPool made because it had none
// to hand out.
var freshHeaders atomic.Uint64

// FreshHeaders reports how many pooled headers were allocated since the
// process started: the headers a GetPacket could not reuse. The pool
// drops what it holds at every garbage collection, so the count is a
// property of a run only with the collector held off.
func FreshHeaders() uint64 { return freshHeaders.Load() }

// bufPool holds records that own their buffers; loanPool holds the
// bufferless records that carry a loan.
var (
	bufPool  = sync.Pool{New: func() any { return new(payload) }}
	loanPool = sync.Pool{New: func() any { return new(payload) }}
)

// InlineValueLen is the longest control value a header stores without a
// buffer: the 9-byte scheme-carrying Join is the protocol's longest.
const InlineValueLen = 9

// BufferOwner is where a loaned payload goes back to; the accelerator
// is one.
type BufferOwner interface {
	Recycle(buf []float32)
	RecycleQ(buf []int32)
}

// payload is one counted payload record.
type payload struct {
	// refs counts the frames referring to the record. It is a plain
	// integer: a shared payload never crosses kernels or goroutines.
	// Every share of an emission is made, delivered and released inside
	// the one simulation kernel the emitting switch belongs to, whose
	// processes run one at a time. The header a switch's shadow slot
	// holds outlives the engine call that made it, but only that
	// switch's engine touches it again (to serve a Help, or to release
	// it on overwrite), and the UDP switch enters its engine only under
	// its mutex, where it also writes and releases each frame it
	// forwards. A decoded datagram is never shared before the goroutine
	// that read it releases it. Packet.refs, a header's count, follows
	// the same rule.
	refs int32

	// Buffers owned by the record (owner == nil), kept across release
	// for reuse, or the one slice on loan from owner.
	f32 []float32
	i32 []int32
	u16 []uint16

	owner BufferOwner
}

// poisoned makes a payload's last release overwrite it (PoisonOnRelease).
var poisoned bool

// PoisonOnRelease is for tests: while on, the last release of a payload
// overwrites it with NaN, math.MinInt32 and 0xFFFF before it goes back
// to its pool or owner, so a reader that outlives its reference computes
// garbage instead of passing by luck. Set it before any frame exists
// (TestMain), not while a simulation runs.
func PoisonOnRelease(on bool) { poisoned = on }

func (pl *payload) poison() {
	f32, i32, u16 := pl.f32[:cap(pl.f32)], pl.i32[:cap(pl.i32)], pl.u16[:cap(pl.u16)]
	for i := range f32 {
		f32[i] = float32(math.NaN())
	}
	for i := range i32 {
		i32[i] = math.MinInt32
	}
	for i := range u16 {
		u16[i] = math.MaxUint16
	}
}

// drop lets go of one reference; the last one returns the record to its
// pool and a loan to its owner.
func (pl *payload) drop() {
	pl.refs--
	if pl.refs > 0 {
		return
	}
	if pl.refs < 0 {
		panic("protocol: payload released more often than it was shared")
	}
	if poisoned {
		pl.poison()
	}
	if pl.owner == nil {
		bufPool.Put(pl)
		return
	}
	owner, f32, i32 := pl.owner, pl.f32, pl.i32
	pl.owner, pl.f32, pl.i32 = nil, nil, nil
	loanPool.Put(pl)
	if i32 != nil {
		owner.RecycleQ(i32)
	} else {
		owner.Recycle(f32)
	}
}

// GetPacket returns an empty pooled header. The caller owns it until
// Release.
func GetPacket() *Packet {
	p := packetPool.Get().(*Packet)
	p.pooled, p.refs = true, 1
	return p
}

// Ref counts one more holder of p's header itself and returns p: the
// holder reads the same header and payload, writes neither, and calls
// Release once like any owner. It is how a switch fans one emission out
// to its workers: one header, not one share per member. The count is a
// plain integer, under the same rule as the payload's: every holder
// lives in the one kernel or goroutine that made the header.
func (p *Packet) Ref() *Packet {
	p.refs++
	return p
}

// Release lets go of one holder of a pooled header; the last one
// returns it to the pool and lets go of its payload reference. No-op
// for packets that did not come from the pool, so consumers may call it
// unconditionally on delivery.
func (p *Packet) Release() {
	if p == nil || !p.pooled {
		return
	}
	if p.refs--; p.refs > 0 {
		return
	}
	if p.pay != nil {
		p.pay.drop()
	}
	// Cleared field by field: assigning a Packet literal builds a
	// temporary and copies it over *p on every frame.
	// TestReleaseClearsEveryField fails if a new field is left out.
	p.Src, p.Dst, p.ToS, p.Job = Addr{}, Addr{}, 0, 0
	p.Action, p.Value = 0, nil
	p.Seg, p.Data = 0, nil
	p.Enc, p.Shift, p.QData, p.Idx = 0, 0, nil, nil
	p.pooled, p.inline, p.pay = false, [InlineValueLen]byte{}, nil
	packetPool.Put(p)
}

// Share returns a pooled header that refers to the same payload as p:
// the header fields are copied, the payload is counted once more and
// not copied. A share's header is its own to address: it is what a
// switch sends a child switch, which routes on Dst, and what a shadow
// slot re-serves to a Help. A payload p merely aliases (NewData over
// the caller's slice) is aliased by the share too.
func (p *Packet) Share() *Packet {
	q := p.header()
	q.Data, q.QData, q.Idx = p.Data, p.QData, p.Idx
	if p.pay != nil {
		p.pay.refs++
		q.pay = p.pay
	}
	return q
}

// header returns a pooled copy of everything in p but its payload.
func (p *Packet) header() *Packet {
	q := GetPacket()
	q.Src, q.Dst, q.ToS, q.Job = p.Src, p.Dst, p.ToS, p.Job
	q.Action, q.Seg = p.Action, p.Seg
	q.Enc, q.Shift = p.Enc, p.Shift
	if p.Value != nil {
		q.SetValueCopy(p.Value)
	}
	return q
}

// PooledClone returns a deep copy of p backed by the pools, the copy
// that remains for callers that keep a frame: whoever takes delivery
// should Release it. The clone never aliases p's payload.
func (p *Packet) PooledClone() *Packet {
	q := p.header()
	if p.Data != nil {
		q.SetDataCopy(p.Data)
	}
	if p.QData != nil {
		q.SetQDataCopy(p.QData)
	}
	if p.Idx != nil {
		q.SetIdxCopy(p.Idx)
	}
	return q
}

// ownBuf returns the buffer record p may write into, taking one from
// the pool unless p already holds one to itself.
func (p *Packet) ownBuf() *payload {
	if pl := p.pay; pl != nil {
		if pl.owner == nil && pl.refs == 1 {
			return pl
		}
		pl.drop()
	}
	pl := bufPool.Get().(*payload)
	pl.refs = 1
	p.pay = pl
	return pl
}

// SetDataCopy points p.Data at a pooled copy of data.
func (p *Packet) SetDataCopy(data []float32) { copy(p.ownData(len(data)), data) }

// ownData points p.Data at n floats of a pooled buffer p owns, for the
// caller to fill: SetDataCopy from a slice, the wire decode from bytes.
func (p *Packet) ownData(n int) []float32 {
	pl := p.ownBuf()
	if cap(pl.f32) < n {
		pl.f32 = make([]float32, n)
	}
	p.Data = pl.f32[:n]
	return p.Data
}

// SetQDataCopy points p.QData at a pooled copy of q.
func (p *Packet) SetQDataCopy(q []int32) {
	pl := p.ownBuf()
	if cap(pl.i32) < len(q) {
		pl.i32 = make([]int32, len(q))
	}
	p.QData = pl.i32[:len(q)]
	copy(p.QData, q)
}

// SetIdxCopy points p.Idx at a pooled copy of idx.
func (p *Packet) SetIdxCopy(idx []uint16) {
	pl := p.ownBuf()
	if cap(pl.u16) < len(idx) {
		pl.u16 = make([]uint16, len(idx))
	}
	p.Idx = pl.u16[:len(idx)]
	copy(p.Idx, idx)
}

// SetValueCopy points p.Value at an owned copy of value: inline in the
// header up to InlineValueLen bytes, which covers every control the
// protocol defines.
func (p *Packet) SetValueCopy(value []byte) {
	if len(value) > InlineValueLen {
		p.Value = append([]byte(nil), value...)
		return
	}
	p.Value = p.inline[:len(value)]
	copy(p.Value, value)
}

// LendData points p.Data at data, which stays owner's: the last frame
// referring to it hands it back with owner.Recycle(data). Nobody writes
// data in the meantime.
func (p *Packet) LendData(data []float32, owner BufferOwner) {
	p.lend(owner).f32 = data
	p.Data = data
}

// LendQData is LendData for a quantized payload, handed back with
// owner.RecycleQ(q).
func (p *Packet) LendQData(q []int32, owner BufferOwner) {
	p.lend(owner).i32 = q
	p.QData = q
}

func (p *Packet) lend(owner BufferOwner) *payload {
	if p.pay != nil {
		p.pay.drop()
	}
	pl := loanPool.Get().(*payload)
	pl.refs, pl.owner = 1, owner
	p.pay = pl
	return pl
}

// NewPooledData builds a pooled data packet whose payload is an owned
// copy of data (copy-in semantics, unlike NewData which aliases).
func NewPooledData(src, dst Addr, seg uint64, data []float32) *Packet {
	p := NewData(src, dst, seg, data)
	p.SetDataCopy(data)
	return p
}
