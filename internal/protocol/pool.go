package protocol

import "sync"

// Packet pooling. Switch fan-out is the dominant packet producer in a
// large simulation: broadcasting one aggregated segment to W workers
// materializes W copies, and on a 1024-worker fat-tree that is a
// gigabyte-scale allocation churn per training step. Pooled packets
// make those copies flyweight: the consumer that takes delivery calls
// Release when it has extracted what it needs, and the frame (with its
// payload backing arrays) is reused for a later copy.
//
// Ownership rules:
//
//   - A pooled packet is owned by exactly one consumer at a time; the
//     owner either retains it forever or calls Release exactly once,
//     after which the packet must not be touched.
//   - Release on a non-pooled packet is a no-op, so delivery paths may
//     release unconditionally — forgetting a Release leaks nothing
//     (the GC still collects), and releasing a packet that never came
//     from the pool is harmless. Pooling is an optimization, never a
//     correctness requirement.
//   - Shallow copies (cp := *pkt) alias the pooled payload: the copy
//     must not outlive the original's Release, and must never be
//     released itself.

var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// GetPacket returns an empty pooled packet. The caller owns it until
// Release.
func GetPacket() *Packet {
	p := packetPool.Get().(*Packet)
	p.pooled = true
	return p
}

// Release returns a pooled packet to the pool, keeping its payload
// backing arrays for reuse. No-op for packets that did not come from
// GetPacket, so consumers may call it unconditionally on delivery.
func (p *Packet) Release() {
	if p == nil || !p.pooled {
		return
	}
	// Cleared field by field: assigning a Packet literal builds a
	// 232-byte temporary and copies it over *p on every frame.
	// TestReleaseClearsEveryField fails if a new field is left out.
	p.Src, p.Dst, p.ToS, p.Job = Addr{}, Addr{}, 0, 0
	p.Action, p.Value = 0, nil
	p.Seg, p.Data = 0, nil
	p.Enc, p.Shift, p.QData, p.Idx = 0, 0, nil, nil
	p.pooled = false
	packetPool.Put(p)
}

// SetDataCopy points p.Data at an owned copy of data, reusing p's
// backing array when it is large enough.
func (p *Packet) SetDataCopy(data []float32) {
	if cap(p.dataBuf) < len(data) {
		p.dataBuf = make([]float32, len(data))
	}
	p.Data = p.dataBuf[:len(data)]
	copy(p.Data, data)
}

// SetValueCopy points p.Value at an owned copy of value, reusing p's
// backing array when it is large enough.
func (p *Packet) SetValueCopy(value []byte) {
	if cap(p.valueBuf) < len(value) {
		p.valueBuf = make([]byte, len(value))
	}
	p.Value = p.valueBuf[:len(value)]
	copy(p.Value, value)
}

// SetQDataCopy points p.QData at an owned copy of q, reusing p's
// backing array when it is large enough.
func (p *Packet) SetQDataCopy(q []int32) {
	if cap(p.qBuf) < len(q) {
		p.qBuf = make([]int32, len(q))
	}
	p.QData = p.qBuf[:len(q)]
	copy(p.QData, q)
}

// SetIdxCopy points p.Idx at an owned copy of idx, reusing p's backing
// array when it is large enough.
func (p *Packet) SetIdxCopy(idx []uint16) {
	if cap(p.idxBuf) < len(idx) {
		p.idxBuf = make([]uint16, len(idx))
	}
	p.Idx = p.idxBuf[:len(idx)]
	copy(p.Idx, idx)
}

// PooledClone returns a deep copy of p backed by the pool — same
// semantics as Clone, but the copy is flyweight: whoever takes delivery
// should Release it. The clone never aliases p's payload.
func (p *Packet) PooledClone() *Packet {
	q := GetPacket()
	q.Src, q.Dst, q.ToS, q.Job = p.Src, p.Dst, p.ToS, p.Job
	q.Action, q.Seg = p.Action, p.Seg
	q.Enc, q.Shift = p.Enc, p.Shift
	if p.Value != nil {
		q.SetValueCopy(p.Value)
	}
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

// NewPooledData builds a pooled data packet whose payload is an owned
// copy of data (copy-in semantics, unlike NewData which aliases).
func NewPooledData(src, dst Addr, seg uint64, data []float32) *Packet {
	if len(data) > FloatsPerPacket {
		panic("protocol: segment exceeds packet capacity")
	}
	p := GetPacket()
	p.Src, p.Dst, p.ToS, p.Seg = src, dst, ToSData, seg
	p.SetDataCopy(data)
	return p
}
