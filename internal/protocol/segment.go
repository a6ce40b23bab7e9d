package protocol

import "fmt"

// Gradient packetization. A gradient vector of n float32 elements is
// carried in ceil(n / FloatsPerPacket) data packets; packet Seg s holds
// elements [s*FloatsPerPacket, min(n, (s+1)*FloatsPerPacket)). The Seg
// number is the spatial offset key the in-switch accelerator aggregates
// on (paper §3.2).

// SegmentCount returns the number of data packets needed for a gradient
// vector of n float32 elements.
func SegmentCount(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + FloatsPerPacket - 1) / FloatsPerPacket
}

// SegmentCountWith is SegmentCount for a custom per-packet payload.
func SegmentCountWith(n, perPacket int) int {
	if n <= 0 {
		return 0
	}
	return (n + perPacket - 1) / perPacket
}

// SegmentRange returns the element range [lo, hi) carried by segment s
// of an n-element vector.
func SegmentRange(n int, s uint64) (lo, hi int) {
	return SegmentRangeWith(n, s, FloatsPerPacket)
}

// SegmentRangeWith is SegmentRange for a custom per-packet payload.
func SegmentRangeWith(n int, s uint64, perPacket int) (lo, hi int) {
	lo = int(s) * perPacket
	hi = lo + perPacket
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}

// Segment splits grad into data packets addressed src→dst. The packets
// alias grad's backing array; callers that mutate grad before the
// packets are consumed must copy first.
func Segment(src, dst Addr, grad []float32) []*Packet {
	return SegmentWith(src, dst, grad, FloatsPerPacket)
}

// SegmentWith is Segment with a custom per-packet payload (1 to
// FloatsPerPacket float32 elements), used by the packet-size ablation.
func SegmentWith(src, dst Addr, grad []float32, perPacket int) []*Packet {
	if perPacket < 1 || perPacket > FloatsPerPacket {
		panic(fmt.Sprintf("protocol: per-packet payload %d out of range [1,%d]",
			perPacket, FloatsPerPacket))
	}
	pkts := make([]*Packet, 0, SegmentCountWith(len(grad), perPacket))
	for s := uint64(0); int(s) < SegmentCountWith(len(grad), perPacket); s++ {
		lo, hi := SegmentRangeWith(len(grad), s, perPacket)
		pkts = append(pkts, NewData(src, dst, s, grad[lo:hi]))
	}
	return pkts
}

// Assembler reassembles a gradient vector from data packets, tracking
// which segments have arrived. It is how a worker reconstructs the
// aggregated gradient broadcast back by the switch.
type Assembler struct {
	vec       []float32
	got       []bool
	remaining int
	perPacket int
}

// NewAssembler creates an assembler for an n-element vector.
func NewAssembler(n int) *Assembler { return NewAssemblerWith(n, FloatsPerPacket) }

// NewAssemblerWith creates an assembler expecting segments of perPacket
// elements (matching SegmentWith).
func NewAssemblerWith(n, perPacket int) *Assembler {
	segs := SegmentCountWith(n, perPacket)
	return &Assembler{vec: make([]float32, n), got: make([]bool, segs),
		remaining: segs, perPacket: perPacket}
}

// Add places a data packet's payload at its segment offset. Duplicate
// segments overwrite (idempotent retransmits); mismatched lengths and
// out-of-range segments are errors.
func (a *Assembler) Add(p *Packet) error {
	if !p.IsData() {
		return fmt.Errorf("protocol: assembler given non-data packet (ToS %#02x)", p.ToS)
	}
	return a.AddFloats(p.Seg, p.Data)
}

// AddFloats places an already-decoded payload at segment seg. Same
// duplicate/range rules as Add.
func (a *Assembler) AddFloats(seg uint64, vals []float32) error {
	dst, err := a.Slot(seg, len(vals))
	copy(dst, vals)
	return err
}

// Slot marks segment seg arrived and returns its place in the vector,
// for a payload of n values the caller writes there itself: a codec
// decodes a compressed share straight into its slot. Same
// duplicate/range rules as Add; on an error nothing is marked and the
// slot is nil.
func (a *Assembler) Slot(seg uint64, n int) ([]float32, error) {
	if seg >= uint64(len(a.got)) {
		return nil, fmt.Errorf("protocol: segment %d out of range (have %d)", seg, len(a.got))
	}
	lo, hi := SegmentRangeWith(len(a.vec), seg, a.perPacket)
	if n != hi-lo {
		return nil, fmt.Errorf("protocol: segment %d carries %d floats, want %d", seg, n, hi-lo)
	}
	if !a.got[seg] {
		a.got[seg] = true
		a.remaining--
	}
	return a.vec[lo:hi], nil
}

// Complete reports whether every segment has arrived.
func (a *Assembler) Complete() bool { return a.remaining == 0 }

// Remaining reports how many segments are still missing.
func (a *Assembler) Remaining() int { return a.remaining }

// Missing lists the segment indices not yet received, in order. Workers
// put these in Help control messages to request retransmission.
func (a *Assembler) Missing() []uint64 { return a.AppendMissing(nil) }

// AppendMissing is Missing appended to dst, for a caller that reuses
// one slice across stalls.
func (a *Assembler) AppendMissing(dst []uint64) []uint64 {
	for s, ok := range a.got {
		if !ok {
			dst = append(dst, uint64(s))
		}
	}
	return dst
}

// Vector returns the assembled vector. Valid once Complete is true; the
// returned slice is the assembler's backing store.
func (a *Assembler) Vector() []float32 { return a.vec }

// Reset clears arrival state for reuse in the next iteration without
// reallocating.
func (a *Assembler) Reset() {
	for i := range a.got {
		a.got[i] = false
	}
	a.remaining = len(a.got)
}
