package accel

import "iswitch/internal/protocol"

// ShadowStore is the shadow copy of the aggregation slots (SwitchML's
// slot-pair design, Sapio et al.): when the primary slot for a segment
// emits its aggregate and is reused by the next round, the emitted sum
// moves into the shadow slot for the same spatial segment index. A
// worker that lost the broadcast of round r can then be re-served from
// the shadow while round r+1 is already accumulating in the primary —
// the switch never has to ask anyone to retransmit data it has already
// summed.
//
// Slots are addressed by the 48-bit spatial segment index, as the
// accelerator addresses its BRAM (no hashing): slot i of a flat array
// serves segment i, and each slot stores inline the full round-tagged
// Seg value it holds, so a lookup for a stale or future round misses
// without touching the frame. Untagged traffic (round tag 0: async mode,
// or recovery off) degrades to "most recent emission per segment",
// which is exactly the legacy emission-cache contract.
//
// A slot keeps the emitted frame itself (Keep: one more holder of the
// emission's header, not a copy), so every switch a broadcast crosses
// holds the one buffer the root's accelerator summed into, and a Help
// is answered with one more share of it (Serve). Overwriting a slot
// releases its frame; the last release hands a loaned buffer back to
// its accelerator. The copying entries (Put, PutQ, Get, GetQ) fill and
// read the same slots through a pooled copy.
//
// The array grows on demand up to maxShadowSlots segments; an emission
// past that is not shadowed, and a Help for it takes the re-gather path.
// A segment index read off the wire therefore never sizes an allocation.
type ShadowStore struct {
	slots []shadowSlot
	n     int // slots holding a frame
	stats ShadowStats
}

// maxShadowSlots caps the slot array: 1<<16 segments of
// protocol.FloatsPerPacket floats each, about 24 M floats, well beyond
// every model the experiments train.
const maxShadowSlots = 1 << 16

type shadowSlot struct {
	tagged uint64 // full Seg value (round tag | index) the slot answers
	quant  bool   // the frame carries a quantized (QData) aggregate
	pkt    *protocol.Packet
}

// ShadowStats counts shadow-slot activity.
type ShadowStats struct {
	Puts       uint64 // emissions recorded
	Overwrites uint64 // slot reused by a newer round
	Hits       uint64 // lookups served
	Misses     uint64 // lookups that found no slot or a different round
}

// NewShadowStore returns an empty store.
func NewShadowStore() *ShadowStore { return &ShadowStore{} }

// Keep records an emitted frame in the slot for its (possibly
// round-tagged) Seg, taking over pkt: the store releases it when the
// slot is overwritten or reset. The caller hands over a holder it made
// for the store (pkt.Ref() or pkt.Share()) and must not write the frame
// afterwards.
// A frame past maxShadowSlots is released at once.
func (s *ShadowStore) Keep(pkt *protocol.Packet) {
	s.keep(pkt, pkt.QData != nil)
}

func (s *ShadowStore) keep(pkt *protocol.Packet, quant bool) {
	idx := protocol.SegIndex(pkt.Seg)
	if idx >= maxShadowSlots {
		pkt.Release()
		return
	}
	if idx >= uint64(len(s.slots)) {
		n := max(2*len(s.slots), int(idx)+1, 64)
		s.slots = append(s.slots, make([]shadowSlot, min(n, maxShadowSlots)-len(s.slots))...)
	}
	sl := &s.slots[idx]
	if sl.pkt == nil {
		s.n++
	} else {
		if sl.tagged != pkt.Seg {
			s.stats.Overwrites++
		}
		sl.pkt.Release()
	}
	sl.tagged, sl.quant, sl.pkt = pkt.Seg, quant, pkt
	s.stats.Puts++
}

// lookup returns the frame kept for an exact round-tagged Seg value in
// the given representation, counting the hit or miss. A slot holding a
// different round's aggregate misses: serving round r+1's sum to a
// worker stalled on round r would corrupt its weights. The
// representations never cross-serve.
func (s *ShadowStore) lookup(taggedSeg uint64, quant bool) *protocol.Packet {
	idx := protocol.SegIndex(taggedSeg)
	if idx < uint64(len(s.slots)) {
		if sl := &s.slots[idx]; sl.pkt != nil && sl.tagged == taggedSeg && sl.quant == quant {
			s.stats.Hits++
			return sl.pkt
		}
	}
	s.stats.Misses++
	return nil
}

// Serve answers a lookup with a new share of the kept frame (nil on a
// miss), for the caller to address and send: a quantized slot for
// quant, a float one otherwise. The share's payload is read-only.
func (s *ShadowStore) Serve(taggedSeg uint64, quant bool) *protocol.Packet {
	if pkt := s.lookup(taggedSeg, quant); pkt != nil {
		return pkt.Share()
	}
	return nil
}

// Put records an emitted aggregate under its (possibly round-tagged)
// Seg value, copying sum into a pooled frame: the caller may reuse sum.
func (s *ShadowStore) Put(taggedSeg uint64, sum []float32) {
	p := protocol.GetPacket()
	p.Seg = taggedSeg
	p.SetDataCopy(sum)
	s.keep(p, false)
}

// PutQ records an emitted quantized aggregate (with its narrowing
// shift) the same way Put records a float one. A job emits under exactly
// one representation, so a slot flips wholesale when a scheme's traffic
// lands in it.
func (s *ShadowStore) PutQ(taggedSeg uint64, q []int32, shift uint8) {
	p := protocol.GetPacket()
	p.Seg, p.Enc, p.Shift = taggedSeg, protocol.CompInt32Block, shift
	p.SetQDataCopy(q)
	s.keep(p, true)
}

// Get returns the float aggregate kept for an exact round-tagged Seg
// value. The slice is the slot's: read it before the slot is next
// written.
func (s *ShadowStore) Get(taggedSeg uint64) ([]float32, bool) {
	if pkt := s.lookup(taggedSeg, false); pkt != nil {
		return pkt.Data, true
	}
	return nil, false
}

// GetQ is Get for quantized slots; a slot holding a float aggregate
// misses.
func (s *ShadowStore) GetQ(taggedSeg uint64) (q []int32, shift uint8, ok bool) {
	if pkt := s.lookup(taggedSeg, true); pkt != nil {
		return pkt.QData, pkt.Shift, true
	}
	return nil, 0, false
}

// Len reports how many segments currently hold a shadow copy.
func (s *ShadowStore) Len() int { return s.n }

// Stats returns a snapshot of the activity counters.
func (s *ShadowStore) Stats() ShadowStats { return s.stats }

// Reset drops every shadow copy (job reset), releasing the kept frames;
// the slot array is kept.
func (s *ShadowStore) Reset() {
	for i := range s.slots {
		if sl := &s.slots[i]; sl.pkt != nil {
			sl.pkt.Release()
			*sl = shadowSlot{}
		}
	}
	s.n = 0
}
