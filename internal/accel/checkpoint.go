// Checkpoint/restore for the accelerator's per-job SRAM state. A
// preempting scheduler serializes a job's aggregation contexts (the
// in-progress segment buffers, counters, and contributor bitmaps) and
// its shadow slots, evicts the job to free the SRAM, and later restores
// the state bit-identically — so a preempted job resumes mid-round as
// if the eviction never happened. Snapshots are plain data (deep
// copies, sorted deterministically) plus a versioned little-endian
// binary encoding, mirroring how a control plane would DMA the BRAM
// contents out to host memory.
package accel

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// SegSnapshot is one pending segment's accumulation state. Exactly one
// of Buf (float32 datapath) or QBuf (saturating int32 datapath) is
// populated, matching the segment's live representation.
type SegSnapshot struct {
	Seg   uint64
	Count uint32
	Buf   []float32
	QBuf  []int32
	Seen  []string // contributor bitmap, sorted
}

// AccSnapshot is a deep copy of an Accelerator's aggregation state:
// threshold, dedup arming, and every pending segment in ascending
// segment order. Activity counters are deliberately excluded — they are
// observability, not datapath state.
type AccSnapshot struct {
	Threshold uint32
	Dedup     bool
	Segs      []SegSnapshot
}

// Snapshot deep-copies the accelerator's pending aggregation state.
func (a *Accelerator) Snapshot() *AccSnapshot {
	s := &AccSnapshot{Threshold: a.h, Dedup: a.dedup}
	for _, seg := range a.PendingSegs() {
		st := a.segs[seg]
		ss := SegSnapshot{Seg: seg, Count: st.count}
		if len(st.qbuf) > 0 {
			ss.QBuf = append([]int32(nil), st.qbuf...)
		} else {
			ss.Buf = append([]float32(nil), st.buf...)
		}
		if len(st.seen) > 0 {
			ss.Seen = append([]string(nil), st.seen...)
			sort.Strings(ss.Seen)
		}
		s.Segs = append(s.Segs, ss)
	}
	return s
}

// Restore replaces the accelerator's aggregation state with a
// snapshot's: existing pending segments are discarded (recycled) and
// the snapshot's segments, threshold, and dedup arming are installed.
// The snapshot is not retained; buffers are copied in.
func (a *Accelerator) Restore(s *AccSnapshot) {
	for seg, st := range a.segs {
		delete(a.segs, seg)
		a.recycleState(st)
	}
	a.h = s.Threshold
	if a.h == 0 {
		a.h = 1
	}
	a.dedup = s.Dedup
	for _, ss := range s.Segs {
		var st *segState
		if ss.QBuf != nil {
			st = a.newSegStateQ(len(ss.QBuf))
			copy(st.qbuf, ss.QBuf)
		} else {
			st = a.newSegState(len(ss.Buf))
			copy(st.buf, ss.Buf)
		}
		st.count = ss.Count
		st.seen = append(st.seen, ss.Seen...)
		a.segs[ss.Seg] = st
	}
}

// ShadowSlotSnapshot is one shadow slot's contents.
type ShadowSlotSnapshot struct {
	Tagged uint64
	Buf    []float32
	QBuf   []int32
	Shift  uint8
	Quant  bool
}

// ShadowSnapshot is a deep copy of a ShadowStore's slots, ordered by
// ascending spatial segment index.
type ShadowSnapshot struct {
	Slots []ShadowSlotSnapshot
}

// Snapshot deep-copies the store's slots.
func (s *ShadowStore) Snapshot() *ShadowSnapshot {
	snap := &ShadowSnapshot{}
	for _, sl := range s.slots {
		if sl.pkt == nil {
			continue
		}
		ss := ShadowSlotSnapshot{Tagged: sl.tagged, Shift: sl.pkt.Shift, Quant: sl.quant}
		if sl.quant {
			ss.QBuf = append([]int32(nil), sl.pkt.QData...)
		} else {
			ss.Buf = append([]float32(nil), sl.pkt.Data...)
		}
		snap.Slots = append(snap.Slots, ss)
	}
	return snap
}

// Restore replaces the store's slots with a snapshot's, releasing the
// frames it kept and copying the snapshot in (Put, PutQ). Stats are
// kept (they count lifetime activity, not state).
func (s *ShadowStore) Restore(snap *ShadowSnapshot) {
	stats := s.stats
	s.Reset()
	for _, ss := range snap.Slots {
		if ss.Quant {
			s.PutQ(ss.Tagged, ss.QBuf, ss.Shift)
		} else {
			s.Put(ss.Tagged, ss.Buf)
		}
	}
	s.stats = stats
}

// --- Binary encoding -----------------------------------------------------
//
// A little-endian, length-prefixed format with a leading version byte,
// built on an append-style writer so encoding is a single allocation.
// Floats are encoded by their IEEE-754 bit patterns, which is what
// makes the round trip bit-exact (including negative zero and any NaN
// payloads a pathological workload might produce).

const (
	accSnapVersion    = 1
	shadowSnapVersion = 1
)

type binWriter struct{ b []byte }

func (w *binWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *binWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *binWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *binWriter) f32s(v []float32) {
	w.u32(uint32(len(v)))
	for _, f := range v {
		w.u32(math.Float32bits(f))
	}
}
func (w *binWriter) i32s(v []int32) {
	w.u32(uint32(len(v)))
	for _, q := range v {
		w.u32(uint32(q))
	}
}
func (w *binWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

type binReader struct {
	b   []byte
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("accel: truncated snapshot (%s)", what)
	}
}
func (r *binReader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail("u8")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}
func (r *binReader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}
func (r *binReader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}
func (r *binReader) f32s() []float32 {
	n := int(r.u32())
	if r.err != nil || len(r.b) < 4*n {
		r.fail("f32s")
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(r.u32())
	}
	return out
}
func (r *binReader) i32s() []int32 {
	n := int(r.u32())
	if r.err != nil || len(r.b) < 4*n {
		r.fail("i32s")
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.u32())
	}
	return out
}
func (r *binReader) str() string {
	n := int(r.u32())
	if r.err != nil || len(r.b) < n {
		r.fail("str")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (s *AccSnapshot) append(w *binWriter) {
	w.u8(accSnapVersion)
	w.u32(s.Threshold)
	if s.Dedup {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(uint32(len(s.Segs)))
	for _, ss := range s.Segs {
		w.u64(ss.Seg)
		w.u32(ss.Count)
		if ss.QBuf != nil {
			w.u8(1)
			w.i32s(ss.QBuf)
		} else {
			w.u8(0)
			w.f32s(ss.Buf)
		}
		w.u32(uint32(len(ss.Seen)))
		for _, c := range ss.Seen {
			w.str(c)
		}
	}
}

func (s *AccSnapshot) read(r *binReader) {
	if v := r.u8(); r.err == nil && v != accSnapVersion {
		r.err = fmt.Errorf("accel: AccSnapshot version %d unsupported", v)
		return
	}
	s.Threshold = r.u32()
	s.Dedup = r.u8() != 0
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		ss := SegSnapshot{Seg: r.u64(), Count: r.u32()}
		if r.u8() != 0 {
			ss.QBuf = r.i32s()
		} else {
			ss.Buf = r.f32s()
		}
		nc := int(r.u32())
		for j := 0; j < nc && r.err == nil; j++ {
			ss.Seen = append(ss.Seen, r.str())
		}
		if r.err == nil {
			s.Segs = append(s.Segs, ss)
		}
	}
}

// MarshalBinary encodes the snapshot.
func (s *AccSnapshot) MarshalBinary() ([]byte, error) {
	var w binWriter
	s.append(&w)
	return w.b, nil
}

// UnmarshalBinary decodes a snapshot encoded by MarshalBinary.
func (s *AccSnapshot) UnmarshalBinary(b []byte) error {
	*s = AccSnapshot{}
	r := binReader{b: b}
	s.read(&r)
	return r.err
}

func (s *ShadowSnapshot) append(w *binWriter) {
	w.u8(shadowSnapVersion)
	w.u32(uint32(len(s.Slots)))
	for _, sl := range s.Slots {
		w.u64(sl.Tagged)
		w.u8(sl.Shift)
		if sl.Quant {
			w.u8(1)
			w.i32s(sl.QBuf)
		} else {
			w.u8(0)
			w.f32s(sl.Buf)
		}
	}
}

func (s *ShadowSnapshot) read(r *binReader) {
	if v := r.u8(); r.err == nil && v != shadowSnapVersion {
		r.err = fmt.Errorf("accel: ShadowSnapshot version %d unsupported", v)
		return
	}
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		sl := ShadowSlotSnapshot{Tagged: r.u64(), Shift: r.u8()}
		if r.u8() != 0 {
			sl.Quant = true
			sl.QBuf = r.i32s()
		} else {
			sl.Buf = r.f32s()
		}
		if r.err == nil {
			s.Slots = append(s.Slots, sl)
		}
	}
}

// MarshalBinary encodes the snapshot.
func (s *ShadowSnapshot) MarshalBinary() ([]byte, error) {
	var w binWriter
	s.append(&w)
	return w.b, nil
}

// UnmarshalBinary decodes a snapshot encoded by MarshalBinary.
func (s *ShadowSnapshot) UnmarshalBinary(b []byte) error {
	*s = ShadowSnapshot{}
	r := binReader{b: b}
	s.read(&r)
	return r.err
}
