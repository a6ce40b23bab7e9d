package accel

import (
	"testing"

	"iswitch/internal/protocol"
)

func TestShadowStoreExactTagSemantics(t *testing.T) {
	s := NewShadowStore()
	seg := uint64(5)
	s.Put(protocol.TagSeg(3, seg), []float32{1, 2, 3})

	if got, ok := s.Get(protocol.TagSeg(3, seg)); !ok || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("exact-tag Get = %v, %v; want [1 2 3], true", got, ok)
	}
	// A stale round and a future round both share the spatial index but
	// must miss: serving another round's sum corrupts the stalled worker.
	if _, ok := s.Get(protocol.TagSeg(2, seg)); ok {
		t.Fatal("stale-round Get hit; want miss")
	}
	if _, ok := s.Get(protocol.TagSeg(4, seg)); ok {
		t.Fatal("future-round Get hit; want miss")
	}
	if _, ok := s.Get(protocol.TagSeg(3, seg+1)); ok {
		t.Fatal("unknown-segment Get hit; want miss")
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 3 || st.Overwrites != 0 {
		t.Fatalf("stats = %+v; want 1 put, 1 hit, 3 misses, 0 overwrites", st)
	}
}

func TestShadowStoreOverwriteOnRoundReuse(t *testing.T) {
	s := NewShadowStore()
	seg := uint64(9)
	s.Put(protocol.TagSeg(1, seg), []float32{10})
	s.Put(protocol.TagSeg(2, seg), []float32{20})

	if _, ok := s.Get(protocol.TagSeg(1, seg)); ok {
		t.Fatal("round-1 copy survived round-2 Put; want evicted")
	}
	if got, ok := s.Get(protocol.TagSeg(2, seg)); !ok || got[0] != 20 {
		t.Fatalf("round-2 Get = %v, %v; want [20], true", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d; one segment must hold exactly one slot", s.Len())
	}
	if st := s.Stats(); st.Overwrites != 1 {
		t.Fatalf("Overwrites = %d, want 1", st.Overwrites)
	}

	// Re-Putting the same round into the same slot is a refresh, not an
	// overwrite.
	s.Put(protocol.TagSeg(2, seg), []float32{21})
	if st := s.Stats(); st.Overwrites != 1 {
		t.Fatalf("same-round re-Put counted as overwrite: %d", st.Overwrites)
	}
}

// TestShadowStoreUntagged pins the degraded async-mode contract: with no
// round tag (tag 0), the store serves the most recent emission per
// segment — the legacy emission-cache behavior.
func TestShadowStoreUntagged(t *testing.T) {
	s := NewShadowStore()
	s.Put(7, []float32{1})
	s.Put(7, []float32{2})
	if got, ok := s.Get(7); !ok || got[0] != 2 {
		t.Fatalf("untagged Get = %v, %v; want most recent [2], true", got, ok)
	}
}

// owner is a fake BufferOwner that records what comes back to it.
type owner struct {
	f32 [][]float32
	i32 [][]int32
}

func (o *owner) Recycle(buf []float32) { o.f32 = append(o.f32, buf) }
func (o *owner) RecycleQ(buf []int32)  { o.i32 = append(o.i32, buf) }

// emission is a frame of tagged seg whose payload is on loan from o,
// the way an engine's emission carries its accelerator's buffer.
func emission(o *owner, tagged uint64, vals ...float32) *protocol.Packet {
	p := protocol.GetPacket()
	p.Seg = tagged
	p.LendData(vals, o)
	return p
}

// TestShadowStorePutCopiesAndOverwriteReleases: Put copies, so the
// caller may reuse its slice; a kept frame is held by reference, and
// an overwrite by the next round releases it, which returns the loan to
// its owner.
func TestShadowStorePutCopiesAndOverwriteReleases(t *testing.T) {
	s := NewShadowStore()
	src := []float32{1, 2, 3}
	s.Put(protocol.TagSeg(1, 0), src)
	src[0] = 99
	if got, _ := s.Get(protocol.TagSeg(1, 0)); got[0] != 1 {
		t.Fatalf("Put aliased the caller's buffer: got[0] = %v", got[0])
	}

	o := &owner{}
	buf := []float32{4, 5, 6}
	em := emission(o, protocol.TagSeg(1, 1), buf...)
	s.Keep(em.Share())
	em.Release()
	if got, ok := s.Get(protocol.TagSeg(1, 1)); !ok || &got[0] != &buf[0] {
		t.Fatalf("kept frame: Get = %v, %v; want the emission's own buffer", got, ok)
	}
	if len(o.f32) != 0 {
		t.Fatal("the loan came back while the slot keeps the frame")
	}
	s.Keep(emission(o, protocol.TagSeg(2, 1), 7, 8, 9))
	if len(o.f32) != 1 || o.f32[0][0] != 4 {
		t.Fatalf("overwrite returned %v to the owner; want the round-1 buffer", o.f32)
	}
	if st := s.Stats(); st.Puts != 3 || st.Overwrites != 1 {
		t.Fatalf("stats = %+v; want 3 puts, 1 overwrite", st)
	}
	s.Reset()
	if len(o.f32) != 2 {
		t.Fatalf("Reset returned %d loans, want 2", len(o.f32))
	}
}

// TestShadowServedFrameOutlivesOverwrite: a frame served for a Help is
// one more share of the kept emission, so it stays intact after the
// slot is overwritten and the slot's share is released, even with
// released payloads poisoned.
func TestShadowServedFrameOutlivesOverwrite(t *testing.T) {
	protocol.PoisonOnRelease(true)
	defer protocol.PoisonOnRelease(false)
	s := NewShadowStore()
	o := &owner{}
	em := protocol.GetPacket()
	em.Seg = protocol.TagSeg(1, 2)
	em.LendQData([]int32{10, -20, 30}, o)
	em.Shift = 3
	s.Keep(em)
	resp := s.Serve(protocol.TagSeg(1, 2), true)
	if resp == nil {
		t.Fatal("Serve missed the kept round")
	}
	if s.Serve(protocol.TagSeg(1, 2), false) != nil {
		t.Fatal("a quantized slot served a float lookup")
	}
	s.Put(protocol.TagSeg(2, 2), []float32{1})
	if len(o.i32) != 0 {
		t.Fatal("the loan came back while a served share still holds it")
	}
	if resp.Shift != 3 || resp.QData[0] != 10 || resp.QData[1] != -20 || resp.QData[2] != 30 {
		t.Fatalf("served frame after overwrite: %v<<%d; want [10 -20 30]<<3", resp.QData, resp.Shift)
	}
	resp.Release()
	if len(o.i32) != 1 {
		t.Fatalf("%d loans back after the last share, want 1", len(o.i32))
	}
}

// TestShadowStoreCapsSlotArray: the slot array grows to the highest
// index kept, up to maxShadowSlots; a frame past that is released at
// once and never sizes the array, whatever 48-bit index it carries.
func TestShadowStoreCapsSlotArray(t *testing.T) {
	s := NewShadowStore()
	o := &owner{}
	for _, idx := range []uint64{1 << 47, protocol.SegIndexMask, maxShadowSlots} {
		s.Keep(emission(o, protocol.TagSeg(1, idx), 1))
	}
	if s.Len() != 0 || len(s.slots) != 0 || len(o.f32) != 3 {
		t.Fatalf("frames past the cap: %d kept, %d slots, %d released; want 0, 0, 3", s.Len(), len(s.slots), len(o.f32))
	}
	if _, ok := s.Get(protocol.TagSeg(1, 1<<47)); ok {
		t.Fatal("Get hit past the cap")
	}
	s.Keep(emission(o, protocol.TagSeg(1, maxShadowSlots-1), 2))
	if s.Len() != 1 || len(s.slots) != maxShadowSlots {
		t.Fatalf("last slot: %d kept in %d slots; want 1 in %d", s.Len(), len(s.slots), maxShadowSlots)
	}
}

func TestShadowStoreReset(t *testing.T) {
	s := NewShadowStore()
	for seg := uint64(0); seg < 4; seg++ {
		s.Put(protocol.TagSeg(1, seg), []float32{float32(seg)})
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", s.Len())
	}
	if _, ok := s.Get(protocol.TagSeg(1, 0)); ok {
		t.Fatal("Get hit after Reset")
	}
	// Counters survive Reset (job reset clears state, not telemetry).
	if st := s.Stats(); st.Puts != 4 {
		t.Fatalf("Puts after Reset = %d, want 4", st.Puts)
	}
}
