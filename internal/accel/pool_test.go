package accel

import (
	"math"
	"testing"

	"iswitch/internal/protocol"
)

// TestIngestSteadyStateZeroAlloc pins the package's performance
// contract: once a segment's buffer exists, accumulating into it must
// not allocate.
func TestIngestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	a := New(Config{BusWidthBits: 256, ClockHz: 200e6, PipelineDepth: 8, Threshold: 1 << 30})
	data := make([]float32, 1024)
	for i := range data {
		data[i] = float32(i)
	}
	a.Ingest(7, data) // create the segment buffer
	if n := testing.AllocsPerRun(50, func() { a.Ingest(7, data) }); n != 0 {
		t.Fatalf("steady-state Ingest allocates %v allocs/op, want 0", n)
	}
}

// TestEmitRecycleCycleZeroAlloc covers the full aggregate→emit→Recycle
// loop: after one warm cycle, subsequent cycles must reuse the pooled
// segment record and buffer without allocating.
func TestEmitRecycleCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	cfg := DefaultConfig()
	cfg.Threshold = 4
	a := New(cfg)
	data := make([]float32, 366)
	cycle := func() {
		for w := 0; w < 4; w++ {
			if sum, done, _ := a.Ingest(0, data); done {
				a.Recycle(sum)
			}
		}
	}
	cycle() // warm the pool
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("emit/Recycle cycle allocates %v allocs/op, want 0", n)
	}

	// Every scheme through the switch's ingest: the fp16 rounding, the
	// top-k scatter into a dense slot and the int32 narrowing reuse the
	// pooled record and buffer too.
	for _, scheme := range protocol.Compressions() {
		a, frame := schemeCycle(scheme)
		cycle := func() {
			for w := 0; w < 4; w++ {
				sum, done, _, ok := a.IngestFrame(frame, "")
				if !ok {
					t.Fatalf("%v: the accelerator refused its own scheme's frame", scheme)
				}
				if done {
					recycle(a, sum)
				}
			}
		}
		cycle()
		if n := testing.AllocsPerRun(50, cycle); n != 0 {
			t.Fatalf("%v: emit/Recycle cycle allocates %v allocs/op, want 0", scheme, n)
		}
	}
}

// schemeCycle returns an H = 4 accelerator set up for scheme and a
// worker's contribution frame to segment 0 under it: a full segment of
// floats or int32s, or a tenth of one selected for top-k.
func schemeCycle(scheme protocol.Compression) (*Accelerator, *protocol.Packet) {
	const n = protocol.FloatsPerPacket
	cfg := DefaultConfig()
	cfg.Threshold = 4
	a := New(cfg)
	a.SetCompression(scheme, n)
	frame := &protocol.Packet{Enc: scheme}
	switch scheme {
	case protocol.CompInt32Block:
		frame.QData = make([]int32, n)
	case protocol.CompTopK:
		frame.Idx, frame.Data = make([]uint16, n/10), make([]float32, n/10)
		for i := range frame.Idx {
			frame.Idx[i] = uint16(10 * i)
		}
	default:
		frame.Data = make([]float32, n)
	}
	return a, frame
}

// recycle hands a completed sum's buffer back, as the release of the
// last frame it was lent to does.
func recycle(a *Accelerator, sum Sum) {
	if sum.Enc == protocol.CompInt32Block {
		a.RecycleQ(sum.QData)
	} else {
		a.Recycle(sum.Data)
	}
}

// TestRecycledBufferZeroed verifies a recycled buffer is indistinguishable
// from a fresh allocation: the next segment that reuses it starts from
// exact +0 bits, so sums stay bit-identical to the unpooled seed.
func TestRecycledBufferZeroed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = 1
	a := New(cfg)
	dirty := []float32{1.5, -2.25, float32(math.NaN()), float32(math.Inf(1))}
	sum, done, _ := a.Ingest(0, dirty)
	if !done {
		t.Fatal("expected emission at H=1")
	}
	a.Recycle(sum)

	// A -0 contribution exposes stale state: +0 + (-0) = +0, but
	// dirty + (-0) != +0 bit pattern.
	negZero := []float32{float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1)),
		float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1))}
	sum2, done, _ := a.Ingest(1, negZero)
	if !done {
		t.Fatal("expected emission at H=1")
	}
	for i, v := range sum2 {
		if math.Float32bits(v) != 0 {
			t.Fatalf("element %d = %v (bits %x), want exact +0 from a zeroed recycled buffer",
				i, v, math.Float32bits(v))
		}
	}
}

// TestRecycleKeepsLargerBuffer checks the pool prefers the larger of the
// recycled and banked buffers so capacity ratchets up, not down.
func TestRecycleKeepsLargerBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = 1
	a := New(cfg)
	big := make([]float32, 2048)
	sum, done, _ := a.Ingest(0, big)
	if !done {
		t.Fatal("expected emission at H=1")
	}
	a.Recycle(sum)
	small := make([]float32, 8)
	sum2, _, _ := a.Ingest(1, small)
	if cap(sum2) < 2048 {
		t.Fatalf("recycled capacity %d, want the banked 2048-element buffer reused", cap(sum2))
	}
}

// TestRecycleNeverDropsALiveBuffer: a returned buffer goes onto a
// bufferless record, never over a buffer some record already holds,
// which would send the held one to the GC and make the next segment
// allocate. The cases that expose it are records banked whole (Reset,
// FlushAll) and buffers that come back in a run with no emission between
// them. With 1 024 segments in flight, completing and recycling every
// one of them, round after round, allocates nothing after first touch on
// either datapath.
func TestRecycleNeverDropsALiveBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	const liveSegs = 1024
	for _, h := range []uint32{4, 16} {
		cfg := DefaultConfig()
		cfg.Threshold = h
		data := make([]float32, 366)
		q := make([]int32, 366)

		af := New(cfg)
		var sums [][]float32
		floatRound := func() {
			sums = sums[:0]
			for w := uint32(0); w < h; w++ {
				for seg := uint64(0); seg < liveSegs; seg++ {
					if sum, done, _ := af.Ingest(seg, data); done {
						sums = append(sums, sum)
					}
				}
			}
			for _, sum := range sums { // every buffer comes back in one run
				af.Recycle(sum)
			}
		}
		aq := New(cfg)
		var qsums [][]int32
		quantRound := func() {
			qsums = qsums[:0]
			for w := uint32(0); w < h; w++ {
				for seg := uint64(0); seg < liveSegs; seg++ {
					if sum, _, done, _ := aq.IngestQFrom(seg, "", q, 0); done {
						qsums = append(qsums, sum)
					}
				}
			}
			for _, sum := range qsums {
				aq.RecycleQ(sum)
			}
		}
		floatRound() // first touch
		quantRound()
		if len(sums) != liveSegs || len(qsums) != liveSegs {
			t.Fatalf("H=%d: %d float and %d quantized segments completed, want %d each", h, len(sums), len(qsums), liveSegs)
		}
		if n := testing.AllocsPerRun(5, floatRound); n != 0 {
			t.Errorf("H=%d: float round of %d segments allocates %v times after first touch, want 0", h, liveSegs, n)
		}
		if n := testing.AllocsPerRun(5, quantRound); n != 0 {
			t.Errorf("H=%d: quantized round of %d segments allocates %v times after first touch, want 0", h, liveSegs, n)
		}

		// Records banked whole (Reset) still hold their buffers when the
		// next returned buffer arrives.
		for seg := uint64(0); seg < liveSegs; seg++ {
			af.Ingest(seg, data)
		}
		af.Reset()
		if n := testing.AllocsPerRun(5, floatRound); n != 0 {
			t.Errorf("H=%d: float round after a Reset allocates %v times, want 0", h, n)
		}
	}
}
