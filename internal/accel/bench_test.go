package accel

import (
	"testing"

	"iswitch/internal/protocol"
)

// BenchmarkIngestFullPacket measures accumulating one full-MTU gradient
// packet (366 float32 lanes) — the accelerator's inner loop.
func BenchmarkIngestFullPacket(b *testing.B) {
	a := New(Config{BusWidthBits: 256, ClockHz: 200e6, PipelineDepth: 8, Threshold: 1 << 30})
	data := make([]float32, protocol.FloatsPerPacket)
	for i := range data {
		data[i] = float32(i)
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Ingest(uint64(i%1024), data)
	}
}

// BenchmarkAccelIngest1024 measures steady-state accumulation of a
// 1024-float payload across a warm working set of segments. All segment
// buffers are pre-created before the timer starts, so this pins the
// zero-alloc contract on the pure accumulate path.
func BenchmarkAccelIngest1024(b *testing.B) {
	a := New(Config{BusWidthBits: 256, ClockHz: 200e6, PipelineDepth: 8, Threshold: 1 << 30})
	data := make([]float32, 1024)
	for i := range data {
		data[i] = float32(i) * 0.25
	}
	const segs = 64
	for s := uint64(0); s < segs; s++ {
		a.Ingest(s, data)
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Ingest(uint64(i%segs), data)
	}
}

// BenchmarkIngestEmitCycle measures a full aggregate-and-emit cycle at
// H=4 (four contributions then an emission) for each scheme's
// contribution frame through the switch's ingest, emission rounding and
// narrowing included.
func BenchmarkIngestEmitCycle(b *testing.B) {
	for _, scheme := range protocol.Compressions() {
		b.Run(scheme.String(), func(b *testing.B) {
			a, frame := schemeCycle(scheme)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for w := 0; w < 4; w++ {
					a.IngestFrame(frame, "")
				}
			}
		})
	}
}

// BenchmarkIngestEmitCycleRecycle is the emit cycle with the consumer
// returning each aggregate via Recycle — the switch datapath's steady
// state, which must be allocation-free.
func BenchmarkIngestEmitCycleRecycle(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Threshold = 4
	a := New(cfg)
	data := make([]float32, protocol.FloatsPerPacket)
	// Warm one full cycle so the pool holds the segment record + buffer.
	for w := 0; w < 4; w++ {
		if sum, done, _ := a.Ingest(0, data); done {
			a.Recycle(sum)
		}
	}
	b.SetBytes(int64(4 * 4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < 4; w++ {
			if sum, done, _ := a.Ingest(0, data); done {
				a.Recycle(sum)
			}
		}
	}
}

// BenchmarkWholeVectorSum measures the deferred PS-style summation for
// comparison with on-the-fly (Figure 8's software side).
func BenchmarkWholeVectorSum(b *testing.B) {
	const n, workers = 100_000, 4
	vecs := make([][]float32, workers)
	for i := range vecs {
		vecs[i] = make([]float32, n)
	}
	b.SetBytes(int64(4 * n * workers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wv := NewWholeVector(n, workers)
		for _, v := range vecs {
			_ = wv.Add(v)
		}
		if _, err := wv.Sum(); err != nil {
			b.Fatal(err)
		}
	}
}
