package kernels

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks run every kernel on every available backend at the sizes
// the acceptance bar names (4 KiB, 64 KiB, 1 MiB of float32s) plus the
// 1464-byte wire-payload size (366 floats per iSwitch data packet).
// All hot loops must report 0 allocs/op.
//
// go test -bench . ./internal/tensor/kernels
//
// The committed wall-clock numbers are tensor.add_gbps_64k and
// tensor.add_seg_ns in benchmark/BASELINE.json.

var benchSizes = []struct {
	name string
	n    int
}{
	{"366f", 366},      // one wire packet payload
	{"4KiB", 1 << 10},  // 1024 floats
	{"64KiB", 1 << 14}, // 16384 floats
	{"1MiB", 1 << 18},  // 262144 floats
}

func benchVec(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32() - 0.5
	}
	return v
}

// benchBackends runs fn once per (backend, size) pair as sub-benchmarks.
func benchBackends(b *testing.B, fn func(b *testing.B, n int)) {
	b.Helper()
	orig := Backend()
	defer SetBackend(orig)
	for _, backend := range Backends() {
		for _, sz := range benchSizes {
			b.Run(fmt.Sprintf("%s/%s", backend, sz.name), func(b *testing.B) {
				if err := SetBackend(backend); err != nil {
					b.Fatal(err)
				}
				fn(b, sz.n)
			})
		}
	}
}

func BenchmarkKernelAdd(b *testing.B) {
	benchBackends(b, func(b *testing.B, n int) {
		dst, src := benchVec(n, 1), benchVec(n, 2)
		b.SetBytes(int64(4 * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Add(dst, src)
		}
	})
}

func BenchmarkKernelAxpy(b *testing.B) {
	benchBackends(b, func(b *testing.B, n int) {
		dst, src := benchVec(n, 3), benchVec(n, 4)
		b.SetBytes(int64(4 * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Axpy(0.5, dst, src)
		}
	})
}

func BenchmarkKernelScale(b *testing.B) {
	benchBackends(b, func(b *testing.B, n int) {
		dst := benchVec(n, 5)
		b.SetBytes(int64(4 * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// -1 keeps magnitudes stable; a shrinking factor would
			// drive values denormal and skew the timing.
			Scale(-1, dst)
		}
	})
}

func BenchmarkKernelDot(b *testing.B) {
	benchBackends(b, func(b *testing.B, n int) {
		x, y := benchVec(n, 6), benchVec(n, 7)
		b.SetBytes(int64(4 * n))
		b.ReportAllocs()
		b.ResetTimer()
		var s float32
		for i := 0; i < b.N; i++ {
			s += Dot(x, y)
		}
		_ = s
	})
}

func BenchmarkKernelSumSquares(b *testing.B) {
	benchBackends(b, func(b *testing.B, n int) {
		x := benchVec(n, 8)
		b.SetBytes(int64(4 * n))
		b.ReportAllocs()
		b.ResetTimer()
		var s float64
		for i := 0; i < b.N; i++ {
			s += SumSquares(x)
		}
		_ = s
	})
}

func BenchmarkKernelAdam(b *testing.B) {
	benchBackends(b, func(b *testing.B, n int) {
		p, m, v, g := benchVec(n, 9), benchVec(n, 10), benchVec(n, 11), benchVec(n, 12)
		for i := range v {
			if v[i] < 0 {
				v[i] = -v[i]
			}
		}
		b.SetBytes(int64(4 * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			AdamStep(p, m, v, g, 0.9, 0.999, 0.1, 0.001, 0.1, 0.001, 1e-3, 1e-8)
		}
	})
}

// BenchmarkMaxAbsI32 is the integer max-abs scan on one wire packet's
// worth of narrowed sums (366 elements), per backend: it runs on every
// int32block emission and decode.
func BenchmarkMaxAbsI32(b *testing.B) {
	orig := Backend()
	defer SetBackend(orig)
	rng := rand.New(rand.NewSource(7))
	v := make([]int32, 366)
	for i := range v {
		v[i] = int32(rng.Intn(1<<16)) - 1<<15
	}
	for _, backend := range Backends() {
		b.Run(backend, func(b *testing.B) {
			if err := SetBackend(backend); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkI32 = MaxAbsI32(v)
			}
		})
	}
}

var sinkI32 int32
