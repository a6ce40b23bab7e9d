package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// TestF16RoundTripExhaustive pins the conversion against the full
// half-precision domain: every one of
// the 65536 bit patterns must survive F16ToF32 → F16FromF32 (NaN
// payloads excepted — they canonicalize to 0x7e00, which must then be
// a fixed point).
func TestF16RoundTripExhaustive(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		bits := uint16(h)
		f := F16ToF32(bits)
		back := F16FromF32(f)
		if exp, mant := bits>>10&0x1f, bits&0x3ff; exp == 0x1f && mant != 0 {
			want := bits&0x8000 | 0x7e00
			if back != want {
				t.Fatalf("NaN %#04x round-tripped to %#04x, want canonical %#04x", bits, back, want)
			}
			continue
		}
		if back != bits {
			t.Fatalf("%#04x (%v) round-tripped to %#04x", bits, f, back)
		}
	}
}

// TestF16FromF32Reference checks rounding against an independent
// float64-based reference on random float32s: the nearest representable
// half (ties to even) measured in exact float64 arithmetic.
func TestF16FromF32Reference(t *testing.T) {
	refNearest := func(f float32) uint16 {
		f64 := float64(f)
		if math.IsNaN(f64) {
			return uint16(math.Float32bits(f)>>16)&0x8000 | 0x7e00
		}
		sign := uint16(0)
		if math.Signbit(f64) {
			sign = 0x8000
			f64 = -f64
		}
		best, bestErr := uint16(0), math.Inf(1)
		lo, hi := uint16(0), uint16(0x7c00) // scan normals+subnormals+inf
		for h := lo; ; h++ {
			v := float64(F16ToF32(h &^ 0x8000))
			if h == 0x7c00 {
				// IEEE RNE rounds as if the exponent range were
				// unbounded, so infinity competes as the next grid
				// point (65536), not as an infinitely distant value.
				v = 65536
			}
			err := math.Abs(v - f64)
			if err < bestErr || (err == bestErr && h&1 == 0) {
				best, bestErr = h, err
			}
			if h == hi {
				break
			}
		}
		return sign | best
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 300; i++ {
		var f float32
		switch i % 4 {
		case 0:
			f = (rng.Float32() - 0.5) * 4 // normal half range
		case 1:
			f = (rng.Float32() - 0.5) * 1e-4 // subnormal halves
		case 2:
			f = (rng.Float32() - 0.5) * 1e6 // overflow to inf
		default:
			f = (rng.Float32() - 0.5) * 1e-9 // underflow to zero
		}
		if got, want := F16FromF32(f), refNearest(f); got != want {
			t.Fatalf("F16FromF32(%g) = %#04x, want %#04x (%v)", f, got, want, F16ToF32(want))
		}
	}
}
