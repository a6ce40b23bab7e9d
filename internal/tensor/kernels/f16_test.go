package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestF16ExactValues(t *testing.T) {
	cases := []struct {
		f float32
		h uint16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},                 // max finite half
		{float32(math.Inf(1)), 0x7c00},  // +inf
		{float32(math.Inf(-1)), 0xfc00}, // -inf
	}
	for _, c := range cases {
		if got := F16FromF32(c.f); got != c.h {
			t.Errorf("F16FromF32(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
		if got := F16ToF32(c.h); got != c.f {
			t.Errorf("F16ToF32(%#04x) = %v, want %v", c.h, got, c.f)
		}
	}
}

func TestF16OverflowToInf(t *testing.T) {
	if got := F16ToF32(F16FromF32(1e6)); !math.IsInf(float64(got), 1) {
		t.Fatalf("1e6 → %v, want +inf (beyond half range)", got)
	}
}

func TestF16NaNPreserved(t *testing.T) {
	nan := float32(math.NaN())
	got := F16ToF32(F16FromF32(nan))
	if !math.IsNaN(float64(got)) {
		t.Fatalf("NaN → %v", got)
	}
}

func TestF16Subnormals(t *testing.T) {
	// Smallest positive half subnormal: 2^-24.
	tiny := float32(math.Ldexp(1, -24))
	h := F16FromF32(tiny)
	if h != 0x0001 {
		t.Fatalf("2^-24 → %#04x, want 0x0001", h)
	}
	if got := F16ToF32(h); got != tiny {
		t.Fatalf("round-trip 2^-24 = %v, want %v", got, tiny)
	}
	// Below half's range underflows to zero.
	if got := F16FromF32(float32(math.Ldexp(1, -26))); got != 0 {
		t.Fatalf("2^-26 → %#04x, want 0", got)
	}
}

// Property: every half-precision bit pattern survives the
// half→float32→half round trip (except NaN payload normalization).
func TestF16HalfRoundTripQuick(t *testing.T) {
	f := func(h uint16) bool {
		if h>>10&0x1f == 0x1f && h&0x3ff != 0 {
			return true // NaN payloads may normalize
		}
		return F16FromF32(F16ToF32(h)) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantization error of in-range values is within half's
// relative precision (2^-11).
func TestF16QuantizationErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		f := (rng.Float32()*2 - 1) * 100
		q := F16ToF32(F16FromF32(f))
		if f == 0 {
			continue
		}
		rel := math.Abs(float64(q-f)) / math.Abs(float64(f))
		if rel > 1.0/2048+1e-7 {
			t.Fatalf("relative error %v for %v → %v", rel, f, q)
		}
	}
}

func TestF16PackUnpack(t *testing.T) {
	src := []float32{0, 1, -2.5, 0.333, 1000}
	buf := F16AppendPack(nil, src)
	if len(buf) != 2*len(src) {
		t.Fatalf("packed %d bytes", len(buf))
	}
	out := make([]float32, len(src))
	F16UnpackInto(out, buf)
	for i := range src {
		want := F16ToF32(F16FromF32(src[i]))
		if out[i] != want {
			t.Fatalf("elem %d: %v, want %v", i, out[i], want)
		}
	}
}

func TestF16RoundInPlace(t *testing.T) {
	v := []float32{0.1, 0.2, 0.3}
	F16RoundInPlace(v)
	for _, x := range v {
		if F16FromF32(x) != F16FromF32(F16ToF32(F16FromF32(x))) {
			t.Fatalf("not idempotent at %v", x)
		}
	}
}
