package kernels

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// randomVec mixes ordinary values with the specials the converter has
// explicit branches for.
func randomVec(rng *rand.Rand, n int) []float32 {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		65504, -65504, 1e6, float32(math.Ldexp(1, -24)), float32(math.Ldexp(1, -26)),
	}
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(5) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = (rng.Float32()*2 - 1) * 100
		}
	}
	return v
}

// TestF16AppendPackMatchesScalar pins the 4-wide word-assembly path
// against element-at-a-time F16FromF32 across lengths that cover the
// unrolled body, the tail, and both at once.
func TestF16AppendPackMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 366, 1025} {
		src := randomVec(rng, n)
		got := F16AppendPack(nil, src)
		want := make([]byte, 0, 2*n)
		for _, f := range src {
			h := F16FromF32(f)
			want = append(want, byte(h), byte(h>>8))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: F16AppendPack diverges from scalar packing", n)
		}

		// Round trip through F16UnpackInto must equal the quantized source
		// bit-for-bit (NaN payloads normalize identically on both paths).
		dst := make([]float32, n)
		F16UnpackInto(dst, got)
		for i := range src {
			want := F16ToF32(F16FromF32(src[i]))
			if math.Float32bits(dst[i]) != math.Float32bits(want) {
				t.Fatalf("n=%d elem %d: %v, want %v", n, i, dst[i], want)
			}
		}
	}
}

func TestF16AppendPackAppends(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	out := F16AppendPack(prefix, []float32{1, 2, 3})
	if len(out) != 2+6 || out[0] != 0xde || out[1] != 0xad {
		t.Fatalf("F16AppendPack clobbered prefix: % x", out)
	}
	if h := uint16(out[2]) | uint16(out[3])<<8; h != F16FromF32(1) {
		t.Fatalf("first packed half = %#04x", h)
	}
}

func TestF16AppendPackReusesCapacity(t *testing.T) {
	buf := make([]byte, 0, 2048)
	src := randomVec(rand.New(rand.NewSource(13)), 1024)
	out := F16AppendPack(buf, src)
	if &out[0] != &buf[:1][0] {
		t.Fatal("F16AppendPack reallocated despite sufficient capacity")
	}
	allocs := testing.AllocsPerRun(100, func() {
		out = F16AppendPack(buf[:0], src)
		F16UnpackInto(src, out)
	})
	if allocs != 0 {
		t.Fatalf("pack/unpack round trip allocates %v per run, want 0", allocs)
	}
}

func TestF16UnpackIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("F16UnpackInto length mismatch did not panic")
		}
	}()
	F16UnpackInto(make([]float32, 3), make([]byte, 8))
}

func BenchmarkF16AppendPack(b *testing.B) {
	src := randomVec(rand.New(rand.NewSource(17)), 4096)
	dst := make([]byte, 0, 2*len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = F16AppendPack(dst[:0], src)
	}
}

func BenchmarkF16UnpackInto(b *testing.B) {
	src := randomVec(rand.New(rand.NewSource(19)), 4096)
	wire := F16AppendPack(nil, src)
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		F16UnpackInto(dst, wire)
	}
}

func BenchmarkF16RoundInPlace(b *testing.B) {
	src := randomVec(rand.New(rand.NewSource(23)), 4096)
	v := make([]float32, len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(v, src)
		F16RoundInPlace(v)
	}
}
