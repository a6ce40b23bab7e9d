package kernels

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Cross-backend parity for the quantization surface. Unlike the float
// kernels, these must match the scalar oracle bit-for-bit with NO NaN
// carve-out: maxAbsBits and addSatI32 are integer functions, and
// quantize collapses NaN deterministically (to +QuantMax) before any
// payload can leak through.

func requireIdenticalI32(t *testing.T, kernel, backend string, n int, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s backend=%s len=%d: element %d = %d, scalar oracle %d",
				kernel, backend, n, i, got[i], want[i])
		}
	}
}

func TestParityQuantize(t *testing.T) {
	orig := Backend()
	defer SetBackend(orig)
	rng := rand.New(rand.NewSource(211))

	scales := []float32{0, 1, -1, 0.125, 1 << 14, 1e-20, 3e38,
		float32(math.NaN()), float32(math.Inf(1))}
	for _, backend := range simdBackends() {
		for _, n := range fuzzLens(rng) {
			src := fuzzVector(rng, n)
			scale := scales[rng.Intn(len(scales))]
			want := make([]int32, n)
			got := make([]int32, n)

			if err := SetBackend("scalar"); err != nil {
				t.Fatal(err)
			}
			Quantize(want, src, scale)
			wantMax := MaxAbs(src)
			if err := SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			Quantize(got, src, scale)
			gotMax := MaxAbs(src)

			requireIdenticalI32(t, "Quantize", backend, n, got, want)
			if math.Float32bits(gotMax) != math.Float32bits(wantMax) {
				t.Fatalf("MaxAbs backend=%s len=%d: %x vs scalar %x",
					backend, n, math.Float32bits(gotMax), math.Float32bits(wantMax))
			}
			for i, q := range got {
				if q > QuantMax || q < -QuantMax {
					t.Fatalf("Quantize backend=%s: element %d = %d outside ±%d", backend, i, q, QuantMax)
				}
			}
		}
	}
}

func TestParityDequantize(t *testing.T) {
	orig := Backend()
	defer SetBackend(orig)
	rng := rand.New(rand.NewSource(223))

	for _, backend := range simdBackends() {
		for _, n := range fuzzLens(rng) {
			src := make([]int32, n)
			for i := range src {
				// Full int32 range: Dequantize must also be exact on
				// re-widened partial sums (|q| up to H·QuantMax).
				src[i] = int32(rng.Uint32())
			}
			scale := []float32{1, 0.5, 1e-7, float32(math.Ldexp(1, -24)), 3e38}[rng.Intn(5)]
			want := make([]float32, n)
			got := make([]float32, n)

			if err := SetBackend("scalar"); err != nil {
				t.Fatal(err)
			}
			Dequantize(want, src, scale)
			if err := SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			Dequantize(got, src, scale)
			requireBitIdentical(t, "Dequantize", backend, n, got, want)
		}
	}
}

func TestParityAddSatInt32(t *testing.T) {
	orig := Backend()
	defer SetBackend(orig)
	rng := rand.New(rand.NewSource(227))

	for _, backend := range simdBackends() {
		for _, n := range fuzzLens(rng) {
			dst0 := make([]int32, n)
			src := make([]int32, n)
			for i := range dst0 {
				// Bias toward the overflow boundary so saturation lanes
				// actually fire.
				switch rng.Intn(3) {
				case 0:
					dst0[i] = int32(rng.Uint32())
					src[i] = int32(rng.Uint32())
				case 1:
					dst0[i] = math.MaxInt32 - int32(rng.Intn(64))
					src[i] = int32(rng.Intn(128))
				default:
					dst0[i] = math.MinInt32 + int32(rng.Intn(64))
					src[i] = -int32(rng.Intn(128))
				}
			}
			want := append([]int32(nil), dst0...)
			got := append([]int32(nil), dst0...)

			if err := SetBackend("scalar"); err != nil {
				t.Fatal(err)
			}
			AddSatInt32(want, src)
			if err := SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			AddSatInt32(got, src)
			requireIdenticalI32(t, "AddSatInt32", backend, n, got, want)
		}
	}
}

// TestMaxAbsI32Semantics pins the contract on the active backend:
// |MinInt32| saturates to MaxInt32 wherever it sits, including the
// SIMD body and the scalar tail.
func TestMaxAbsI32Semantics(t *testing.T) {
	for _, tc := range []struct {
		v    []int32
		want int32
	}{
		{nil, 0},
		{[]int32{-7}, 7},
		{[]int32{3, -9, 4, 0, 1, 2, 8, -1, 5}, 9},
		{[]int32{1, 2, 3, 4, 5, 6, 7, math.MinInt32}, math.MaxInt32},
		{[]int32{1, 2, 3, 4, 5, 6, 7, 8, math.MinInt32}, math.MaxInt32},
		{[]int32{-math.MaxInt32, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, math.MaxInt32},
	} {
		if got := MaxAbsI32(tc.v); got != tc.want {
			t.Fatalf("MaxAbsI32(%v) = %d on %s, want %d", tc.v, got, Backend(), tc.want)
		}
	}
}

// TestQuantizeSemantics pins the saturation and special-value contract
// against hand-computed expectations on the scalar oracle (the parity
// tests above then extend it to every backend).
func TestQuantizeSemantics(t *testing.T) {
	orig := Backend()
	defer SetBackend(orig)
	if err := SetBackend("scalar"); err != nil {
		t.Fatal(err)
	}
	src := []float32{
		0, 1, -1, 0.5, -0.5, 1.5, 2.5, -2.5,
		40000, -40000, float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), 3e38, -3e38,
	}
	want := []int32{
		0, 1, -1, 0 /* 0.5 → even */, 0, 2, 2 /* 2.5 → even */, -2,
		32767, -32767, 32767, -32767,
		32767 /* NaN → +QuantMax via MINPS */, 32767, -32767,
	}
	got := make([]int32, len(src))
	Quantize(got, src, 1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Quantize(%v) = %d, want %d", src[i], got[i], want[i])
		}
	}

	// Saturating add: both directions, and the non-overflow fast path.
	d := []int32{math.MaxInt32, math.MinInt32, 100, math.MaxInt32 - 1}
	s := []int32{1, -1, -250, math.MinInt32}
	AddSatInt32(d, s)
	for i, want := range []int32{math.MaxInt32, math.MinInt32, -150, -2} {
		if d[i] != want {
			t.Fatalf("AddSatInt32 element %d = %d, want %d", i, d[i], want)
		}
	}
}

// TestAddSatInt32Associativity is the exactness property the whole
// int32 aggregation path rests on: with addends bounded by ±QuantMax
// (the wire range), sums over any H ≤ 65536 contributions never
// saturate, so any association and any order produce identical bits.
func TestAddSatInt32Associativity(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	const n, workers = 513, 64
	contribs := make([][]int32, workers)
	for w := range contribs {
		contribs[w] = make([]int32, n)
		for i := range contribs[w] {
			contribs[w][i] = int32(rng.Intn(2*QuantMax+1)) - QuantMax
		}
	}
	sum := func(order []int) []int32 {
		acc := make([]int32, n)
		for _, w := range order {
			AddSatInt32(acc, contribs[w])
		}
		return acc
	}
	base := make([]int, workers)
	for i := range base {
		base[i] = i
	}
	want := sum(base)
	for trial := 0; trial < 20; trial++ {
		order := append([]int(nil), base...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		got := sum(order)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: element %d differs across arrival orders: %d vs %d",
					trial, i, got[i], want[i])
			}
		}
	}
}

func TestTopKSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	var keys []uint64
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		v := fuzzVector(rng, n)
		k := rng.Intn(n + 4)
		var got []int32
		got, keys = TopKSelect(got[:0], keys, v, k)

		wantLen := k
		if wantLen > n {
			wantLen = n
		}
		if len(got) != wantLen {
			t.Fatalf("n=%d k=%d: selected %d indices", n, k, len(got))
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("indices not ascending: %v", got)
		}

		// Reference: full stable sort by (magnitude bits desc, index asc).
		ref := make([]int32, n)
		for i := range ref {
			ref[i] = int32(i)
		}
		sort.SliceStable(ref, func(a, b int) bool {
			ka := math.Float32bits(v[ref[a]]) &^ (1 << 31)
			kb := math.Float32bits(v[ref[b]]) &^ (1 << 31)
			if ka != kb {
				return ka > kb
			}
			return ref[a] < ref[b]
		})
		want := append([]int32(nil), ref[:wantLen]...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d k=%d: selection differs from reference\ngot  %v\nwant %v", n, k, got, want)
			}
		}
	}
}

func TestScatterAddAndShifts(t *testing.T) {
	dst := make([]float32, 8)
	ScatterAdd(dst, []uint16{1, 3, 1}, []float32{2, 5, 0.5})
	if dst[1] != 2.5 || dst[3] != 5 || dst[0] != 0 {
		t.Fatalf("ScatterAdd: %v", dst)
	}

	v := []int32{3, -3, QuantMax}
	ShlI32(v, 4)
	if v[0] != 48 || v[1] != -48 || v[2] != QuantMax<<4 {
		t.Fatalf("ShlI32: %v", v)
	}
	ShrI32(v, 4)
	if v[0] != 3 || v[1] != -3 || v[2] != QuantMax {
		t.Fatalf("ShrI32: %v", v)
	}
	ShrI32([]int32{}, 2) // empty is fine
	ShlI32(v, 0)         // zero shift is the identity
	if v[0] != 3 {
		t.Fatalf("ShlI32(0): %v", v)
	}

	if m := MaxAbsI32([]int32{3, -7, 5}); m != 7 {
		t.Fatalf("MaxAbsI32 = %d", m)
	}
	if m := MaxAbsI32([]int32{math.MinInt32, 1}); m != math.MaxInt32 {
		t.Fatalf("MaxAbsI32(MinInt32) = %d", m)
	}
	if m := MaxAbsI32(nil); m != 0 {
		t.Fatalf("MaxAbsI32(nil) = %d", m)
	}
}

// FuzzQuantParity is the CI fuzz entry for the pack/quantize kernels:
// every backend must agree with the scalar oracle bit-for-bit on the
// quantize→saturating-add→dequantize pipeline, both max-abs scans and
// the fp16 wire round trip.
func FuzzQuantParity(f *testing.F) {
	f.Add(int64(1), 17, float32(256))
	f.Add(int64(2), 4096, float32(1e-3))
	f.Add(int64(3), 0, float32(math.Inf(1)))
	f.Add(int64(4), 366, float32(math.NaN()))
	f.Fuzz(func(t *testing.T, seed int64, n int, scale float32) {
		if n < 0 || n > 4097 {
			t.Skip()
		}
		orig := Backend()
		defer SetBackend(orig)
		rng := rand.New(rand.NewSource(seed))
		src := fuzzVector(rng, n)
		acc0 := make([]int32, n)
		for i := range acc0 {
			acc0[i] = int32(rng.Uint32())
		}

		if err := SetBackend("scalar"); err != nil {
			t.Fatal(err)
		}
		wantQ := make([]int32, n)
		Quantize(wantQ, src, scale)
		wantAcc := append([]int32(nil), acc0...)
		AddSatInt32(wantAcc, wantQ)
		wantD := make([]float32, n)
		Dequantize(wantD, wantAcc, 0.25)
		wantMax := MaxAbs(src)
		wantMaxI32 := MaxAbsI32(acc0)
		wantWire := F16AppendPack(nil, src)
		wantF16 := make([]float32, n)
		F16UnpackInto(wantF16, wantWire)

		for _, backend := range simdBackends() {
			if err := SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			gotQ := make([]int32, n)
			Quantize(gotQ, src, scale)
			requireIdenticalI32(t, "Quantize", backend, n, gotQ, wantQ)
			gotAcc := append([]int32(nil), acc0...)
			AddSatInt32(gotAcc, gotQ)
			requireIdenticalI32(t, "AddSatInt32", backend, n, gotAcc, wantAcc)
			gotD := make([]float32, n)
			Dequantize(gotD, gotAcc, 0.25)
			requireBitIdentical(t, "Dequantize", backend, n, gotD, wantD)
			if got := MaxAbs(src); math.Float32bits(got) != math.Float32bits(wantMax) {
				t.Fatalf("MaxAbs backend=%s: %x vs %x", backend, math.Float32bits(got), math.Float32bits(wantMax))
			}
			if got := MaxAbsI32(acc0); got != wantMaxI32 {
				t.Fatalf("MaxAbsI32 backend=%s: %d vs %d", backend, got, wantMaxI32)
			}
			gotWire := F16AppendPack(nil, src)
			if len(gotWire) != len(wantWire) {
				t.Fatalf("F16AppendPack backend=%s: length %d vs %d", backend, len(gotWire), len(wantWire))
			}
			for i := range wantWire {
				if gotWire[i] != wantWire[i] {
					t.Fatalf("F16AppendPack backend=%s: byte %d differs", backend, i)
				}
			}
			gotF16 := make([]float32, n)
			F16UnpackInto(gotF16, gotWire)
			requireBitIdentical(t, "F16UnpackInto", backend, n, gotF16, wantF16)
		}
	})
}
