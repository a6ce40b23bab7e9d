package kernels

import "math"

// Scalar oracles for the quantized-aggregation kernels. Unlike the
// float kernels in scalar.go, whose contract is "same IEEE ops in the
// same order", these are *exact* on every backend: maxAbsBits, maxAbsI32
// and addSatI32 are pure integer functions, and quantize/dequantize pin the
// hardware conversion semantics (CVTPS2DQ / CVTDQ2PS round to nearest
// even) that the scalar expressions below reproduce. parity_quant_test.go
// enforces bit-identity across backends over fuzzed adversarial inputs.

// quantMax is the widest magnitude a quantized element may take: the
// int16-representable interval the wire format carries (±2¹⁵−1; the
// asymmetric -32768 is excluded so negation never overflows and the
// saturating accumulator bound H·quantMax < 2³¹ holds for H ≤ 65536).
const quantMax = 32767

func maxAbsBitsScalar(v []float32) uint32 {
	var m uint32
	for _, x := range v {
		if b := math.Float32bits(x) &^ (1 << 31); b > m {
			m = b
		}
	}
	return m
}

// quantElem mirrors the AVX2 sequence VMULPS + VMINPS + VMAXPS +
// VCVTPS2DQ exactly: the product rounds to float32 nearest-even, the
// float clamp happens *before* the convert — MINPS returns its second
// source when the first is NaN, so NaN collapses to +quantMax, and a
// product beyond ±quantMax saturates with the correct sign instead of
// falling into CVTPS2DQ's integer indefinite — then the conversion
// rounds to nearest even (exact on the clamped range, so no indefinite
// can occur). The expression order is the contract.
func quantElem(v, scale float32) int32 {
	p := v * scale
	if !(p < quantMax) {
		p = quantMax
	}
	if !(p > -quantMax) {
		p = -quantMax
	}
	return int32(math.RoundToEven(float64(p)))
}

func quantizeScalar(dst []int32, src []float32, scale float32) {
	for len(src) >= 4 {
		d, s := dst[:4], src[:4]
		d[0] = quantElem(s[0], scale)
		d[1] = quantElem(s[1], scale)
		d[2] = quantElem(s[2], scale)
		d[3] = quantElem(s[3], scale)
		dst, src = dst[4:], src[4:]
	}
	for i, v := range src {
		dst[i] = quantElem(v, scale)
	}
}

// dequantElem: int32→float32 conversion in Go rounds to nearest even,
// exactly like CVTDQ2PS, and the multiply is the same single rounding
// as VMULPS — bit-identical by construction.
func dequantElem(q int32, scale float32) float32 { return float32(q) * scale }

func dequantizeScalar(dst []float32, src []int32, scale float32) {
	for len(src) >= 4 {
		d, s := dst[:4], src[:4]
		d[0] = dequantElem(s[0], scale)
		d[1] = dequantElem(s[1], scale)
		d[2] = dequantElem(s[2], scale)
		d[3] = dequantElem(s[3], scale)
		dst, src = dst[4:], src[4:]
	}
	for i, q := range src {
		dst[i] = dequantElem(q, scale)
	}
}

// addSatI32Elem mirrors the AVX2 sequence VPADDD + overflow mask
// ((a^r)&(b^r), sign bit set iff the signed add wrapped) + VBLENDVPS
// against the saturation value (a>>31)^0x7FFFFFFF.
func addSatI32Elem(a, b int32) int32 {
	r := a + b
	if (a^r)&(b^r) < 0 {
		if a < 0 {
			return math.MinInt32
		}
		return math.MaxInt32
	}
	return r
}

// maxAbsI32Scalar is the integer max-abs oracle: the magnitude of each
// element as an unsigned value, so |MinInt32| is 1<<31 rather than
// overflowing (MaxAbsI32 saturates it), reduced with an unsigned max.
func maxAbsI32Scalar(v []int32) uint32 {
	var m uint32
	for _, x := range v {
		a := uint32(x)
		if x < 0 {
			a = -a
		}
		m = max(m, a)
	}
	return m
}

func addSatI32Scalar(dst, src []int32) {
	for len(src) >= 4 {
		d, s := dst[:4], src[:4]
		d[0] = addSatI32Elem(d[0], s[0])
		d[1] = addSatI32Elem(d[1], s[1])
		d[2] = addSatI32Elem(d[2], s[2])
		d[3] = addSatI32Elem(d[3], s[3])
		dst, src = dst[4:], src[4:]
	}
	for i, b := range src {
		dst[i] = addSatI32Elem(dst[i], b)
	}
}
