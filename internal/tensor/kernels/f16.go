package kernels

import (
	"encoding/binary"
	"math"
)

// IEEE 754 half-precision conversion. The paper transmits and sums
// gradients "in a raw float-point format" (float32); these kernels
// quantify that choice (experiments.AblationFP16) and carry the
// CompFP16 scheme on the live wire. The pack/unpack/round loops dispatch
// through the backend table like every other element-wise kernel. No
// architecture currently registers an assembly form — the scalar
// word-assembly loops below saturate the conversion at wire-buffer
// sizes — but the dispatch seam means an F16C/NEON-FP16 backend drops in
// without touching callers, and the cross-backend parity tests already
// cover it.

// F16FromF32 converts a float32 to its nearest half-precision bit
// pattern (round-to-nearest-even), handling subnormals, infinities and
// NaN (canonicalized to sign|0x7e00).
func F16FromF32(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127 + 15
	mant := bits & 0x7fffff

	switch {
	case exp >= 0x1f: // overflow → inf; NaN preserved
		if int32(bits>>23&0xff) == 0xff && mant != 0 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7c00
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to zero
		}
		// Subnormal: shift mantissa (with implicit leading 1).
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		rounded := (mant + half) >> shift
		// Round-to-nearest-even on ties.
		if mant&(half<<1-1) == half && rounded&1 == 1 {
			rounded--
		}
		return sign | uint16(rounded)
	default:
		// Normal: round mantissa from 23 to 10 bits.
		rounded := mant + 0xfff + (mant>>13)&1
		if rounded&0x800000 != 0 {
			rounded = 0
			exp++
			if exp >= 0x1f {
				return sign | 0x7c00
			}
		}
		return sign | uint16(exp)<<10 | uint16(rounded>>13)
	}
}

// F16ToF32 expands a half-precision bit pattern to float32.
func F16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)

	switch {
	case exp == 0x1f: // inf / NaN
		return math.Float32frombits(sign | 0x7f800000 | mant<<13)
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// f16PackScalar packs src into dst (exactly 2·len(src) bytes,
// little-endian), assembling four halves into one uint64 word per store.
func f16PackScalar(dst []byte, src []float32) {
	for len(src) >= 4 {
		w := uint64(F16FromF32(src[0])) |
			uint64(F16FromF32(src[1]))<<16 |
			uint64(F16FromF32(src[2]))<<32 |
			uint64(F16FromF32(src[3]))<<48
		binary.LittleEndian.PutUint64(dst, w)
		src, dst = src[4:], dst[8:]
	}
	for i, f := range src {
		binary.LittleEndian.PutUint16(dst[2*i:], F16FromF32(f))
	}
}

// f16UnpackScalar expands packed halves into dst (exactly len(src)/2
// elements), four halves per uint64 load.
func f16UnpackScalar(dst []float32, src []byte) {
	for len(src) >= 8 {
		w := binary.LittleEndian.Uint64(src)
		dst[0] = F16ToF32(uint16(w))
		dst[1] = F16ToF32(uint16(w >> 16))
		dst[2] = F16ToF32(uint16(w >> 32))
		dst[3] = F16ToF32(uint16(w >> 48))
		dst, src = dst[4:], src[8:]
	}
	for i := range dst {
		dst[i] = F16ToF32(binary.LittleEndian.Uint16(src[2*i:]))
	}
}

// f16RoundScalar rounds every element through half precision in place —
// what a worker observes after an fp16 wire round trip.
func f16RoundScalar(v []float32) {
	for len(v) >= 4 {
		v[0] = F16ToF32(F16FromF32(v[0]))
		v[1] = F16ToF32(F16FromF32(v[1]))
		v[2] = F16ToF32(F16FromF32(v[2]))
		v[3] = F16ToF32(F16FromF32(v[3]))
		v = v[4:]
	}
	for i, f := range v {
		v[i] = F16ToF32(F16FromF32(f))
	}
}

// F16AppendPack appends the packed half-precision encoding of src
// (little-endian, 2 bytes per element) to dst and returns the extended
// slice. With a pre-sized dst it allocates nothing.
func F16AppendPack(dst []byte, src []float32) []byte {
	need := 2 * len(src)
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	active.f16Pack(dst[len(dst):len(dst)+need], src)
	return dst[:len(dst)+need]
}

// F16UnpackInto expands packed half-precision bytes into dst, which
// must hold len(src)/2 elements. Allocates nothing.
func F16UnpackInto(dst []float32, src []byte) {
	if len(dst) != len(src)/2 {
		panic("kernels: F16UnpackInto length mismatch")
	}
	active.f16Unpack(dst, src)
}

// F16RoundInPlace rounds every element of v through half precision.
func F16RoundInPlace(v []float32) { active.f16Round(v) }
