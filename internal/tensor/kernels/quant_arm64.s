//go:build arm64 && !noasm

#include "textflag.h"

// func maxAbsBlocks8NEON(v *float32, n int, part *[8]uint32)
//
// part[j] = unsigned max over the j-th lane of bits(v[i]) &^ signbit.
// Pure integer dataflow (VAND + VUMAX on the raw IEEE bit patterns):
// unsigned bit-pattern order is exact magnitude order once the sign is
// cleared, NaNs included, so the result matches the scalar oracle
// bit-for-bit and is independent of the lane split (max is order-free).
// n is a positive multiple of 8; the Go wrapper peels the tail and
// reduces the 8 partial lanes.
TEXT ·maxAbsBlocks8NEON(SB), NOSPLIT, $0-24
	MOVD v+0(FP), R0
	MOVD n+8(FP), R1
	MOVD part+16(FP), R2
	MOVD $0x7FFFFFFF, R3
	VMOV R3, V30.S4
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16
maxabsloop:
	VLD1.P 32(R0), [V0.S4, V1.S4]
	VAND   V30.B16, V0.B16, V0.B16
	VAND   V30.B16, V1.B16, V1.B16
	VUMAX  V0.S4, V16.S4, V16.S4
	VUMAX  V1.S4, V17.S4, V17.S4
	SUBS   $8, R1, R1
	BNE    maxabsloop
	VST1   [V16.S4, V17.S4], (R2)
	RET

// func maxAbsI32Blocks8NEON(v *int32, n int, part *[8]uint32)
//
// part[j] = unsigned max over the j-th lane of |v[i]|. The Go arm64
// assembler has no VABS or arithmetic vector shift, so the magnitude is
// built from the sign bit: s = x>>31 (logical, 0 or 1), m = 0-s (0 or
// all ones), |x| = (x^m)-m. MinInt32 comes out as 0x80000000, its
// magnitude read unsigned, and VUMAX orders every lane correctly
// (MaxAbsI32 saturates it). n is a positive multiple of 8.
TEXT ·maxAbsI32Blocks8NEON(SB), NOSPLIT, $0-24
	MOVD v+0(FP), R0
	MOVD n+8(FP), R1
	MOVD part+16(FP), R2
	VEOR V31.B16, V31.B16, V31.B16 // zero
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16
maxabsi32loop:
	VLD1.P 32(R0), [V0.S4, V1.S4]
	VUSHR  $31, V0.S4, V2.S4
	VUSHR  $31, V1.S4, V3.S4
	VSUB   V2.S4, V31.S4, V2.S4 // m = 0 - s
	VSUB   V3.S4, V31.S4, V3.S4
	VEOR   V2.B16, V0.B16, V0.B16
	VEOR   V3.B16, V1.B16, V1.B16
	VSUB   V2.S4, V0.S4, V0.S4 // (x ^ m) - m
	VSUB   V3.S4, V1.S4, V1.S4
	VUMAX  V0.S4, V16.S4, V16.S4
	VUMAX  V1.S4, V17.S4, V17.S4
	SUBS   $8, R1, R1
	BNE    maxabsi32loop
	VST1   [V16.S4, V17.S4], (R2)
	RET
