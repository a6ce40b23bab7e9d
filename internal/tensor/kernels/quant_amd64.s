//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 quantization kernels. Every function takes a count n that is a
// positive multiple of 8 (the Go wrappers in quant_amd64.go peel the
// tail). Same operand-order convention as simd_amd64.s: Go assembler
// VEX operands are reversed from Intel syntax.
//
// Constants are materialized in registers (VPCMPEQD all-ones then a
// shift) instead of loaded from memory, keeping the functions
// rodata-free.

// func maxAbsBlocks8(v *float32, n int, part *[8]uint32)
//
// part[j] = max over the j-th lane of bits(v[i]) &^ signbit, compared
// unsigned — exact magnitude order for every IEEE value, with NaN
// payloads above +Inf. Max is order-free, so the lane split cannot
// change the reduced result.
TEXT ·maxAbsBlocks8(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ part+16(FP), DI
	VPCMPEQD Y6, Y6, Y6
	VPSRLD   $1, Y6, Y6  // 0x7FFFFFFF abs mask
	VPXOR    Y0, Y0, Y0  // running lane max

maxabs8:
	VMOVDQU (SI), Y1
	VPAND   Y6, Y1, Y1
	VPMAXUD Y1, Y0, Y0
	ADDQ $32, SI
	SUBQ $8, CX
	JNZ  maxabs8

	VMOVDQU Y0, (DI)
	VZEROUPPER
	RET

// func quantBlocks8(dst *int32, src *float32, n int, scale float32)
//
// dst = cvtps2dq(clamp(src*scale, ±32767.0)). The float clamp runs
// before the convert: MINPS returns its second source when the first
// is NaN (collapsing NaN to +32767.0) and saturates oversized products
// with the correct sign, so CVTPS2DQ only ever sees [-32767, 32767]
// and its round-to-nearest-even is exact — the scalar quantElem
// sequence, expression for expression.
TEXT ·quantBlocks8(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y7
	MOVL $0x46FFFE00, AX  // float32(32767)
	MOVQ AX, X6
	VPBROADCASTD X6, Y6
	MOVL $0xC6FFFE00, AX  // float32(-32767)
	MOVQ AX, X5
	VPBROADCASTD X5, Y5

quant8:
	VMULPS     (SI), Y7, Y0
	VMINPS     Y6, Y0, Y0 // min(p, +32767): src1=p, so NaN → +32767
	VMAXPS     Y5, Y0, Y0 // max(p, -32767)
	VCVTPS2DQ  Y0, Y0
	VMOVDQU    Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  quant8

	VZEROUPPER
	RET

// func dequantBlocks8(dst *float32, src *int32, n int, scale float32)
//
// dst = cvtdq2ps(src) * scale. CVTDQ2PS rounds to nearest even, like
// Go's int32→float32 conversion; one multiply, one rounding — the
// scalar dequantElem expression.
TEXT ·dequantBlocks8(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y7

dequant8:
	VMOVDQU   (SI), Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    Y7, Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  dequant8

	VZEROUPPER
	RET

// func addSatBlocks8(dst, src *int32, n int)
//
// dst = sat32(dst + src). AVX2 has no 32-bit saturating add, so:
// r = a+b wrapping; overflow mask (a^r)&(b^r) has the sign bit set iff
// the signed add wrapped; saturation value (a>>31)^0x7FFFFFFF is
// MaxInt32 for a ≥ 0, MinInt32 for a < 0; VBLENDVPS selects by the
// mask's per-lane sign bit. Mirrors addSatI32Elem exactly.
TEXT ·addSatBlocks8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VPCMPEQD Y6, Y6, Y6
	VPSRLD   $1, Y6, Y6  // 0x7FFFFFFF

addsat8:
	VMOVDQU (DI), Y0     // a
	VMOVDQU (SI), Y1     // b
	VPADDD  Y1, Y0, Y2   // r = a + b
	VPXOR   Y2, Y0, Y3   // a ^ r
	VPXOR   Y2, Y1, Y4   // b ^ r
	VPAND   Y4, Y3, Y3   // overflow mask
	VPSRAD  $31, Y0, Y5
	VPXOR   Y6, Y5, Y5   // (a>>31) ^ 0x7FFFFFFF
	VBLENDVPS Y3, Y5, Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  addsat8

	VZEROUPPER
	RET

// func maxAbsI32Blocks8(v *int32, n int, part *[8]uint32)
//
// part[j] = unsigned max over the j-th lane of |v[i]|. VPABSD leaves
// MinInt32 as 0x80000000, which is exactly its magnitude read unsigned,
// so VPMAXUD orders every lane correctly (MaxAbsI32 saturates it to
// MaxInt32). Two accumulators, 16 lanes a step, while at least 16
// remain.
TEXT ·maxAbsI32Blocks8(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ part+16(FP), DI
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1

maxabsi16:
	CMPQ CX, $16
	JLT  maxabsi8
	VPABSD  (SI), Y2
	VPABSD  32(SI), Y3
	VPMAXUD Y2, Y0, Y0
	VPMAXUD Y3, Y1, Y1
	ADDQ $64, SI
	SUBQ $16, CX
	JMP  maxabsi16

maxabsi8:
	TESTQ CX, CX
	JZ    maxabsidone
	VPABSD  (SI), Y2
	VPMAXUD Y2, Y0, Y0

maxabsidone:
	VPMAXUD Y1, Y0, Y0
	VMOVDQU Y0, (DI)
	VZEROUPPER
	RET
