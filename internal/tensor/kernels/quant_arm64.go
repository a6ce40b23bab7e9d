//go:build arm64 && !noasm

package kernels

import "math"

// NEON coverage for the quantization surface is the two max-abs scans
// only: the Go arm64 assembler exposes integer VAND/VEOR/VSUB/VUSHR/
// VUMAX but no vector float convert (SCVTF/FCVTNS) and no vector
// saturating add (SQADD), so quantize/dequantize/addSatI32 backfill to
// the scalar oracle on arm64 — the same trade the optimizer kernels
// already make there.

//go:noescape
func maxAbsBlocks8NEON(v *float32, n int, part *[8]uint32)

//go:noescape
func maxAbsI32Blocks8NEON(v *int32, n int, part *[8]uint32)

func maxAbsBitsNEON(v []float32) uint32 {
	n := len(v) &^ 7
	var m uint32
	if n > 0 {
		var part [8]uint32
		maxAbsBlocks8NEON(&v[0], n, &part)
		for _, b := range part {
			if b > m {
				m = b
			}
		}
	}
	for i := n; i < len(v); i++ {
		if b := math.Float32bits(v[i]) &^ (1 << 31); b > m {
			m = b
		}
	}
	return m
}

func maxAbsI32NEON(v []int32) uint32 {
	n := len(v) &^ 7
	var m uint32
	if n > 0 {
		var part [8]uint32
		maxAbsI32Blocks8NEON(&v[0], n, &part)
		for _, b := range part {
			m = max(m, b)
		}
	}
	return max(m, maxAbsI32Scalar(v[n:]))
}
