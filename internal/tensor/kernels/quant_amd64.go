//go:build amd64 && !noasm

package kernels

import "math"

// Go wrappers around the AVX2 quantization kernels, following the
// simd_amd64.go pattern: the assembly consumes the longest
// multiple-of-8 prefix, the wrapper finishes the tail with exactly the
// scalar backend's per-element expressions. These five are bit-exact
// (not merely bit-identical-by-ordering): both maxes are order-free
// (over sign-cleared bit patterns, and over unsigned integer
// magnitudes), the integer add is associative-exact, and
// the convert sequences pin the same CVTPS2DQ/CVTDQ2PS semantics the
// scalar oracle reproduces.

//go:noescape
func maxAbsBlocks8(v *float32, n int, part *[8]uint32)

//go:noescape
func quantBlocks8(dst *int32, src *float32, n int, scale float32)

//go:noescape
func dequantBlocks8(dst *float32, src *int32, n int, scale float32)

//go:noescape
func addSatBlocks8(dst, src *int32, n int)

//go:noescape
func maxAbsI32Blocks8(v *int32, n int, part *[8]uint32)

func maxAbsBitsAVX2(v []float32) uint32 {
	n := len(v) &^ 7
	var m uint32
	if n > 0 {
		var part [8]uint32
		maxAbsBlocks8(&v[0], n, &part)
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

func quantizeAVX2(dst []int32, src []float32, scale float32) {
	n := len(src) &^ 7
	if n > 0 {
		quantBlocks8(&dst[0], &src[0], n, scale)
	}
	for i := n; i < len(src); i++ {
		dst[i] = quantElem(src[i], scale)
	}
}

func dequantizeAVX2(dst []float32, src []int32, scale float32) {
	n := len(src) &^ 7
	if n > 0 {
		dequantBlocks8(&dst[0], &src[0], n, scale)
	}
	for i := n; i < len(src); i++ {
		dst[i] = dequantElem(src[i], scale)
	}
}

func addSatI32AVX2(dst, src []int32) {
	n := len(dst) &^ 7
	if n > 0 {
		addSatBlocks8(&dst[0], &src[0], n)
	}
	for i := n; i < len(dst); i++ {
		dst[i] = addSatI32Elem(dst[i], src[i])
	}
}

func maxAbsI32AVX2(v []int32) uint32 {
	n := len(v) &^ 7
	var m uint32
	if n > 0 {
		var part [8]uint32
		maxAbsI32Blocks8(&v[0], n, &part)
		for _, b := range part {
			m = max(m, b)
		}
	}
	return max(m, maxAbsI32Scalar(v[n:]))
}
