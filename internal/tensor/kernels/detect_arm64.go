//go:build arm64 && !noasm

package kernels

// Advanced SIMD (NEON) is architecturally baseline on AArch64 — every
// arm64 CPU the Go toolchain targets has it — so unlike amd64 there is
// no feature probe.
//
// The table covers the element-wise kernels plus dot; sumSquares and
// the fused optimizer steps stay nil and backfill() routes them to the
// unrolled scalar code. Their mix of float64 accumulation, sqrt and
// division doesn't map onto the VFMLA-only vector surface the Go
// assembler exposes, and the scalar forms are what the bit-identity
// contract is defined against.
func archInit() *funcs {
	return &funcs{
		name:       "neon",
		add:        addNEON,
		sub:        subNEON,
		axpy:       axpyNEON,
		scale:      scaleNEON,
		fill:       fillNEON,
		dot:        dotNEON,
		maxAbsBits: maxAbsBitsNEON,
		maxAbsI32:  maxAbsI32NEON,
	}
}
