//go:build amd64 && !noasm

package kernels

// Hand-rolled CPUID feature detection (the repo carries no external
// dependencies, so no golang.org/x/sys/cpu). The AVX2 backend needs
// three things: AVX2 itself (CPUID.7.0:EBX[5]), FMA for the reduction
// kernels (CPUID.1:ECX[12]), and — crucially — the OS to have enabled
// YMM state saving (OSXSAVE, then XCR0[2:1] == 11b via XGETBV);
// executing VEX-encoded instructions without OS support faults.

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func detectAVX2() (avx2, fma bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		cpuidFMA     = 1 << 12
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return false, false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set by the OS.
	xeax, _ := xgetbv()
	if xeax&0x6 != 0x6 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const cpuidAVX2 = 1 << 5
	return ebx7&cpuidAVX2 != 0, ecx1&cpuidFMA != 0
}

// archInit registers the AVX2 backend when the host supports it. The
// reduction kernels (dot, sumSquares) use FMA; on the rare AVX2-but-
// no-FMA host they stay scalar while the element-wise kernels still
// run 8 lanes wide.
func archInit() *funcs {
	avx2, fma := detectAVX2()
	if !avx2 {
		return nil
	}
	f := &funcs{
		name:        "avx2",
		add:         addAVX2,
		sub:         subAVX2,
		axpy:        axpyAVX2,
		scale:       scaleAVX2,
		fill:        fillAVX2,
		sgdMomentum: sgdMomentumAVX2,
		adamStep:    adamStepAVX2,
		maxAbsBits:  maxAbsBitsAVX2,
		quantize:    quantizeAVX2,
		dequantize:  dequantizeAVX2,
		addSatI32:   addSatI32AVX2,
		maxAbsI32:   maxAbsI32AVX2,
	}
	if fma {
		f.dot = dotAVX2
		f.sumSquares = sumSquaresAVX2
	}
	return f
}
