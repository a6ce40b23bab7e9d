// Package kernels is the runtime-dispatched float32 kernel backend for
// the gradient datapath.
//
// The paper's accelerator sums gradients with eight parallel FP32
// adders consuming one 256-bit bus burst per cycle (§3.3, Figure 7).
// This package is the software stand-in for that datapath width: every
// element-wise primitive the simulation funnels through — the
// accelerator's adder array, the optimizers, backward-pass
// accumulation, AllReduce's reduce-scatter — dispatches at runtime to
// the widest implementation the host CPU offers:
//
//   - scalar: portable 4×-unrolled pure-Go loops, the golden reference.
//     Compiled and tested on every platform (and the only backend under
//     the `noasm` build tag).
//   - avx2: hand-written AVX2 assembly on amd64, 8 float32 lanes per
//     instruction, selected when CPUID reports AVX2 (+FMA for the
//     reduction kernels) and the OS enables YMM state.
//   - neon: ARMv8 NEON assembly on arm64, 4 lanes per instruction,
//     always available (ASIMD is baseline on arm64).
//
// Order-preserving kernels (Add, Sub, Axpy, Scale, Fill, Zero,
// SGDMomentum, AdamStep) perform exactly the same per-element IEEE-754
// operations in exactly the same order on every backend, so aggregation
// sums and optimizer steps stay bit-identical to the scalar oracle —
// NaN, ±Inf and signed-zero propagation included (parity_test.go
// enforces this bit-for-bit over fuzzed inputs). Reduction kernels
// (Dot, SumSquares) use multiple SIMD accumulators, which reassociates
// the sum; their parity is tolerance-checked at ≤1 ulp per element.
//
// Backend selection happens once at init. The TENSOR_BACKEND
// environment variable (`scalar`, `simd`, or an exact backend name)
// overrides the automatic choice; SetBackend does the same
// programmatically, and Backend reports the active choice for
// introspection (surfaced by `iswitch-bench`).
package kernels

import (
	"fmt"
	"os"
	"sort"
)

// funcs is one backend's kernel table. Entries left nil by an
// architecture init are backfilled with the scalar implementation, so a
// backend may accelerate any subset of the surface.
type funcs struct {
	name string

	// Order-preserving element-wise kernels: bit-identical to scalar.
	add   func(dst, src []float32)
	sub   func(dst, src []float32)
	axpy  func(a float32, dst, src []float32)
	scale func(a float32, dst []float32)
	fill  func(a float32, dst []float32)

	// Reassociating reductions: ≤1 ulp/element from scalar.
	dot        func(a, b []float32) float32
	sumSquares func(v []float32) float64

	// Fused optimizer steps: bit-identical to scalar.
	sgdMomentum func(p, vel, g []float32, lr, mom float32)
	adamStep    func(p, m, v, g []float32, b1, b2, ob1, ob2, b1c, b2c, lr, eps float32)

	// Quantized-aggregation kernels (quant.go): bit-identical to scalar.
	// maxAbsBits is an unsigned max over sign-cleared IEEE bit patterns
	// (exact for every input including NaN), quantize/dequantize perform
	// identical per-element multiply+convert sequences, and addSatI32 is
	// a pure integer function — so all four stay bit-exact across
	// backends by construction.
	maxAbsBits func(v []float32) uint32
	quantize   func(dst []int32, src []float32, scale float32)
	dequantize func(dst []float32, src []int32, scale float32)
	addSatI32  func(dst, src []int32)
	// maxAbsI32 is the unsigned max of |v[i]| (|MinInt32| is 1<<31):
	// an order-free integer reduction, exact on every backend.
	maxAbsI32 func(v []int32) uint32

	// Half-precision wire conversion (f16.go): bit-identical to scalar.
	f16Pack   func(dst []byte, src []float32)
	f16Unpack func(dst []float32, src []byte)
	f16Round  func(v []float32)
}

var scalarFuncs = funcs{
	name:        "scalar",
	add:         addScalar,
	sub:         subScalar,
	axpy:        axpyScalar,
	scale:       scaleScalar,
	fill:        fillScalar,
	dot:         dotScalar,
	sumSquares:  sumSquaresScalar,
	sgdMomentum: sgdMomentumScalar,
	adamStep:    adamStepScalar,
	maxAbsBits:  maxAbsBitsScalar,
	quantize:    quantizeScalar,
	dequantize:  dequantizeScalar,
	addSatI32:   addSatI32Scalar,
	maxAbsI32:   maxAbsI32Scalar,
	f16Pack:     f16PackScalar,
	f16Unpack:   f16UnpackScalar,
	f16Round:    f16RoundScalar,
}

// simdFuncs is the architecture-specific table registered by
// archInit (nil when the build or the host offers none).
var simdFuncs *funcs

// active is the dispatch table every exported kernel routes through.
// It is chosen at init and only changed by SetBackend, which is not
// safe to call concurrently with kernel use (it exists for init-time
// overrides, tests and benchmarks).
var active = &scalarFuncs

func init() {
	if f := archInit(); f != nil {
		backfill(f)
		simdFuncs = f
		active = simdFuncs
	}
	if env := os.Getenv("TENSOR_BACKEND"); env != "" {
		if err := SetBackend(env); err != nil {
			fmt.Fprintf(os.Stderr, "kernels: ignoring TENSOR_BACKEND=%q: %v\n", env, err)
		}
	}
}

// backfill completes a partial backend table with scalar fallbacks.
func backfill(f *funcs) {
	if f.add == nil {
		f.add = addScalar
	}
	if f.sub == nil {
		f.sub = subScalar
	}
	if f.axpy == nil {
		f.axpy = axpyScalar
	}
	if f.scale == nil {
		f.scale = scaleScalar
	}
	if f.fill == nil {
		f.fill = fillScalar
	}
	if f.dot == nil {
		f.dot = dotScalar
	}
	if f.sumSquares == nil {
		f.sumSquares = sumSquaresScalar
	}
	if f.sgdMomentum == nil {
		f.sgdMomentum = sgdMomentumScalar
	}
	if f.adamStep == nil {
		f.adamStep = adamStepScalar
	}
	if f.maxAbsBits == nil {
		f.maxAbsBits = maxAbsBitsScalar
	}
	if f.quantize == nil {
		f.quantize = quantizeScalar
	}
	if f.dequantize == nil {
		f.dequantize = dequantizeScalar
	}
	if f.addSatI32 == nil {
		f.addSatI32 = addSatI32Scalar
	}
	if f.maxAbsI32 == nil {
		f.maxAbsI32 = maxAbsI32Scalar
	}
	if f.f16Pack == nil {
		f.f16Pack = f16PackScalar
	}
	if f.f16Unpack == nil {
		f.f16Unpack = f16UnpackScalar
	}
	if f.f16Round == nil {
		f.f16Round = f16RoundScalar
	}
}

// Backend returns the name of the active kernel backend ("scalar",
// "avx2", "neon", ...).
func Backend() string { return active.name }

// Backends lists the backends available on this host, sorted.
func Backends() []string {
	bs := []string{scalarFuncs.name}
	if simdFuncs != nil {
		bs = append(bs, simdFuncs.name)
	}
	sort.Strings(bs)
	return bs
}

// SetBackend selects the kernel backend by name: "scalar", the generic
// alias "simd" (whatever SIMD table this host registered), or an exact
// backend name such as "avx2" or "neon". It returns an error when the
// requested backend is unavailable, leaving the selection unchanged.
// Not safe for concurrent use with running kernels; intended for
// init-time overrides, tests and benchmarks.
func SetBackend(name string) error {
	switch {
	case name == "scalar":
		active = &scalarFuncs
	case name == "simd":
		if simdFuncs == nil {
			return fmt.Errorf("no SIMD backend available on this host (have %v)", Backends())
		}
		active = simdFuncs
	case simdFuncs != nil && name == simdFuncs.name:
		active = simdFuncs
	default:
		return fmt.Errorf("unknown backend %q (have %v)", name, Backends())
	}
	return nil
}

// Add accumulates src into dst element-wise: dst[i] += src[i].
// Lengths must match.
func Add(dst, src []float32) {
	assertLen(len(dst), len(src))
	active.add(dst, src)
}

// Sub subtracts src from dst element-wise: dst[i] -= src[i].
// Lengths must match.
func Sub(dst, src []float32) {
	assertLen(len(dst), len(src))
	active.sub(dst, src)
}

// Axpy computes dst[i] += a * src[i]. Lengths must match.
func Axpy(a float32, dst, src []float32) {
	assertLen(len(dst), len(src))
	active.axpy(a, dst, src)
}

// Scale multiplies every element of dst by a.
func Scale(a float32, dst []float32) { active.scale(a, dst) }

// Fill sets every element of dst to a.
func Fill(a float32, dst []float32) { active.fill(a, dst) }

// Zero clears dst. The clear builtin compiles to the runtime's bulk
// memclr on every architecture, which outruns explicit vector stores,
// so Zero has no per-backend variant.
func Zero(dst []float32) { clear(dst) }

// Dot returns the inner product of a and b. SIMD backends accumulate in
// parallel lanes, so the result may differ from the scalar reference by
// up to ~1 ulp per element (reassociation); callers needing bit-stable
// sums must use the scalar backend. Lengths must match.
func Dot(a, b []float32) float32 {
	assertLen(len(a), len(b))
	return active.dot(a, b)
}

// SumSquares returns Σ v[i]² accumulated in float64 (each squared term
// is exact in float64, so backends differ only in summation order).
func SumSquares(v []float32) float64 { return active.sumSquares(v) }

// SGDMomentum applies one momentum-SGD step in place:
//
//	vel[i] = mom*vel[i] + g[i]
//	p[i]  -= lr*vel[i]
//
// Bit-identical across backends. Lengths must match.
func SGDMomentum(p, vel, g []float32, lr, mom float32) {
	assertLen(len(vel), len(p))
	assertLen(len(g), len(p))
	active.sgdMomentum(p, vel, g, lr, mom)
}

// AdamStep applies one Adam step in place with precomputed
// coefficients (b1c/b2c are the bias-correction denominators
// 1-β₁ᵗ and 1-β₂ᵗ; ob1/ob2 are 1-β₁ and 1-β₂):
//
//	m[i] = b1*m[i] + ob1*g[i]
//	v[i] = b2*v[i] + ob2*g[i]*g[i]
//	p[i] -= lr*(m[i]/b1c) / (sqrt(v[i]/b2c) + eps)
//
// Bit-identical across backends (hardware VSQRTPS matches Go's
// float32(math.Sqrt(float64(x))): double rounding through binary64 is
// innocuous for square root since 2·24+2 ≤ 53). Lengths must match.
func AdamStep(p, m, v, g []float32, b1, b2, ob1, ob2, b1c, b2c, lr, eps float32) {
	assertLen(len(m), len(p))
	assertLen(len(v), len(p))
	assertLen(len(g), len(p))
	active.adamStep(p, m, v, g, b1, b2, ob1, ob2, b1c, b2c, lr, eps)
}

func assertLen(got, want int) {
	if got != want {
		panic(fmt.Sprintf("kernels: length mismatch %d != %d", got, want))
	}
}
