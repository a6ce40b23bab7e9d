package kernels

import (
	"math"
	"math/bits"
	"slices"
)

// Quantized-aggregation kernel surface: block max-abs scan, float↔int32
// scale conversion, saturating integer accumulation, top-k magnitude
// selection and sparse scatter-add. The first four and the integer
// max-abs dispatch through the backend table (AVX2 on amd64; both
// max-abs scans also have a NEON form — the Go arm64 assembler exposes
// no vector float convert or saturating add, so the rest backfill to
// scalar there, like the optimizer kernels). All
// dispatched entries are bit-identical across backends; see
// scalar_quant.go for why that holds exactly rather than approximately.

// QuantMax is the largest magnitude Quantize emits: the wire format
// carries int16-representable values, and excluding -32768 keeps
// H·QuantMax < 2³¹ for any aggregation fan-in H ≤ 65536 — the bound
// that makes saturating accumulation provably saturation-free, hence
// exactly associative, in every supported cluster.
const QuantMax = quantMax

// MaxAbs returns max(|v[i]|) computed on sign-cleared IEEE bit
// patterns: exact for every input, with NaN ordering above +Inf (bit
// patterns compare unsigned), so the result is independent of element
// order on every backend. Returns 0 for an empty slice.
func MaxAbs(v []float32) float32 {
	return math.Float32frombits(active.maxAbsBits(v))
}

// Quantize converts src to the block-scaled integer grid:
// dst[i] = rne(clamp(src[i]*scale, ±QuantMax)), with NaN collapsing to
// +QuantMax (deterministically, on every backend). Lengths must match.
func Quantize(dst []int32, src []float32, scale float32) {
	assertLen(len(dst), len(src))
	active.quantize(dst, src, scale)
}

// Dequantize converts integers back to floats: dst[i] = float32(src[i])
// * scale. Lengths must match.
func Dequantize(dst []float32, src []int32, scale float32) {
	assertLen(len(dst), len(src))
	active.dequantize(dst, src, scale)
}

// AddSatInt32 accumulates src into dst with signed saturation:
// dst[i] = sat32(dst[i] + src[i]). On quantized gradient traffic the
// saturation never fires (see QuantMax), so the sum is exactly
// associative — but the kernel saturates anyway, matching what the
// switch hardware would do. Lengths must match.
func AddSatInt32(dst, src []int32) {
	assertLen(len(dst), len(src))
	active.addSatI32(dst, src)
}

// MaxAbsI32 returns max(|v[i]|), saturating |math.MinInt32| to
// math.MaxInt32. It runs on every int32block emission (the narrowing
// shift) and every decode (the next exponent), so it dispatches through
// the backend table (AVX2, NEON); the backends compute the unsigned
// magnitude and the saturation happens here, once.
func MaxAbsI32(v []int32) int32 {
	return int32(min(active.maxAbsI32(v), math.MaxInt32))
}

// ShlI32 shifts every element left in place (exact re-widening of a
// narrowed partial sum).
func ShlI32(v []int32, s uint8) {
	if s == 0 {
		return
	}
	for i := range v {
		v[i] <<= s
	}
}

// ShrI32 shifts every element right in place (arithmetic), the
// emission-narrowing step applied only to completed segment sums.
func ShrI32(v []int32, s uint8) {
	if s == 0 {
		return
	}
	for i := range v {
		v[i] >>= s
	}
}

// NarrowShift returns the emission-narrowing shift applied to a
// completed int32 segment sum so it fits back into the int16 wire
// range: the smallest k with maxq>>k < 2^15 (maxq = MaxAbsI32 of the
// sum). The shift travels on the wire, and re-widening by q<<k is exact
// with respect to the narrowed value, so narrowing stays deterministic
// and order-independent — it runs once, on the completed sum.
func NarrowShift(maxq int32) uint8 {
	if maxq <= 0 {
		return 0
	}
	if k := 31 - bits.LeadingZeros32(uint32(maxq)); k > 14 {
		return uint8(k - 14)
	}
	return 0
}

// topKKey packs one element for selection: magnitude bits in the high
// word so larger magnitudes order first, bit-inverted index in the low
// word so equal magnitudes prefer the *smaller* index — one total,
// deterministic order with no float comparisons (NaN sorts above +Inf).
func topKKey(i int, x float32) uint64 {
	return uint64(math.Float32bits(x)&^(1<<31))<<32 | uint64(^uint32(i))
}

// TopKSelect returns the indices of the k largest-magnitude elements of
// v, ascending, appended to dst. keys is caller-owned scratch grown to
// len(v) and returned for reuse; selection is a deterministic
// median-of-three quickselect, so the chosen set depends only on v and
// k (ties broken toward the smaller index). k ≥ len(v) selects all.
func TopKSelect(dst []int32, keys []uint64, v []float32, k int) ([]int32, []uint64) {
	if k >= len(v) {
		for i := range v {
			dst = append(dst, int32(i))
		}
		return dst, keys
	}
	if k <= 0 {
		return dst, keys
	}
	keys = keys[:0]
	for i, x := range v {
		keys = append(keys, topKKey(i, x))
	}
	quickselectTop(keys, k)
	for _, key := range keys[:k] {
		dst = append(dst, int32(^uint32(key)))
	}
	slices.Sort(dst[len(dst)-k:])
	return dst, keys
}

// quickselectTop partitions keys so the k largest occupy keys[:k]
// (unordered). Median-of-three pivots keep the recursion deterministic
// and safe on adversarial (e.g. all-equal) inputs.
func quickselectTop(keys []uint64, k int) {
	lo, hi := 0, len(keys)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		a, b, c := keys[lo], keys[mid], keys[hi-1]
		pivot := max(min(a, b), min(max(a, b), c))
		// Three-way partition, descending: [lo,i) > pivot, [i,j) == pivot.
		i, j, p := lo, lo, hi
		for j < p {
			switch {
			case keys[j] > pivot:
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j++
			case keys[j] < pivot:
				p--
				keys[j], keys[p] = keys[p], keys[j]
			default:
				j++
			}
		}
		switch {
		case k <= i:
			hi = i
		case k >= j:
			lo = j
		default:
			return // boundary falls inside the pivot-equal run
		}
	}
}

// ScatterAdd accumulates sparse values into a dense block:
// dst[idx[i]] += vals[i]. Indices are block-local (the wire carries
// them as uint16, so blocks hold at most 65536 elements). idx and vals
// lengths must match; out-of-range indices panic via the bounds check.
func ScatterAdd(dst []float32, idx []uint16, vals []float32) {
	assertLen(len(idx), len(vals))
	for i, ix := range idx {
		dst[ix] += vals[i]
	}
}
