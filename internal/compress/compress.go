// Package compress implements the client-side gradient compression
// codecs behind the pluggable wire schemes in internal/protocol.
//
// Block-scaled int32 (CompInt32Block) works like SwitchML's speculative
// scaling: every worker derives the same per-segment power-of-two grid
// exponent from the previous round's reconstructed aggregate, so no
// scale factor travels on the wire and the switch can accumulate the
// quantized values as plain saturating int32 — an exactly associative
// sum, bit-identical under any packet arrival order. The switch narrows
// each completed sum back into the int16 wire range and advertises the
// narrowing as a per-packet Shift; decoding folds the shift into the
// scale exactly (the narrowed sum has at most 15 significand bits).
//
// Top-k (CompTopK) selects the k globally largest-magnitude gradient
// elements per round with a deterministic quickselect and partitions
// them into one (possibly empty) sparse packet per segment, so the
// switch's per-segment contribution counting works unchanged.
//
// The codec is deterministic: two workers holding the same previous
// aggregate encode and decode identically, which is what keeps the
// decentralized weight replicas bit-equal.
package compress

import (
	"fmt"
	"math"
	"math/bits"

	"iswitch/internal/protocol"
	"iswitch/internal/tensor/kernels"
)

// Exponent bounds and the grid target. A segment's exponent e means the
// quantization grid step is 2^e. After decoding a round's aggregate the
// next exponent is chosen so the observed maximum magnitude lands near
// 2^(e'+gridBits): gridBits = 13 leaves one headroom bit above the
// aggregate (a worker's own gradient can exceed the aggregate when
// contributions cancel) while keeping 13+ bits of resolution.
const (
	expFloor = -40
	expCeil  = 90
	gridBits = 13

	// DefaultInitExp is the round-0 grid exponent: step 2^-18, max
	// representable magnitude 32767·2^-18 ≈ 0.125. A gradient that
	// clips simply saturates for a round or two while the exponent
	// climbs to fit (the update below raises e by the emission shift
	// when the grid is pegged).
	DefaultInitExp = -18

	// DefaultTopKFrac is the fraction of gradient elements CompTopK
	// keeps per round.
	DefaultTopKFrac = 0.05

	// zeroDecay is how fast a segment's exponent drifts down when a
	// whole round aggregates to exactly zero, so a silent segment does
	// not stay stuck at a coarse grid forever.
	zeroDecay = 4
)

// Config parameterizes a codec.
type Config struct {
	// Scheme selects the compression algorithm.
	Scheme protocol.Compression
	// TopKFrac is the kept fraction for CompTopK (0 = DefaultTopKFrac).
	TopKFrac float64
	// InitExp is the round-0 grid exponent for CompInt32Block
	// (0 = DefaultInitExp; pass a nonzero value to override).
	InitExp int
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.TopKFrac <= 0 {
		c.TopKFrac = DefaultTopKFrac
	}
	if c.InitExp == 0 {
		c.InitExp = DefaultInitExp
	}
	return c
}

// Codec holds one worker's compression state for an n-element gradient
// split into perPacket-element segments. Not safe for concurrent use.
type Codec struct {
	cfg Config
	n   int
	per int

	// exp is the current per-segment grid exponent; nextExp accumulates
	// the exponents derived while decoding the in-flight round and is
	// applied by Advance.
	exp     []int16
	nextExp []int16

	qOut []int32 // EncodeQ scratch, reused per call

	// Top-k selection cache for the current round (and, for prev-round
	// retransmissions, the previous one): global indices partitioned
	// into per-segment local indices and values, retained so
	// retransmissions resend the identical selection.
	keys        []uint64
	sel         []int32
	segIdx      [][]uint16
	segVals     [][]float32
	prevSegIdx  [][]uint16
	prevSegVals [][]float32
}

// NewCodec builds a codec for an n-element gradient and perPacket
// segment width.
func NewCodec(cfg Config, n, perPacket int) *Codec {
	cfg = cfg.WithDefaults()
	segs := protocol.SegmentCountWith(n, perPacket)
	c := &Codec{cfg: cfg, n: n, per: perPacket}
	if cfg.Scheme == protocol.CompInt32Block {
		c.exp = make([]int16, segs)
		c.nextExp = make([]int16, segs)
		for i := range c.exp {
			c.exp[i] = int16(cfg.InitExp)
			c.nextExp[i] = int16(cfg.InitExp)
		}
		c.qOut = make([]int32, perPacket)
	}
	if cfg.Scheme == protocol.CompTopK {
		c.segIdx = make([][]uint16, segs)
		c.segVals = make([][]float32, segs)
		c.prevSegIdx = make([][]uint16, segs)
		c.prevSegVals = make([][]float32, segs)
	}
	return c
}

// Scheme returns the configured scheme.
func (c *Codec) Scheme() protocol.Compression { return c.cfg.Scheme }

// Exp returns segment seg's current grid exponent (tests/experiments).
func (c *Codec) Exp(seg uint64) int { return int(c.exp[seg]) }

// scaleFor returns 2^e as a float32 — exact for e in [expFloor-16,
// expCeil+32], comfortably inside float32's exponent range.
func scaleFor(e int) float32 { return float32(math.Ldexp(1, e)) }

// EncodeQInto quantizes one segment's values onto its current grid
// into dst, which has len(vals) elements: dst[i] = rne(vals[i]·2^-e),
// saturating at ±QuantMax. Encoding the same values within a round
// yields identical bits: the exponent only moves at Advance. A worker
// encodes each round once, into the buffer its data frames share.
func (c *Codec) EncodeQInto(dst []int32, seg uint64, vals []float32) {
	kernels.Quantize(dst, vals, scaleFor(-int(c.exp[seg])))
}

// EncodeQ is EncodeQInto into codec-owned scratch, which it returns; the
// slice is valid until the next EncodeQ call.
func (c *Codec) EncodeQ(seg uint64, vals []float32) []int32 {
	dst := c.qOut[:len(vals)]
	c.EncodeQInto(dst, seg, vals)
	return dst
}

// DecodeQ reconstructs one segment of the aggregate from the switch's
// narrowed sum: dst[i] = float32(q[i])·2^(e+shift). It also derives the
// segment's next-round exponent from the observed magnitude; every
// worker decodes the same (q, shift) and therefore lands on the same
// exponent. Decoding the same segment twice (a re-served shadow copy)
// is idempotent.
func (c *Codec) DecodeQ(seg uint64, q []int32, shift uint8, dst []float32) {
	if len(dst) != len(q) {
		panic(fmt.Sprintf("compress: DecodeQ segment %d: %d values into %d-element dst",
			seg, len(q), len(dst)))
	}
	e := int(c.exp[seg])
	kernels.Dequantize(dst, q, scaleFor(e+int(shift)))
	c.nextExp[seg] = int16(nextExp(e, shift, kernels.MaxAbsI32(q)))
}

// nextExp is the shared integer-exact exponent update: pick e' so the
// observed aggregate magnitude maxq·2^(e+shift) sits near 2^(e'+gridBits).
// An all-zero aggregate decays the exponent instead, down to expFloor.
func nextExp(e int, shift uint8, maxq int32) int {
	if maxq == 0 {
		return clampExp(e - zeroDecay)
	}
	k := 31 - bits.LeadingZeros32(uint32(maxq)) // ilog2, maxq > 0
	return clampExp(e + int(shift) + k - gridBits)
}

func clampExp(e int) int {
	if e < expFloor {
		return expFloor
	}
	if e > expCeil {
		return expCeil
	}
	return e
}

// Advance commits the exponents derived during the just-completed round
// so the next round encodes on the adapted grid. Call exactly once per
// fully decoded round, on every worker.
func (c *Codec) Advance() { copy(c.exp, c.nextExp) }

// SelectTopK computes the round's sparse selection: the k globally
// largest-magnitude elements of grad (k = TopKFrac·len, at least 1),
// partitioned into per-segment local indices and values. The selection
// is cached until the next SelectTopK call so retransmissions resend
// identical packets; read it back with Sparse.
func (c *Codec) SelectTopK(grad []float32) {
	if len(grad) != c.n {
		panic(fmt.Sprintf("compress: SelectTopK gradient length %d, want %d", len(grad), c.n))
	}
	k := int(c.cfg.TopKFrac * float64(c.n))
	if k < 1 {
		k = 1
	}
	c.sel, c.keys = kernels.TopKSelect(c.sel[:0], c.keys, grad, k)
	// Rotate the cache: the outgoing selection stays readable via
	// SparsePrev for prev-round retransmissions.
	c.segIdx, c.prevSegIdx = c.prevSegIdx, c.segIdx
	c.segVals, c.prevSegVals = c.prevSegVals, c.segVals
	for s := range c.segIdx {
		c.segIdx[s] = c.segIdx[s][:0]
		c.segVals[s] = c.segVals[s][:0]
	}
	for _, gi := range c.sel { // ascending global indices
		s := int(gi) / c.per
		c.segIdx[s] = append(c.segIdx[s], uint16(int(gi)-s*c.per))
		c.segVals[s] = append(c.segVals[s], grad[gi])
	}
}

// Sparse returns segment seg's cached selection (possibly empty — the
// segment still sends one empty sparse packet so the switch's
// contribution counter advances). Slices are codec-owned; copy into the
// packet.
func (c *Codec) Sparse(seg uint64) (idx []uint16, vals []float32) {
	return c.segIdx[seg], c.segVals[seg]
}

// SparsePrev returns the previous round's cached selection for seg.
func (c *Codec) SparsePrev(seg uint64) (idx []uint16, vals []float32) {
	return c.prevSegIdx[seg], c.prevSegVals[seg]
}
