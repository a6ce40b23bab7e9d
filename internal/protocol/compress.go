package protocol

import "fmt"

// Gradient compression schemes. The scheme is a per-job property,
// negotiated once at Join time (the Join payload carries a scheme byte,
// see JoinValueScheme) and fixed for the job's lifetime: every data
// packet of the job is encoded under the job's scheme, and the switch
// validates the two against each other rather than trusting the packet.
//
// Wire layouts per scheme (UDP payload, after the 8-byte Seg field):
//
//	CompNone       raw little-endian float32, 4 B/element
//	CompFP16       IEEE half precision, 2 B/element
//	CompInt32Block 1-byte Shift, then int16 quantized values, 2 B/element
//	CompTopK       2-byte entry count, then (uint16 index, float32 value)
//	               entries, 6 B/entry — or a dense CompNone-layout packet
//	               for switch-emitted aggregates and tree partials
//
// The DES keeps payloads in memory and only *models* these byte counts
// (WireLen); Marshal/AppendPayload reject compressed packets, since the
// real-UDP transport negotiates CompNone.
type Compression uint8

const (
	// CompNone is the paper's raw float32 format.
	CompNone Compression = iota
	// CompFP16 rounds every element through IEEE half precision and
	// carries 2 bytes per element. Aggregation stays float32 on the
	// switch (FPISA-style), so the scheme is stateless and works under
	// every strategy that frames data packets the standard way.
	CompFP16
	// CompInt32Block carries block-scaled int16 values that the switch
	// accumulates as int32 — exactly associative, so the aggregate is
	// bit-identical under any packet arrival order. Workers derive the
	// per-segment scale speculatively from the previous round's
	// aggregate; no scale travels on the wire beyond the 1-byte
	// emission-narrowing Shift.
	CompInt32Block
	// CompTopK sends only the top-k largest-magnitude elements per
	// round as (index, value) pairs; the switch scatter-adds them into
	// a dense float32 slot and emits dense aggregates.
	CompTopK

	compCount // number of schemes; keep last
)

var compNames = [compCount]string{"none", "fp16", "int32block", "topk"}

// String returns the scheme's short name.
func (c Compression) String() string {
	if int(c) < len(compNames) {
		return compNames[c]
	}
	return fmt.Sprintf("Compression(%d)", uint8(c))
}

// Valid reports whether c names a defined scheme.
func (c Compression) Valid() bool { return c < compCount }

// Compressions lists all defined schemes.
func Compressions() []Compression {
	return []Compression{CompNone, CompFP16, CompInt32Block, CompTopK}
}

// Per-packet overhead bytes beyond the Seg field, by encoding.
const (
	ShiftFieldLen  = 1 // CompInt32Block: emission-narrowing shift
	CountFieldLen  = 2 // CompTopK: sparse entry count
	SparseEntryLen = 6 // CompTopK: uint16 index + float32 value
)

// JoinValueScheme encodes the Join metadata payload carrying both the
// model's gradient length and the job's compression scheme. A plain
// 8-byte JoinValue payload parses as scheme CompNone, so pre-compression
// workers interoperate unchanged.
func JoinValueScheme(modelFloats uint64, scheme Compression) []byte {
	return append(JoinValue(modelFloats), byte(scheme))
}

// ParseJoinScheme decodes a Join payload in either form: 8 bytes
// (legacy, scheme CompNone) or 9 bytes (trailing scheme byte).
func ParseJoinScheme(value []byte) (modelFloats uint64, scheme Compression, err error) {
	switch len(value) {
	case 8:
		modelFloats, err = ParseJoin(value[:8])
		return modelFloats, CompNone, err
	case 9:
		modelFloats, err = ParseJoin(value[:8])
		if err != nil {
			return 0, 0, err
		}
		scheme = Compression(value[8])
		if !scheme.Valid() {
			return 0, 0, fmt.Errorf("protocol: Join names unknown compression scheme %d", value[8])
		}
		return modelFloats, scheme, nil
	default:
		return 0, 0, fmt.Errorf("protocol: Join value must be 8 or 9 bytes, got %d", len(value))
	}
}

// NewQData builds a block-scaled quantized data packet on a pooled
// header. The payload aliases q; shift is the emission-narrowing
// exponent (zero on the worker→switch leg).
func NewQData(src, dst Addr, seg uint64, q []int32, shift uint8) *Packet {
	if len(q) > FloatsPerPacket {
		panic(fmt.Sprintf("protocol: quantized segment of %d elements exceeds packet capacity %d",
			len(q), FloatsPerPacket))
	}
	p := GetPacket()
	p.Src, p.Dst, p.ToS, p.Seg = src, dst, ToSData, seg
	p.Enc, p.Shift, p.QData = CompInt32Block, shift, q
	return p
}

// NewSparseData builds a top-k sparse data packet on a pooled header,
// carrying parallel index/value slices (aliased, not copied). Empty is
// legal — a segment with no selected elements still sends one packet so
// the switch's per-segment contribution count advances.
func NewSparseData(src, dst Addr, seg uint64, idx []uint16, vals []float32) *Packet {
	if len(idx) != len(vals) {
		panic("protocol: sparse index/value length mismatch")
	}
	if len(idx) > FloatsPerPacket {
		panic(fmt.Sprintf("protocol: sparse segment of %d entries exceeds packet capacity %d",
			len(idx), FloatsPerPacket))
	}
	p := GetPacket()
	p.Src, p.Dst, p.ToS, p.Seg = src, dst, ToSData, seg
	p.Enc, p.Idx, p.Data = CompTopK, idx, vals
	return p
}
