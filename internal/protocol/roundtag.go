package protocol

// Round tagging for synchronous loss recovery. When a worker arms
// recovery it stamps every data packet's Seg field with the current
// aggregation round in the high 16 bits, leaving 48 bits of segment
// index. Tagging keeps switch state of adjacent rounds disjoint so a
// retransmitted segment can never mix iterations, and it is what lets
// the switch's shadow slots validate that a cached aggregate answers
// the round the requester is actually stalled on. Rounds wrap mod 2^16;
// any stale switch partial from 65536 rounds ago would be a lost-cause
// leak, not a correctness hazard, because its contributors' dedup
// entries still block completion.

const (
	// RoundShift is the bit position of the round tag within Seg.
	RoundShift = 48
	// SegIndexMask extracts the 48-bit spatial segment index.
	SegIndexMask = (uint64(1) << RoundShift) - 1
	// RoundTagMod is the modulus round numbers wrap at.
	RoundTagMod = 1 << 16
)

// RoundTag returns the shifted tag bits for an aggregation round
// (round 0 tags as 0, preserving plain segment numbering).
func RoundTag(round uint64) uint64 {
	return (round % RoundTagMod) << RoundShift
}

// TagSeg combines a segment index with a round's tag bits.
func TagSeg(round, seg uint64) uint64 { return RoundTag(round) | (seg & SegIndexMask) }

// SegIndex strips the round tag off a Seg field.
func SegIndex(tagged uint64) uint64 { return tagged & SegIndexMask }
