package engine

import (
	"math"
	"slices"
	"testing"

	"iswitch/internal/protocol"
)

// sink is a Sender that lets go of every frame at once, counting them.
type sink struct{ frames int }

func (s *sink) Send(p *protocol.Packet) {
	s.frames++
	p.Release()
}

func (s *sink) SendTrain(t *Train) { t.SendEach(s) }

// wireLog is a Sender that keeps a copy of every data frame's quantized
// payload, keyed by its tagged segment (the last copy wins), and can
// hold on to frames instead of releasing them.
type wireLog struct {
	sent map[uint64][]int32
	hold bool
	held []*protocol.Packet
}

func (w *wireLog) Send(p *protocol.Packet) {
	if p.IsData() {
		w.sent[p.Seg] = append([]int32(nil), p.QData...)
	}
	if w.hold {
		w.held = append(w.held, p)
		return
	}
	p.Release()
}

func (w *wireLog) SendTrain(t *Train) { t.SendEach(w) }

// int32Client is a tagged int32block client of n values in segments of
// per, sending to out.
func int32Client(out Sender, n, per int) *Client {
	c := &Client{}
	c.Init(out, clientAddr, switchAddr, 0, n, per, protocol.CompInt32Block, taggedJob)
	return c
}

// roundGrad is round r's gradient: distinct, small values per round.
func roundGrad(n int, r uint64) []float32 {
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(int(r)*7+i%13-6) * 1e-3
	}
	return g
}

// help asks c, as the switch, for its contribution to tagged.
func help(c *Client, tagged uint64) bool {
	return c.Take(protocol.NewHelp(switchAddr, clientAddr, tagged))
}

// After two warm-up rounds, an int32block round allocates nothing on
// the worker: the round is quantized into the buffer the round before
// the previous one gave back, and the upload, a current-round and a
// previous-round retransmission are each a pooled share of it.
func TestClientUploadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const n = 8*protocol.FloatsPerPacket + 5
	out := &sink{}
	c := int32Client(out, n, 0)
	grad := roundGrad(n, 1)
	round := func() {
		c.Upload(grad, -1)
		if !help(c, protocol.TagSeg(c.Round(), 3)) || !help(c, protocol.TagSeg(c.Round()-1, 8)) {
			t.Fatal("a retained round's segment was not resent")
		}
	}
	c.Upload(grad, -1)
	round()
	out.frames = 0
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("an int32block round with two retransmissions allocated %.1f times, want 0", allocs)
	}
	if want := 11 * (9 + 2); out.frames != want { // AllocsPerRun's warm-up run and 10 more
		t.Fatalf("%d frames sent, want %d", out.frames, want)
	}
}

// A round's frames share its wire round, so a previous-round
// retransmission made after Finish moved the codec to a new grid still
// carries the bits of the original upload, as does a current-round one.
// Every frame of round 1 was released before its resends: under
// PoisonOnRelease (TestMain) the client's own reference is what keeps
// the buffer from being poisoned or reused.
func TestPrevRoundRetransmitBitIdentical(t *testing.T) {
	log := &wireLog{sent: map[uint64][]int32{}}
	c := int32Client(log, fuzzN, fuzzPer)
	grad := roundGrad(fuzzN, 1)
	c.Upload(grad, -1)
	first := log.sent
	// Complete round 1 with an all-zero aggregate: every segment's grid
	// exponent decays, so round 2 quantizes the same values differently.
	c.Expect()
	for seg := uint64(0); seg < 3; seg++ {
		lo, hi := protocol.SegmentRangeWith(fuzzN, seg, fuzzPer)
		c.Take(protocol.NewQData(switchAddr, clientAddr, protocol.TagSeg(1, seg), make([]int32, hi-lo), 0))
	}
	c.Finish()
	log.sent = map[uint64][]int32{}
	c.Upload(grad, -1)
	second := log.sent
	for seg := uint64(0); seg < 3; seg++ {
		if slices.Equal(first[protocol.TagSeg(1, seg)], second[protocol.TagSeg(2, seg)]) {
			t.Fatalf("segment %d encodes the same after Advance; the identity check would be vacuous", seg)
		}
		for r, want := range map[uint64][]int32{1: first[protocol.TagSeg(1, seg)], 2: second[protocol.TagSeg(2, seg)]} {
			tagged := protocol.TagSeg(r, seg)
			if !help(c, tagged) || !slices.Equal(log.sent[tagged], want) {
				t.Fatalf("round %d segment %d resent as %v, uploaded as %v", r, seg, log.sent[tagged], want)
			}
		}
	}
}

// A frame of round r held past round r+2's Upload still reads round r's
// values: the client retires round r's holder, but the buffer is still
// out, so round r+2 is encoded into a fresh one. The held buffer comes
// back, once, when the frame is released.
func TestStaleFrameKeepsItsRound(t *testing.T) {
	log := &wireLog{sent: map[uint64][]int32{}, hold: true}
	c := int32Client(log, fuzzN, fuzzPer)
	c.Upload(roundGrad(fuzzN, 1), -1)
	round1 := &c.wire.cur.QData[0]
	stale := log.held[1] // round 1, segment 1
	want := append([]int32(nil), stale.QData...)
	log.hold = false
	c.Upload(roundGrad(fuzzN, 2), -1)
	c.Upload(roundGrad(fuzzN, 3), -1)
	if !slices.Equal(stale.QData, want) {
		t.Fatalf("a held round-1 frame reads %v after round 3's upload, want %v", stale.QData, want)
	}
	if &c.wire.cur.QData[0] == round1 {
		t.Fatal("round 3 reuses the buffer a round-1 frame still reads")
	}
	if c.wire.loaned != 3 || c.wire.spare != nil {
		t.Fatalf("%d buffers on loan, spare %v; want 3 and none", c.wire.loaned, c.wire.spare)
	}
	for _, p := range log.held {
		p.Release()
	}
	if c.wire.loaned != 2 || len(c.wire.spare) != fuzzN || c.wire.spare[0] != math.MinInt32 {
		t.Fatalf("after the last round-1 frame: %d on loan, spare %v; want 2 and round 1's poisoned buffer",
			c.wire.loaned, c.wire.spare)
	}
}

// BenchmarkClientUploadInt32 is the worker's int32block upload path: a
// 400 000-value round quantized and sent, then 10 % of its segments
// resent on Helps. It reports ns per segment sent and allocations per
// round.
func BenchmarkClientUploadInt32(b *testing.B) {
	const n = 400_000
	out := &sink{}
	c := int32Client(out, n, 0)
	grad := roundGrad(n, 1)
	segs := uint64(protocol.SegmentCountWith(n, protocol.FloatsPerPacket))
	round := func() {
		c.Upload(grad, -1)
		for s := uint64(0); s < segs; s += 10 {
			help(c, protocol.TagSeg(c.Round(), s))
		}
	}
	round()
	round()
	b.ReportAllocs()
	out.frames = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(out.frames), "ns/segment")
	b.ReportMetric(testing.AllocsPerRun(5, round), "allocs/round")
}
