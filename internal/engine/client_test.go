package engine

import (
	"math"
	"testing"
	"time"

	"iswitch/internal/protocol"
)

// emissions is a Sender that keeps what a client sends: the live frames
// of its own making, each checked and released at once.
type emissions struct {
	t    *testing.T
	self protocol.Addr
	out  []emitted
}

// emitted is what a test holds of one frame a client sent.
type emitted struct {
	dst    protocol.Addr
	action protocol.Action
	seg    uint64
	data   bool
}

func (e *emissions) Send(p *protocol.Packet) {
	if !p.IsISwitch() || p.Src != e.self {
		e.t.Fatalf("emission is not a live frame of this client: %+v", p)
	}
	em := emitted{dst: p.Dst, action: p.Action, seg: p.Seg, data: p.IsData()}
	if p.IsControl() && p.Action == protocol.ActionHelp {
		em.seg, _ = protocol.ParseHelp(p.Value) // the segment a Help names
	}
	e.out = append(e.out, em)
	p.Release()
}

func (e *emissions) SendTrain(t *Train) { t.SendEach(e) }

var (
	clientAddr = protocol.AddrFrom(10, 0, 0, 2, 7000)
	switchAddr = protocol.AddrFrom(10, 0, 0, 1, 9990)
	// taggedJob is recovery on with round tags, and a timer that never
	// fails over or gives up.
	taggedJob = Recovery{Timeout: time.Millisecond}
)

// The two gradients a worker retains for Help (this round's and the
// previous one's) rotate through two buffers: after the second round no
// round allocates a model-sized copy, and each buffer still holds
// exactly the round a Help can name.
func TestRetainedGradientsRotateTwoBuffers(t *testing.T) {
	const nFloats = protocol.FloatsPerPacket + 5
	var c Client
	c.Init(&emissions{t: t, self: clientAddr}, clientAddr, switchAddr, 0, nFloats,
		protocol.FloatsPerPacket, protocol.CompNone, taggedJob)

	grad := make([]float32, nFloats)
	var bufs [2]*float32
	for round := 1; round <= 6; round++ {
		for i := range grad { // the caller reuses grad, as the trainers do
			grad[i] = float32(round*1000 + i)
		}
		c.Upload(grad, -1)
		if round <= 2 {
			bufs[round%2] = &c.cur[0]
		} else if &c.cur[0] != bufs[round%2] {
			t.Fatalf("round %d retained its gradient in a fresh buffer", round)
		}
		if c.cur[7] != float32(round*1000+7) {
			t.Fatalf("round %d: curGrad[7] = %v", round, c.cur[7])
		}
		if round > 1 && c.prev[7] != float32((round-1)*1000+7) {
			t.Fatalf("round %d: prevGrad[7] = %v, want round %d's value", round, c.prev[7], round-1)
		}
	}
	if bufs[0] == bufs[1] {
		t.Fatal("current and previous round share one buffer")
	}
}

// A tagged int32block share whose segment index lies outside the model
// and that carries no values is dropped before any codec call. It used
// to pass the length check, whose bounds both clamp to the model size,
// and index the codec's per-segment grid out of range.
func TestClientDropsSegmentOutsideModel(t *testing.T) {
	var c Client
	c.Init(&emissions{t: t, self: clientAddr}, clientAddr, switchAddr, 0, 1000,
		protocol.FloatsPerPacket, protocol.CompInt32Block, taggedJob)
	c.Upload(make([]float32, 1000), -1)
	c.Expect()
	pkt := protocol.NewQData(switchAddr, clientAddr, protocol.TagSeg(1, 99), nil, 0)
	if c.Take(pkt) || c.Complete() || c.asm.Remaining() != 3 {
		t.Fatal("segment 99 of a 3-segment model was taken")
	}
}

// Fuzz model: ten floats in segments of four, so three segments, the
// last one short.
const fuzzN, fuzzPer = 10, 4

// recycled counts the loaned payloads handed back: one per frame fed,
// if every frame is released exactly once.
type recycled struct{ n int }

func (r *recycled) Recycle([]float32) { r.n++ }
func (r *recycled) RecycleQ([]int32)  { r.n++ }

// midRound returns a client of scheme in round 2 of a tagged job,
// round 1 complete, with nothing of round 2 assembled yet. Its Help
// timer fails over after two fruitless expiries and gives up after
// five with no share.
func midRound(t *testing.T, scheme protocol.Compression) (*Client, *emissions) {
	rec := &emissions{t: t, self: clientAddr}
	c := &Client{}
	c.Init(rec, clientAddr, switchAddr, 0, fuzzN, fuzzPer, scheme,
		Recovery{Timeout: time.Millisecond, FailoverAfter: 2, GiveUpAfter: 5})
	grad := make([]float32, fuzzN)
	for i := range grad {
		grad[i] = float32(i+1) / 64
	}
	c.Upload(grad, -1)
	c.Expect()
	for seg := uint64(0); seg < 3; seg++ {
		lo, hi := protocol.SegmentRangeWith(fuzzN, seg, fuzzPer)
		var share *protocol.Packet
		if scheme == protocol.CompInt32Block {
			share = protocol.NewQData(switchAddr, clientAddr, protocol.TagSeg(1, seg), make([]int32, hi-lo), 0)
		} else {
			share = protocol.NewData(switchAddr, clientAddr, protocol.TagSeg(1, seg), grad[lo:hi])
		}
		c.Take(share)
	}
	if !c.Complete() {
		t.Fatal("round 1 not assembled")
	}
	c.Finish()
	c.Upload(grad, -1)
	c.Expect()
	rec.out = nil
	return c, rec
}

// inProcess builds a frame the way a simulated switch would hand it
// over, from fuzz bytes: [round][seg][len][enc|job][values…]. The round
// selector picks this round, the previous one or another; the segment
// selector runs one past the model; the length is right or not.
func inProcess(b []byte, round uint64) *protocol.Packet {
	if len(b) < 4 {
		return nil
	}
	rounds := [4]uint64{round, round - 1, round - 2, round + 7}
	seg := uint64(b[1] % 5)
	tagged := protocol.TagSeg(rounds[b[0]%4], seg)
	if b[0]&0x80 != 0 {
		tagged = uint64(b[1]) << 40 // untagged or garbage
	}
	lo, hi := protocol.SegmentRangeWith(fuzzN, seg, fuzzPer)
	n := hi - lo
	if b[2]&1 != 0 {
		n = int(b[2] >> 1 % 8)
	}
	p := protocol.GetPacket()
	p.Src, p.Dst, p.ToS, p.Seg = switchAddr, clientAddr, protocol.ToSData, tagged
	p.Enc = protocol.Compression(b[3] % 4)
	p.Job = protocol.JobID(b[3] >> 7)
	vals := b[4:]
	switch p.Enc {
	case protocol.CompInt32Block:
		p.Shift = b[2] >> 4
		p.QData = make([]int32, n)
		for i := range p.QData {
			if i < len(vals) {
				p.QData[i] = int32(int8(vals[i]))
			}
		}
	case protocol.CompTopK:
		p.Idx = make([]uint16, n)
		fallthrough
	default:
		p.Data = make([]float32, n)
		for i := range p.Data {
			if i < len(vals) {
				p.Data[i] = float32(int8(vals[i])) / 8
			}
		}
	}
	return p
}

// FuzzClientTake: the client engine is total on what a switch can send
// it. Wire datagrams ([ToS][payload], as the UDP transport carries them)
// and in-process frames of all four schemes go into a client in the
// middle of round 2, interleaved with Help-timer expiries. It never
// panics, releases every frame exactly once, assembles only shares
// tagged with round 2, and answers a Help exactly when it names a
// retained round and a segment of the model. An expiry Helps for
// exactly the missing segments under round 2's tag, or sends nothing
// and fails over (which the test follows, to a relay) or gives up. An
// int32block client's own round buffers come back exactly once.
func FuzzClientTake(f *testing.F) {
	ctl := func(a protocol.Action, v []byte) []byte {
		b, _ := protocol.AppendPayload([]byte{0, 0, protocol.ToSControl}, &protocol.Packet{ToS: protocol.ToSControl, Action: a, Value: v})
		b[0] = byte(len(b) - 3)
		return b
	}
	share := func(round, seg uint64, vals ...float32) []byte {
		b, _ := protocol.AppendPayload([]byte{0, 0, protocol.ToSData},
			&protocol.Packet{ToS: protocol.ToSData, Seg: protocol.TagSeg(round, seg), Data: vals})
		b[0] = byte(len(b) - 3)
		return b
	}
	help := func(round, seg uint64) []byte {
		return ctl(protocol.ActionHelp, protocol.HelpValue(protocol.TagSeg(round, seg)))
	}
	// expiry is the Help timer firing: an op of kind 0x20, no body.
	expiry := []byte{0, 0x20}
	cat := func(scheme byte, frames ...[]byte) []byte {
		out := []byte{scheme}
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	// The out-of-model int32block share: kind 2, round 2, segment 4, no values.
	f.Add(cat(2, []byte{3, 2, 0, 4, 1, 2}))
	f.Add(cat(0, share(2, 1, 1, 2, 3, 4), share(2, 1, 1, 2, 3, 4), share(1, 0, 1, 2, 3, 4), share(2, 2, 5, 6),
		help(2, 0), help(1, 2), help(0, 1), help(2, 3), ctl(protocol.ActionAck, protocol.AckOK), share(2, 0, 7, 8, 9, 1)))
	f.Add(cat(1, []byte{4, 1, 0, 1, 0, 1, 9}, []byte{4, 1, 1, 2, 0, 0, 9}, help(2, 1), help(1, 1)))
	f.Add(cat(3, []byte{4, 3, 0, 0, 0, 3, 1}, []byte{3, 3, 1, 2, 7, 3}, help(1, 0), help(2, 2), help(2, 9)))
	f.Add(cat(2, []byte{5, 2, 0, 0, 0, 2, 1, 2}, []byte{5, 2, 1, 1, 0, 2, 3, 4}, help(1, 1), ctl(protocol.ActionHelp, []byte{9})))
	// Expiries: Helps, an Ack, a failover to the relay, a share, then on
	// to giving up.
	f.Add(cat(2, expiry, ctl(protocol.ActionAck, protocol.AckOK), expiry, expiry, help(2, 1), []byte{5, 2, 0, 1, 0, 2, 1, 2},
		expiry, expiry, expiry, expiry, expiry, expiry, help(1, 0)))
	f.Add(cat(3, share(2, 0, 1, 2, 3, 4), expiry, expiry, expiry, share(2, 1, 1, 2, 3, 4), expiry, expiry, expiry, expiry, expiry, expiry))

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 1 {
			return
		}
		scheme := protocol.Compression(script[0] % 4)
		c, rec := midRound(t, scheme)
		round := c.Round()
		segs := uint64(protocol.SegmentCountWith(fuzzN, fuzzPer))
		owner := &recycled{}
		fed := 0
		relay := protocol.AddrFrom(10, 0, 0, 3, 7000)
		expire := func() {
			if w := c.Wait(); w < c.Recovery.Timeout || w > 20*c.Recovery.Timeout {
				t.Fatalf("Help timer %v, base %v", w, c.Recovery.Timeout)
			}
			missing := c.asm.AppendMissing(nil)
			rec.out = nil
			v, helps, resent := c.Expire()
			if v != Helped {
				if len(rec.out) != 0 || helps != 0 || resent != 0 {
					t.Fatalf("verdict %d sent %+v (%d Helps, %d resends)", v, rec.out, helps, resent)
				}
				if v == FailOver {
					c.Failover(relay)
				}
				return
			}
			if helps != len(missing) || resent != 0 || len(rec.out) != helps {
				t.Fatalf("%d Helps and %d resends for missing %v: sent %+v", helps, resent, missing, rec.out)
			}
			for i, e := range rec.out {
				if e.data || e.action != protocol.ActionHelp || e.dst != c.Target() || e.seg != protocol.TagSeg(round, missing[i]) {
					t.Fatalf("Help for missing %v of round %d: sent %+v", missing, round, rec.out)
				}
			}
		}
		for script = script[1:]; len(script) >= 3; {
			n, kind := int(script[0]), script[1]
			script = script[2:]
			if kind&0x20 != 0 {
				expire()
				continue
			}
			if n+1 > len(script) {
				n = len(script) - 1
			}
			body := script[:1+n]
			script = script[1+n:]
			var pkt *protocol.Packet
			if kind%4 == 0 {
				var err error
				if pkt, err = protocol.UnmarshalPayload(switchAddr, clientAddr, body[0], body[1:]); err != nil {
					continue // the transport drops what does not parse
				}
			} else if pkt = inProcess(body, round); pkt == nil {
				continue
			}
			if kind&0x40 != 0 {
				pkt.Src = relay // a peer, or the relay
			}
			// Put every frame's payload on loan from owner, so its
			// release is counted.
			if pkt.QData != nil {
				pkt.LendQData(append([]int32(nil), pkt.QData...), owner)
			} else {
				pkt.LendData(append([]float32{}, pkt.Data...), owner)
			}
			fed++
			current := pkt.IsData() && pkt.Job == 0 && pkt.Seg>>protocol.RoundShift == protocol.RoundTag(round)>>protocol.RoundShift
			tagged, src, quantized := pkt.Seg, pkt.Src, pkt.Enc == protocol.CompInt32Block
			vals := append([]float32(nil), pkt.Data...)
			isHelp := pkt.IsControl() && pkt.Action == protocol.ActionHelp
			var helpSeg uint64
			var helpErr error
			if isHelp {
				helpSeg, helpErr = protocol.ParseHelp(pkt.Value)
			}
			vec := c.asm.Vector()
			before, missing := append([]float32(nil), vec...), c.asm.Remaining()
			rec.out = nil

			resent := c.Take(pkt)

			if owner.n != fed {
				t.Fatalf("frame %d: %d payloads returned", fed, owner.n)
			}
			// Only a share tagged with this round may touch the assembly,
			// and only its own segment, with its own values.
			for seg := uint64(0); seg < segs; seg++ {
				lo, hi := protocol.SegmentRangeWith(fuzzN, seg, fuzzPer)
				touched := false
				for i := lo; i < hi; i++ {
					touched = touched || math.Float32bits(vec[i]) != math.Float32bits(before[i])
				}
				if !touched {
					continue
				}
				if !current || tagged&protocol.SegIndexMask != seg {
					t.Fatalf("segment %d changed by a frame that is no share of job 0's round %d: seg %#x", seg, round, tagged)
				}
				for i := lo; i < hi && !quantized; i++ {
					if math.Float32bits(vec[i]) != math.Float32bits(vals[i-lo]) {
						t.Fatalf("segment %d holds %v, want the share's %v", seg, vec[lo:hi], vals)
					}
				}
			}
			if c.asm.Remaining() < missing && !current {
				t.Fatalf("a frame that is no share of round %d completed a segment", round)
			}
			if !isHelp {
				if resent || len(rec.out) != 0 {
					t.Fatalf("a frame that is no Help made the client send %+v", rec.out)
				}
				continue
			}
			r := helpSeg >> protocol.RoundShift
			servable := helpErr == nil && helpSeg&protocol.SegIndexMask < segs &&
				(r == round%protocol.RoundTagMod || r == (round-1)%protocol.RoundTagMod)
			if servable != resent || servable != (len(rec.out) == 1) || len(rec.out) > 1 {
				t.Fatalf("Help %#x (err %v): resent %v, %d frames sent", helpSeg, helpErr, resent, len(rec.out))
			}
			if servable && (!rec.out[0].data || rec.out[0].seg != helpSeg || rec.out[0].dst != src) {
				t.Fatalf("Help %#x from %v answered with %+v", helpSeg, src, rec.out[0])
			}
		}
		if scheme != protocol.CompInt32Block {
			return
		}
		// The client's own wire rounds come back too, once each: rounds 3
		// and 4 retire rounds 1 and 2, whose every frame (upload or resend)
		// has been released, and are quantized into their buffers.
		bufs := [2]*int32{&c.wire.prev.QData[0], &c.wire.cur.QData[0]}
		for i, buf := range bufs {
			c.Upload(make([]float32, fuzzN), -1)
			if &c.wire.cur.QData[0] != buf || c.wire.loaned != 2 {
				t.Fatalf("round %d: not in round %d's returned buffer, or %d buffers on loan (want 2)",
					round+1+uint64(i), round-1+uint64(i), c.wire.loaned)
			}
		}
	})
}
