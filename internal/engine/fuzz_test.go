package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"iswitch/internal/protocol"
)

// discard is a driver that delivers nothing: it checks each emission is
// a live frame of this switch's making and lets go of it at once, so a
// header forwarded to more holders than it counts arrives cleared and a
// payload released twice panics in protocol.
type discard struct {
	t    *testing.T
	self protocol.Addr
}

func (d *discard) Forward(p *protocol.Packet, _ protocol.Addr) {
	if !p.IsISwitch() || p.Src != d.self {
		d.t.Fatalf("emission is not a live frame of this switch: %+v", p)
	}
	p.Release()
}
func (d *discard) SendUp(p *protocol.Packet)        { d.t.Fatal("a root engine sent a frame up") }
func (d *discard) Now() time.Duration               { return 0 }
func (d *discard) After(_ time.Duration, fn func()) { fn() }

// wire frames a script as the fuzzer sees it: per datagram a length
// byte, a source byte, then [ToS][payload] as the UDP transport carries
// it.
func wire(from byte, p *protocol.Packet) []byte {
	b, err := protocol.AppendPayload([]byte{0, from, p.ToS}, p)
	if err != nil {
		panic(err)
	}
	b[0] = byte(len(b) - 3)
	return b
}

// fuzzSparseToS tags a datagram the fuzzer decodes itself, as a top-k
// selection: [seg u64] then [index u16][value f32] per entry. The UDP
// payload codec carries raw floats only, so the wire cannot bring a
// sparse frame yet, but the engine must refuse a malformed one all the
// same.
const fuzzSparseToS = 0x4b

// sparseFrame decodes a fuzzSparseToS payload into a pooled frame.
func sparseFrame(src, dst protocol.Addr, b []byte) (*protocol.Packet, error) {
	if len(b) < 8 || (len(b)-8)%6 != 0 {
		return nil, errors.New("not a sparse selection")
	}
	seg := binary.LittleEndian.Uint64(b)
	idx := make([]uint16, 0, (len(b)-8)/6)
	vals := make([]float32, 0, cap(idx))
	for e := b[8:]; len(e) > 0; e = e[6:] {
		idx = append(idx, binary.LittleEndian.Uint16(e))
		vals = append(vals, math.Float32frombits(binary.LittleEndian.Uint32(e[2:])))
	}
	return protocol.NewSparseData(src, dst, seg, idx, vals), nil
}

// sparseWire frames a selection as the fuzzer's script carries it.
func sparseWire(from byte, seg uint64, idx []uint16, vals []float32) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{0, from, fuzzSparseToS}, seg)
	for i := range idx {
		b = binary.LittleEndian.AppendUint16(b, idx[i])
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(vals[i]))
	}
	b[0] = byte(len(b) - 3)
	return b
}

// FuzzEngineHandle: the engine is total on wire bytes. Whatever
// datagrams arrive, from members or strangers, it never panics, every
// emission is a live frame handed over exactly once, and the
// accelerator holds no more partial segments than distinct segments
// were fed.
func FuzzEngineHandle(f *testing.F) {
	ctl := func(from byte, a protocol.Action, v []byte) []byte {
		return wire(from, &protocol.Packet{ToS: protocol.ToSControl, Action: a, Value: v})
	}
	seg := func(from byte, tagged uint64, vals ...float32) []byte {
		return wire(from, &protocol.Packet{ToS: protocol.ToSData, Seg: tagged, Data: vals})
	}
	cat := func(frames ...[]byte) (out []byte) {
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	join := func(from byte) []byte { return ctl(from, protocol.ActionJoin, protocol.JoinValue(8)) }
	r1 := protocol.TagSeg(1, 0)
	f.Add(cat(join(0), join(1), seg(0, r1, 1, 2), seg(1, r1, 3, 4), ctl(0, protocol.ActionHelp, protocol.HelpValue(r1))))
	f.Add(cat(join(0), join(1), seg(0, r1, 1, 2), seg(0, r1, 1, 2), ctl(1, protocol.ActionHelp, protocol.HelpValue(r1)), ctl(1, protocol.ActionLeave, nil)))
	f.Add(cat(join(0), ctl(0, protocol.ActionSetH, protocol.SetHValue(3)), seg(0, 5, 1), seg(2, 5, 1, 2, 3), ctl(2, protocol.ActionFBcast, nil), ctl(0, protocol.ActionReset, nil)))
	f.Add(cat(ctl(3, protocol.ActionJoin, protocol.JoinValueScheme(8, protocol.CompTopK)), seg(3, 0), ctl(3, protocol.ActionHalt, nil), ctl(3, protocol.Action(200), []byte{1, 2, 3})))
	f.Add(cat(ctl(0, protocol.ActionJoin, protocol.JoinValueScheme(8, protocol.CompInt32Block)), seg(0, 0, 1), ctl(0, protocol.ActionHelp, []byte{9}), []byte{2, 0, 0x99, 1, 2}))
	// H = 1 completes a segment at index 2^47: its emission must not size
	// the shadow's slot array (TestShadowBoundedPastCap).
	f.Add(cat(join(0), seg(0, farSeg, 1, 2), ctl(0, protocol.ActionHelp, protocol.HelpValue(farSeg))))
	// A top-k selection indexing past its segment's span, then a good
	// one (TestTopKIndexOutsideSpanRefused).
	topk := ctl(3, protocol.ActionJoin, protocol.JoinValueScheme(8, protocol.CompTopK))
	f.Add(cat(topk, sparseWire(3, 0, []uint16{10}, []float32{1}), sparseWire(3, 0, []uint16{2, 7}, []float32{1, 2})))

	f.Fuzz(func(t *testing.T, script []byte) {
		self := protocol.AddrFrom(10, 0, 0, 1, 9990)
		e := New(self, &discard{t: t, self: self})
		e.SetDedup(true)
		fed := map[uint64]bool{}
		for len(script) >= 3 {
			n, from := int(script[0]), script[1]
			script = script[2:]
			if n+1 > len(script) {
				n = len(script) - 1
			}
			src := protocol.AddrFrom(10, 0, 0, 2+from%4, 7000)
			var pkt *protocol.Packet
			var err error
			if script[0] == fuzzSparseToS {
				pkt, err = sparseFrame(src, self, script[1:1+n])
			} else {
				pkt, err = protocol.UnmarshalPayload(src, self, script[0], script[1:1+n])
			}
			script = script[1+n:]
			if err != nil {
				continue // the transport drops what does not parse
			}
			if pkt.IsData() {
				fed[pkt.Seg] = true
			}
			e.Handle(pkt, false)
			if p := e.Accelerator().Pending(); p > len(fed) {
				t.Fatalf("accelerator holds %d partial segments after %d distinct ones were fed", p, len(fed))
			}
			if m := e.Membership().Count(); m > 4 {
				t.Fatalf("%d members from 4 sources", m)
			}
		}
	})
}

// A top-k selection whose index lies past its segment's span of the
// model is refused like a frame under the wrong scheme, not summed (the
// scatter-add used to panic the switch), and the segment still
// completes from good selections.
func TestTopKIndexOutsideSpanRefused(t *testing.T) {
	self := protocol.AddrFrom(10, 0, 0, 1, 9990)
	e := New(self, &discard{t: t, self: self})
	w := protocol.AddrFrom(10, 0, 0, 2, 7000)
	join := protocol.NewControl(w, self, protocol.ActionJoin, protocol.JoinValueScheme(8, protocol.CompTopK))
	e.Handle(join, false)
	for _, bad := range []*protocol.Packet{
		protocol.NewSparseData(w, self, 0, []uint16{10}, []float32{1}),
		protocol.NewSparseData(w, self, 1, []uint16{0}, []float32{1}), // segment 1 lies past an 8-value model
		{Src: w, Dst: self, ToS: protocol.ToSData, Enc: protocol.CompTopK, Idx: []uint16{1, 2}, Data: []float32{1}},
	} {
		e.Handle(bad, false)
	}
	if e.EncMismatchDrops != 3 || e.Accelerator().Pending() != 0 {
		t.Fatalf("%d refused, %d segments pending; want 3 and none", e.EncMismatchDrops, e.Accelerator().Pending())
	}
	e.Handle(protocol.NewSparseData(w, self, 0, []uint16{7}, []float32{2}), false)
	if e.EncMismatchDrops != 3 || e.Accelerator().Stats().PacketsOut != 1 {
		t.Fatalf("an in-span selection was not summed: %d refused, %d emitted",
			e.EncMismatchDrops, e.Accelerator().Stats().PacketsOut)
	}
}
