package engine

import (
	"testing"
	"time"

	"iswitch/internal/protocol"
)

// discard is a driver that delivers nothing: it checks each emission is
// a live frame of this switch's making and lets go of it at once, so a
// header forwarded twice arrives cleared and a payload released twice
// panics in protocol.
type discard struct {
	t    *testing.T
	self protocol.Addr
}

func (d *discard) Forward(p *protocol.Packet) {
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
			pkt, err := protocol.UnmarshalPayload(src, self, script[0], script[1:1+n])
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
