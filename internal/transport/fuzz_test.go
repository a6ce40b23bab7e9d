package transport

import (
	"bytes"
	"math"
	"testing"

	"iswitch/internal/protocol"
)

// FuzzDecodeDatagram: Decode is total on arbitrary [ToS][payload]
// bytes. Each input is refused with an error and no frame, or yields a
// pooled frame that owns everything it carries: the receive buffer can
// be overwritten at once, a data or control frame that Encode accepts
// re-encodes to the input bit for bit, and one Release returns it all
// (the header comes back cleared, and the payload buffer, whose only
// reference was the frame's, is poisoned by the package's TestMain).
func FuzzDecodeDatagram(f *testing.F) {
	enc := func(p *protocol.Packet) []byte {
		b, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	ctl := func(a protocol.Action, v []byte) []byte {
		return enc(&protocol.Packet{ToS: protocol.ToSControl, Action: a, Value: v})
	}
	data := func(seg uint64, vals ...float32) []byte {
		return enc(&protocol.Packet{ToS: protocol.ToSData, Seg: seg, Data: vals})
	}
	f.Add(ctl(protocol.ActionJoin, protocol.JoinValue(10_005)))
	f.Add(ctl(protocol.ActionJoin, protocol.JoinValueScheme(100, protocol.CompInt32Block)))
	f.Add(ctl(protocol.ActionHelp, protocol.HelpValue(protocol.TagSeg(3, 1))))
	f.Add(ctl(protocol.ActionAck, protocol.AckOK))
	f.Add(ctl(protocol.ActionReset, nil))
	f.Add(ctl(protocol.Action(200), []byte("longer than inline")))
	f.Add(data(protocol.TagSeg(1, 0), 1.5, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1))))
	f.Add(data(7))
	f.Add(data(protocol.TagSeg(2, 27), make([]float32, protocol.FloatsPerPacket)...))
	f.Add([]byte{})
	f.Add([]byte{protocol.ToSControl})
	f.Add([]byte{protocol.ToSData, 1, 2, 3})
	f.Add(append(data(1, 2), 9))
	f.Add([]byte{protocol.ToSRegular, 1, 2, 3})

	f.Fuzz(func(t *testing.T, datagram []byte) {
		buf := append([]byte(nil), datagram...)
		pkt, err := Decode(protocol.Addr{}, protocol.Addr{}, buf)
		if err != nil {
			if pkt != nil {
				t.Fatalf("Decode returned a frame with its error %v", err)
			}
			return
		}
		for i := range buf {
			buf[i] = 0xA5 // the receive buffer's next datagram
		}
		if pkt.IsISwitch() {
			if out, err := Encode(pkt); err == nil && !bytes.Equal(out, datagram) {
				t.Fatalf("decoded and re-encoded as %x, want %x", out, datagram)
			}
		}
		data := pkt.Data
		pkt.Release()
		if pkt.IsISwitch() || pkt.Data != nil || pkt.Value != nil {
			t.Fatalf("Release left the header as it was: %+v", pkt)
		}
		for i, v := range data {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("element %d still reads %v after the frame's release: its payload was not the frame's alone", i, v)
			}
		}
	})
}
