package protocol

import "testing"

// FuzzFrameOwnership runs random Share / PooledClone / SetDataCopy /
// Release scripts against a reference counter kept on the side. A frame
// dropped by the network is a Release at the drop site, so the script's
// releases stand for both. Whatever the script, with released payloads
// poisoned:
//
//   - a payload's bytes are intact through every frame that still holds
//     it, until the last of them is released;
//   - a loan goes back to its owner exactly when the count reaches zero,
//     never earlier and never twice;
//   - once every frame is released, every loan is back (no leak).
func FuzzFrameOwnership(f *testing.F) {
	f.Add([]byte{0, 2, 2, 4, 4, 4})
	f.Add([]byte{1, 2, 3, 0x14, 0x24, 4, 0, 0x12, 5, 0x15})
	f.Add([]byte{0, 0x12, 0x22, 0x32, 0x34, 0x24, 0x14, 4, 1, 0x13, 6, 0x16})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256] // the check is quadratic in the script
		}
		poisoned = true
		defer func() { poisoned = false }()

		// One modelled payload per loan or pooled copy; fill is what
		// every element of it must read.
		type modelPayload struct {
			fill   int
			quant  bool
			loan   bool
			refs   int
			rec    *payload
			backed []float32 // the loaned slices, to recognise them coming back
			qback  []int32
		}
		type modelFrame struct {
			pkt *Packet
			pay *modelPayload
		}
		var (
			owner    countingOwner
			payloads []*modelPayload
			frames   []modelFrame
		)
		returned := func(mp *modelPayload) int {
			n := 0
			for _, b := range owner.f32 {
				if !mp.quant && &b[:1][0] == &mp.backed[0] {
					n++
				}
			}
			for _, b := range owner.i32 {
				if mp.quant && &b[:1][0] == &mp.qback[0] {
					n++
				}
			}
			return n
		}
		check := func(step int) {
			for _, fr := range frames {
				mp := fr.pay
				if fr.pkt.pay != mp.rec {
					t.Fatalf("step %d: frame moved to another payload record", step)
				}
				for _, v := range fr.pkt.Data {
					if v != float32(mp.fill) {
						t.Fatalf("step %d: live float payload reads %v, want %d", step, v, mp.fill)
					}
				}
				for _, v := range fr.pkt.QData {
					if v != int32(mp.fill) {
						t.Fatalf("step %d: live quantized payload reads %v, want %d", step, v, mp.fill)
					}
				}
				if len(fr.pkt.Data)+len(fr.pkt.QData) != 4 {
					t.Fatalf("step %d: live frame lost its payload: %+v", step, fr.pkt)
				}
			}
			for _, mp := range payloads {
				if mp.refs > 0 && int(mp.rec.refs) != mp.refs {
					t.Fatalf("step %d: payload counts %d references, model %d", step, mp.rec.refs, mp.refs)
				}
				if !mp.loan {
					continue
				}
				want := 0
				if mp.refs == 0 {
					want = 1
				}
				if got := returned(mp); got != want {
					t.Fatalf("step %d: loan with %d live references came back %d times", step, mp.refs, got)
				}
			}
		}
		add := func(pkt *Packet, mp *modelPayload) {
			mp.refs++
			frames = append(frames, modelFrame{pkt, mp})
		}
		fresh := func(quant, loan bool) *modelPayload {
			mp := &modelPayload{fill: len(payloads) + 1, quant: quant, loan: loan}
			payloads = append(payloads, mp)
			return mp
		}
		release := func(i int) {
			fr := frames[i]
			frames = append(frames[:i], frames[i+1:]...)
			fr.pay.refs--
			fr.pkt.Release()
		}
		for step, b := range script {
			if len(frames) > 64 {
				break
			}
			op, arg := int(b&0x0f)%7, int(b>>4)
			if op >= 2 && len(frames) == 0 {
				continue
			}
			pick := 0
			if len(frames) > 0 {
				pick = arg % len(frames)
			}
			switch op {
			case 0: // a switch emits: payload on loan
				mp := fresh(arg%2 == 1, true)
				pkt := GetPacket()
				pkt.ToS = ToSData
				if mp.quant {
					mp.qback = []int32{int32(mp.fill), int32(mp.fill), int32(mp.fill), int32(mp.fill)}
					pkt.LendQData(mp.qback, &owner)
				} else {
					mp.backed = []float32{float32(mp.fill), float32(mp.fill), float32(mp.fill), float32(mp.fill)}
					pkt.LendData(mp.backed, &owner)
				}
				mp.rec = pkt.pay
				add(pkt, mp)
			case 1: // a pooled copy-in frame
				mp := fresh(false, false)
				v := float32(mp.fill)
				pkt := NewPooledData(Addr{}, Addr{}, uint64(step), []float32{v, v, v, v})
				mp.rec = pkt.pay
				add(pkt, mp)
			case 2:
				add(frames[pick].pkt.Share(), frames[pick].pay)
			case 3: // the deep copy: a payload of its own, same bytes
				src := frames[pick]
				mp := fresh(src.pay.quant, false)
				mp.fill = src.pay.fill
				pkt := src.pkt.PooledClone()
				mp.rec = pkt.pay
				add(pkt, mp)
			case 4, 5: // delivered and consumed, or dropped on the way
				release(pick)
			case 6: // rewritten in place: lets go of what it shared
				fr := &frames[pick]
				if fr.pay.quant {
					continue
				}
				mp := fresh(false, false)
				v := float32(mp.fill)
				fr.pay.refs--
				fr.pkt.SetDataCopy([]float32{v, v, v, v})
				mp.rec, mp.refs, fr.pay = fr.pkt.pay, 1, mp
			}
			check(step)
		}
		for len(frames) > 0 {
			release(len(frames) - 1)
			check(len(script))
		}
	})
}
