package switchnet

import (
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

func testLink() netsim.LinkConfig {
	return netsim.LinkConfig{BitsPerSecond: 8e9, Propagation: time.Microsecond}
}

// join sends a Join from host h and waits for the Ack.
func join(p *sim.Proc, h *netsim.Host, swAddr protocol.Addr, modelFloats uint64, t *testing.T) {
	h.Send(protocol.NewControl(h.Addr, swAddr, protocol.ActionJoin, protocol.JoinValue(modelFloats)))
	ack := h.Recv(p)
	if !ack.IsControl() || ack.Action != protocol.ActionAck || ack.Value[0] != 1 {
		t.Errorf("worker %v: bad join ack %+v", h.Addr, ack)
	}
}

func TestJoinAckAndAutoH(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 3, testLink())
	for _, w := range c.Workers {
		h := w
		k.Spawn("join", func(p *sim.Proc) { join(p, h, c.IS.Addr(), 10, t) })
	}
	k.Run()
	if c.IS.Membership().Count() != 3 {
		t.Fatalf("members = %d", c.IS.Membership().Count())
	}
	if c.IS.Accelerator().Threshold() != 3 {
		t.Fatalf("auto H = %d, want 3", c.IS.Accelerator().Threshold())
	}
}

// runAggregationRound has every worker send its segmented gradient and
// then collect the aggregated broadcast. Returns per-worker results.
func runAggregationRound(t *testing.T, k *sim.Kernel, workers []*netsim.Host,
	swAddr protocol.Addr, grads [][]float32) [][]float32 {
	t.Helper()
	n := len(grads[0])
	results := make([][]float32, len(workers))
	for i, w := range workers {
		i, w := i, w
		k.Spawn("worker", func(p *sim.Proc) {
			join(p, w, swAddr, uint64(n), t)
			p.Sleep(time.Millisecond) // let all joins land so H is final
			for _, pkt := range protocol.Segment(w.Addr, swAddr, grads[i]) {
				w.Send(pkt)
			}
			asm := protocol.NewAssembler(n)
			for !asm.Complete() {
				pkt := w.Recv(p)
				if !pkt.IsData() {
					continue
				}
				if err := asm.Add(pkt); err != nil {
					t.Errorf("worker %d: %v", i, err)
					return
				}
			}
			results[i] = append([]float32(nil), asm.Vector()...)
		})
	}
	k.Run()
	return results
}

func TestStarAggregationBroadcast(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 4, testLink())
	n := protocol.FloatsPerPacket*2 + 13 // 3 segments with a tail
	grads := make([][]float32, 4)
	for w := range grads {
		grads[w] = make([]float32, n)
		for i := range grads[w] {
			grads[w][i] = float32((w + 1) * (i%10 + 1))
		}
	}
	results := runAggregationRound(t, k, c.Workers, c.IS.Addr(), grads)
	for w, res := range results {
		if res == nil {
			t.Fatalf("worker %d got no aggregate", w)
		}
		for i := range res {
			want := float32((1 + 2 + 3 + 4) * (i%10 + 1))
			if res[i] != want {
				t.Fatalf("worker %d elem %d = %v, want %v", w, i, res[i], want)
			}
		}
	}
	if c.IS.Broadcasts != 3 {
		t.Fatalf("broadcasts = %d, want 3 segments", c.IS.Broadcasts)
	}
	if c.IS.Accelerator().Pending() != 0 {
		t.Fatal("partial segments left behind")
	}
}

func TestTreeHierarchicalAggregation(t *testing.T) {
	k := sim.NewKernel()
	c := BuildTreeN(k, 6, 3, testLink(), netsim.LinkConfig{BitsPerSecond: 32e9, Propagation: time.Microsecond})
	n := protocol.FloatsPerPacket + 5
	grads := make([][]float32, 6)
	for w := range grads {
		grads[w] = make([]float32, n)
		for i := range grads[w] {
			grads[w][i] = float32(w + 1)
		}
	}
	// Workers join their own ToR.
	results := make([][]float32, 6)
	for i, w := range c.Workers {
		i, w := i, w
		tor := c.Leaf(i)
		k.Spawn("worker", func(p *sim.Proc) {
			join(p, w, tor.Addr(), uint64(n), t)
			p.Sleep(time.Millisecond)
			for _, pkt := range protocol.Segment(w.Addr, tor.Addr(), grads[i]) {
				w.Send(pkt)
			}
			asm := protocol.NewAssembler(n)
			for !asm.Complete() {
				pkt := w.Recv(p)
				if pkt.IsData() {
					if err := asm.Add(pkt); err != nil {
						t.Errorf("worker %d: %v", i, err)
						return
					}
				}
			}
			results[i] = append([]float32(nil), asm.Vector()...)
		})
	}
	k.Run()
	want := float32(1 + 2 + 3 + 4 + 5 + 6)
	for w, res := range results {
		if res == nil {
			t.Fatalf("worker %d got no aggregate", w)
		}
		for i := range res {
			if res[i] != want {
				t.Fatalf("worker %d elem %d = %v, want %v", w, i, res[i], want)
			}
		}
	}
	// Each ToR forwarded its 2 segments up; root broadcast 2 segments.
	for r, tor := range c.Switches[1:] {
		if tor.UpForwards != 2 {
			t.Fatalf("tor %d upforwards = %d, want 2", r, tor.UpForwards)
		}
	}
	if c.IS.Broadcasts != 2 {
		t.Fatalf("root broadcasts = %d, want 2", c.IS.Broadcasts)
	}
}

func TestSetHOverridesAutoThreshold(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 4, testLink())
	w0 := c.Workers[0]
	k.Spawn("ctl", func(p *sim.Proc) {
		join(p, w0, c.IS.Addr(), 10, t)
		w0.Send(protocol.NewControl(w0.Addr, c.IS.Addr(), protocol.ActionSetH, protocol.SetHValue(2)))
		ack := w0.Recv(p)
		if ack.Action != protocol.ActionAck || ack.Value[0] != 1 {
			t.Errorf("SetH nack: %+v", ack)
		}
	})
	for _, w := range c.Workers[1:] {
		h := w
		k.Spawn("join", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			join(p, h, c.IS.Addr(), 10, t)
		})
	}
	k.Run()
	if got := c.IS.Accelerator().Threshold(); got != 2 {
		t.Fatalf("H = %d, want SetH override 2 (joins re-auto'd it?)", got)
	}
}

func TestResetClearsAccelerator(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 2, testLink())
	w := c.Workers[0]
	k.Spawn("w", func(p *sim.Proc) {
		join(p, w, c.IS.Addr(), 4, t)
		w.Send(protocol.NewData(w.Addr, c.IS.Addr(), 0, []float32{1, 2, 3, 4}))
		p.Sleep(time.Millisecond)
		w.Send(protocol.NewControl(w.Addr, c.IS.Addr(), protocol.ActionReset, nil))
		w.Recv(p) // ack
	})
	k.Run()
	if c.IS.Accelerator().Pending() != 0 {
		t.Fatal("reset did not clear partial segments")
	}
}

func TestFBcastFlushesPartials(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 3, testLink())
	var partial *protocol.Packet
	w0, w1 := c.Workers[0], c.Workers[1]
	k.Spawn("w0", func(p *sim.Proc) {
		join(p, w0, c.IS.Addr(), 4, t)
		p.Sleep(time.Millisecond)
		w0.Send(protocol.NewData(w0.Addr, c.IS.Addr(), 0, []float32{1, 1, 1, 1}))
		p.Sleep(time.Millisecond)
		w0.Send(protocol.NewControl(w0.Addr, c.IS.Addr(), protocol.ActionFBcast, nil))
		for {
			pkt := w0.Recv(p)
			if pkt.IsData() {
				partial = pkt
				return
			}
		}
	})
	k.Spawn("w1", func(p *sim.Proc) { join(p, w1, c.IS.Addr(), 4, t) })
	k.Spawn("w2", func(p *sim.Proc) { join(p, c.Workers[2], c.IS.Addr(), 4, t) })
	k.Run()
	if partial == nil {
		t.Fatal("FBcast produced no broadcast")
	}
	if partial.Seg != 0 || partial.Data[0] != 1 {
		t.Fatalf("partial = %+v", partial)
	}
}

func TestHelpRelayedToOtherWorkers(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 3, testLink())
	gotHelp := make([]bool, 3)
	for i, w := range c.Workers {
		i, w := i, w
		k.Spawn("w", func(p *sim.Proc) {
			join(p, w, c.IS.Addr(), 10, t)
			if i == 0 {
				p.Sleep(time.Millisecond)
				w.Send(protocol.NewControl(w.Addr, c.IS.Addr(), protocol.ActionHelp, protocol.HelpValue(7)))
				return
			}
			for {
				pkt, ok := w.RecvTimeout(p, 10*time.Millisecond)
				if !ok {
					return
				}
				if pkt.IsControl() && pkt.Action == protocol.ActionHelp {
					seg, err := protocol.ParseHelp(pkt.Value)
					if err != nil || seg != 7 {
						t.Errorf("worker %d: bad help %v %v", i, seg, err)
					}
					gotHelp[i] = true
					return
				}
			}
		})
	}
	k.Run()
	if gotHelp[0] {
		t.Fatal("requester received its own Help")
	}
	if !gotHelp[1] || !gotHelp[2] {
		t.Fatalf("help relay = %v", gotHelp)
	}
	if c.IS.HelpRelayed != 1 {
		t.Fatalf("HelpRelayed = %d", c.IS.HelpRelayed)
	}
}

func TestHaltBroadcast(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 2, testLink())
	halted := make([]bool, 2)
	for i, w := range c.Workers {
		i, w := i, w
		k.Spawn("w", func(p *sim.Proc) {
			join(p, w, c.IS.Addr(), 10, t)
			if i == 0 {
				p.Sleep(time.Millisecond)
				w.Send(protocol.NewControl(w.Addr, c.IS.Addr(), protocol.ActionHalt, nil))
			}
			for {
				pkt, ok := w.RecvTimeout(p, 10*time.Millisecond)
				if !ok {
					return
				}
				if pkt.IsControl() && pkt.Action == protocol.ActionHalt {
					halted[i] = true
					return
				}
			}
		})
	}
	k.Run()
	if !halted[0] || !halted[1] {
		t.Fatalf("halt reached %v", halted)
	}
}

func TestRegularTrafficUnaffected(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 2, testLink())
	src, dst := c.Workers[0], c.Workers[1]
	var got *protocol.Packet
	k.Spawn("recv", func(p *sim.Proc) { got = dst.Recv(p) })
	k.Spawn("send", func(p *sim.Proc) {
		src.Send(&protocol.Packet{Src: src.Addr, Dst: dst.Addr, ToS: protocol.ToSRegular})
	})
	k.Run()
	if got == nil || got.ToS != protocol.ToSRegular {
		t.Fatal("regular traffic blocked by iSwitch extension")
	}
	if c.IS.DataIn != 0 || c.IS.ControlIn != 0 {
		t.Fatal("regular traffic hit the accelerator path")
	}
}

func TestBadControlValuesNacked(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 1, testLink())
	w := c.Workers[0]
	var acks []byte
	k.Spawn("w", func(p *sim.Proc) {
		w.Send(protocol.NewControl(w.Addr, c.IS.Addr(), protocol.ActionJoin, []byte{1}))
		acks = append(acks, w.Recv(p).Value[0])
		w.Send(protocol.NewControl(w.Addr, c.IS.Addr(), protocol.ActionSetH, []byte{9, 9, 9}))
		acks = append(acks, w.Recv(p).Value[0])
		w.Send(protocol.NewControl(w.Addr, c.IS.Addr(), protocol.ActionSetH, protocol.SetHValue(0)))
		acks = append(acks, w.Recv(p).Value[0])
	})
	k.Run()
	for i, a := range acks {
		if a != 0 {
			t.Fatalf("bad control %d was acked OK", i)
		}
	}
}

func TestLossRecoveryViaHelp(t *testing.T) {
	// Worker 0's uplink drops its first data packet. After a timeout it
	// sends Help; the other workers retransmit their contribution for
	// that segment, worker 0 retransmits too, and the switch re-aggregates.
	k := sim.NewKernel()
	c := BuildStar(k, 2, testLink())
	n := 4
	grads := [][]float32{{1, 1, 1, 1}, {2, 2, 2, 2}}
	results := make([][]float32, 2)

	for i, w := range c.Workers {
		i, w := i, w
		k.Spawn("worker", func(p *sim.Proc) {
			join(p, w, c.IS.Addr(), uint64(n), t)
			p.Sleep(time.Millisecond)
			if i == 0 {
				w.Port().SetLoss(1.0, 1) // drop the first send
			}
			w.Send(protocol.NewData(w.Addr, c.IS.Addr(), 0, grads[i]))
			if i == 0 {
				w.Port().SetLoss(0, 1)
			}
			asm := protocol.NewAssembler(n)
			for !asm.Complete() {
				pkt, ok := w.RecvTimeout(p, 5*time.Millisecond)
				if !ok {
					// Timed out: request recovery and retransmit our own
					// contribution for the missing segment.
					w.Send(protocol.NewControl(w.Addr, c.IS.Addr(), protocol.ActionHelp, protocol.HelpValue(0)))
					w.Send(protocol.NewData(w.Addr, c.IS.Addr(), 0, grads[i]))
					continue
				}
				if pkt.IsControl() && pkt.Action == protocol.ActionHelp {
					seg, _ := protocol.ParseHelp(pkt.Value)
					lo, hi := protocol.SegmentRange(n, seg)
					w.Send(protocol.NewData(w.Addr, c.IS.Addr(), seg, grads[i][lo:hi]))
					continue
				}
				if pkt.IsData() {
					_ = asm.Add(pkt)
				}
			}
			results[i] = append([]float32(nil), asm.Vector()...)
		})
	}
	k.Run()
	for i, res := range results {
		if res == nil {
			t.Fatalf("worker %d never recovered", i)
		}
		if res[0] != 3 {
			t.Fatalf("worker %d aggregate = %v, want 3s", i, res)
		}
	}
}

func TestHelpServedFromEmissionCache(t *testing.T) {
	// After an aggregate is emitted, a Help for that segment must be
	// answered directly from the switch's emission cache rather than
	// relayed to peers (the requester merely lost its broadcast copy).
	k := sim.NewKernel()
	c := BuildStar(k, 2, testLink())
	var reAnswer *protocol.Packet
	for i := 0; i < 2; i++ {
		i := i
		w := c.Workers[i]
		k.Spawn("w", func(p *sim.Proc) {
			join(p, w, c.IS.Addr(), 4, t)
			p.Sleep(time.Millisecond)
			w.Send(protocol.NewData(w.Addr, c.IS.Addr(), 0, []float32{float32(i + 1), 0, 0, 0}))
			// Drain the broadcast.
			for {
				pkt, ok := w.RecvTimeout(p, 5*time.Millisecond)
				if !ok {
					break
				}
				_ = pkt
			}
			if i == 0 {
				// Pretend the broadcast was lost: ask again.
				w.Send(protocol.NewControl(w.Addr, c.IS.Addr(), protocol.ActionHelp, protocol.HelpValue(0)))
				pkt, ok := w.RecvTimeout(p, 10*time.Millisecond)
				if ok && pkt.IsData() {
					reAnswer = pkt
				}
			}
		})
	}
	k.Run()
	if reAnswer == nil {
		t.Fatal("Help not served from emission cache")
	}
	if reAnswer.Data[0] != 3 {
		t.Fatalf("cached aggregate = %v, want 3", reAnswer.Data[0])
	}
	if c.IS.HelpServed != 1 {
		t.Fatalf("HelpServed = %d", c.IS.HelpServed)
	}
	if c.IS.HelpRelayed != 0 {
		t.Fatalf("cache hit still relayed (%d)", c.IS.HelpRelayed)
	}
}
