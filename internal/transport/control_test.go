package transport

import (
	"net"
	"testing"
	"time"

	"iswitch/internal/protocol"
)

// sendControl fires a raw control packet from a client's socket.
func sendControl(t *testing.T, c *Client, action protocol.Action, value []byte) {
	t.Helper()
	if err := c.send(&protocol.Packet{ToS: protocol.ToSControl, Action: action, Value: value}); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveOverUDP(t *testing.T) {
	sw := startSwitch(t)
	a, _ := Dial(sw.Addr(), 10)
	defer a.Close()
	b, _ := Dial(sw.Addr(), 10)
	defer b.Close()
	if err := a.Join(); err != nil {
		t.Fatal(err)
	}
	if err := b.Join(); err != nil {
		t.Fatal(err)
	}
	if sw.Members() != 2 {
		t.Fatalf("members = %d", sw.Members())
	}
	sendControl(t, b, protocol.ActionLeave, nil)
	ack, err := b.recv(b.Timeout)
	if err != nil || ack.Action != protocol.ActionAck || ack.Value[0] != 1 {
		t.Fatalf("leave ack: %+v %v", ack, err)
	}
	if sw.Members() != 1 {
		t.Fatalf("members after leave = %d", sw.Members())
	}
	// Leaving twice is refused.
	sendControl(t, b, protocol.ActionLeave, nil)
	ack, err = b.recv(b.Timeout)
	if err != nil || ack.Value[0] != 0 {
		t.Fatalf("second leave should nack: %+v %v", ack, err)
	}
	// The remaining worker aggregates alone (auto-H followed the leave).
	sum, err := a.Aggregate(make([]float32, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != 10 {
		t.Fatalf("aggregate len %d", len(sum))
	}
}

func TestHaltOverUDP(t *testing.T) {
	sw := startSwitch(t)
	a, _ := Dial(sw.Addr(), 10)
	defer a.Close()
	b, _ := Dial(sw.Addr(), 10)
	defer b.Close()
	_ = a.Join()
	_ = b.Join()
	sendControl(t, a, protocol.ActionHalt, nil)

	gotHalt := func(c *Client) bool {
		c.Timeout = 2 * time.Second
		for {
			pkt, err := c.recv(c.Timeout)
			if err != nil {
				return false
			}
			if pkt.IsControl() && pkt.Action == protocol.ActionHalt {
				return true
			}
		}
	}
	if !gotHalt(a) || !gotHalt(b) {
		t.Fatal("halt not delivered to all members")
	}
}

func TestFBcastOverUDP(t *testing.T) {
	sw := startSwitch(t)
	a, _ := Dial(sw.Addr(), 4)
	defer a.Close()
	b, _ := Dial(sw.Addr(), 4)
	defer b.Close()
	_ = a.Join()
	_ = b.Join()
	// One partial contribution, then force-broadcast.
	if err := a.send(protocol.NewData(protocol.Addr{}, protocol.Addr{}, 0, []float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	sendControl(t, b, protocol.ActionFBcast, nil)

	a.Timeout = 2 * time.Second
	for {
		pkt, err := a.recv(a.Timeout)
		if err != nil {
			t.Fatal("partial broadcast never arrived")
		}
		if pkt.IsData() {
			if pkt.Seg != 0 || pkt.Data[0] != 1 {
				t.Fatalf("partial = %+v", pkt)
			}
			return
		}
	}
}

func TestResetOverUDP(t *testing.T) {
	sw := startSwitch(t)
	a, _ := Dial(sw.Addr(), 4)
	defer a.Close()
	b, _ := Dial(sw.Addr(), 4)
	defer b.Close()
	_ = a.Join()
	_ = b.Join() // H=2, so one contribution stays partial
	_ = a.send(protocol.NewData(protocol.Addr{}, protocol.Addr{}, 0, []float32{9, 9, 9, 9}))
	time.Sleep(100 * time.Millisecond)
	sendControl(t, a, protocol.ActionReset, nil)
	ack, err := a.recv(a.Timeout)
	if err != nil || ack.Action != protocol.ActionAck || ack.Value[0] != 1 {
		t.Fatalf("reset ack: %+v %v", ack, err)
	}
	// After the wipe, a full H=2 round must produce a clean sum with no
	// trace of the 9s.
	done := make(chan []float32, 1)
	go func() {
		sum, err := b.Aggregate([]float32{2, 2, 2, 2})
		if err != nil {
			t.Error(err)
		}
		done <- sum
	}()
	sumA, err := a.Aggregate([]float32{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	for _, v := range sumA {
		if v != 3 {
			t.Fatalf("stale state after reset: %v", sumA)
		}
	}
}

func TestBadJoinRejectedOverUDP(t *testing.T) {
	sw := startSwitch(t)
	c, _ := Dial(sw.Addr(), 10)
	defer c.Close()
	sendControl(t, c, protocol.ActionJoin, []byte{1, 2}) // malformed
	ack, err := c.recv(c.Timeout)
	if err != nil || ack.Action != protocol.ActionAck || ack.Value[0] != 0 {
		t.Fatalf("malformed join should nack: %+v %v", ack, err)
	}
	if sw.Members() != 0 {
		t.Fatalf("members = %d", sw.Members())
	}
}

// A 2-byte Ack datagram decodes to an empty Value; Join and SetH must
// report it as a rejection, not index into it. A raw UDP socket plays
// the switch and answers every datagram with the short Ack.
func TestShortAckRejectedNotPanics(t *testing.T) {
	fake, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			_, from, err := fake.ReadFromUDP(buf)
			if err != nil {
				return // socket closed: the test is over
			}
			fake.WriteToUDP([]byte{protocol.ToSControl, byte(protocol.ActionAck)}, from)
		}
	}()
	defer func() {
		fake.Close()
		<-done
	}()

	c, err := Dial(fake.LocalAddr().String(), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Join(); err == nil {
		t.Error("Join accepted an Ack with no value byte")
	}
	if err := c.SetH(2); err == nil {
		t.Error("SetH accepted an Ack with no value byte")
	}
}
