package transport

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"iswitch/internal/protocol"
)

// lossyRelay is a UDP hop between one client and the switch that loses
// the datagrams a predicate picks, so a test can lose chosen frames on
// real sockets: the client dials the relay, the relay forwards to the
// switch from a socket of its own, and the switch's answers go back to
// the client. drop runs under the relay's lock, once per datagram, with
// up set for the client-to-switch direction.
type lossyRelay struct {
	front, back *net.UDPConn
	wg          sync.WaitGroup

	mu     sync.Mutex
	drop   func(up bool, p *protocol.Packet) bool
	client netip.AddrPort
}

func startRelay(t *testing.T, sw *Switch, drop func(up bool, p *protocol.Packet) bool) *lossyRelay {
	t.Helper()
	front, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ua, err := net.ResolveUDPAddr("udp4", sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	back, err := net.DialUDP("udp4", nil, ua)
	if err != nil {
		t.Fatal(err)
	}
	r := &lossyRelay{front: front, back: back, drop: drop}
	r.wg.Add(2)
	go r.pump(true)
	go r.pump(false)
	t.Cleanup(func() {
		front.Close()
		back.Close()
		r.wg.Wait()
	})
	return r
}

// Addr is where the client dials.
func (r *lossyRelay) Addr() string { return r.front.LocalAddr().String() }

// pump forwards one direction, datagram by datagram, until its socket
// closes. The client's endpoint is learnt from its first datagram, a
// Join, before the switch has anything to send back.
func (r *lossyRelay) pump(up bool) {
	defer r.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		var n int
		var from netip.AddrPort
		var err error
		if up {
			n, from, err = r.front.ReadFromUDPAddrPort(buf)
		} else {
			n, err = r.back.Read(buf)
		}
		if err != nil {
			return // closed
		}
		p, err := Decode(protocol.Addr{}, protocol.Addr{}, buf[:n])
		if err != nil {
			continue
		}
		r.mu.Lock()
		if up {
			r.client = from
		}
		lost, client := r.drop(up, p), r.client
		r.mu.Unlock()
		p.Release()
		switch {
		case lost:
		case up:
			_, _ = r.back.Write(buf[:n])
		default:
			_, _ = r.front.WriteToUDPAddrPort(buf[:n], client)
		}
	}
}

// dialJoined dials addr for n-float vectors and joins.
func dialJoined(t *testing.T, addr string, n int) *Client {
	t.Helper()
	c, err := Dial(addr, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	return c
}

// lossModel is three segments, the last one short.
const lossModel = 2*protocol.FloatsPerPacket + 7

// intGrad is a gradient of small integers, whose fp32 sums are exact in
// any order.
func intGrad(base int) []float32 {
	g := make([]float32, lossModel)
	for i := range g {
		g[i] = float32(base + i%13)
	}
	return g
}

// A round survives a lost Help. Client A loses its first copy of the
// broadcast share of segment 1 and then its first Help for it; its
// second Help, one backoff level later, is served from the switch's
// shadow slot, and both workers hold the exact sum. A client that sent
// one round of Helps and then failed lost this round.
func TestRoundSurvivesLostHelp(t *testing.T) {
	sw := startSwitch(t)
	var shareLost, helpLost bool
	relay := startRelay(t, sw, func(up bool, p *protocol.Packet) bool {
		switch {
		case !up && p.IsData() && protocol.SegIndex(p.Seg) == 1 && !shareLost:
			shareLost = true
			return true
		case up && p.IsControl() && p.Action == protocol.ActionHelp && !helpLost:
			helpLost = true
			return true
		}
		return false
	})
	a := dialJoined(t, relay.Addr(), lossModel)
	a.Timeout = 50 * time.Millisecond
	b := dialJoined(t, sw.Addr(), lossModel)

	ga, gb := intGrad(1), intGrad(1000)
	want := make([]float32, lossModel)
	for i := range want {
		want[i] = ga[i] + gb[i]
	}
	type result struct {
		sum []float32
		err error
	}
	bDone := make(chan result, 1)
	go func() {
		s, err := b.Aggregate(gb)
		bDone <- result{s, err}
	}()
	// B's upload is at the switch before A starts its round, so A's
	// first timeout can only be the lost share.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if in, _, _ := sw.Counters(); in == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("B's upload never reached the switch")
		}
	}
	sumA, err := a.Aggregate(ga)
	if err != nil {
		t.Fatalf("A: %v", err)
	}
	if !sameBits(sumA, want) {
		t.Fatalf("A: wrong sum, first element %v want %v", sumA[0], want[0])
	}
	rb := <-bDone
	if rb.err != nil || !sameBits(rb.sum, want) {
		t.Fatalf("B: err %v or a wrong sum", rb.err)
	}
	relay.mu.Lock()
	lost := shareLost && helpLost
	relay.mu.Unlock()
	sw.mu.Lock()
	served := sw.eng.HelpServed
	sw.mu.Unlock()
	if !lost || served != 1 {
		t.Fatalf("share lost %v, Help lost %v, Helps served from the shadow slot %d; want true, true, 1",
			shareLost, helpLost, served)
	}
}

// A round whose peer never uploads is given up: Aggregate fails with
// the receive timeout after two Help rounds, once three expiries of the
// backed-off timer (50, 100 and 200 ms, each plus at most a quarter in
// jitter) brought no share of the sum, and within 2 s of wall time.
func TestRoundGivesUp(t *testing.T) {
	sw := startSwitch(t)
	a := dialJoined(t, sw.Addr(), lossModel)
	a.Timeout = 50 * time.Millisecond
	peer := dialRaw(t, sw)
	peer.join(lossModel)

	start := time.Now()
	_, err := a.Aggregate(intGrad(1))
	took := time.Since(start)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Aggregate with a silent peer: %v, want a receive timeout", err)
	}
	if took < 350*time.Millisecond || took > 2*time.Second {
		t.Fatalf("gave up after %v, want between 350 ms and 2 s", took)
	}
	// Two Joins, then two rounds of one Help per segment.
	if _, _, control := sw.Counters(); control != 2+2*3 {
		t.Fatalf("%d control datagrams at the switch, want 8", control)
	}
}
