package transport

import (
	"math"
	"net"
	"testing"
	"time"

	"iswitch/internal/protocol"
)

// rawWorker is a worker played by hand over a bare socket: the test
// decides what it sends, in which round, and which frames it "loses".
type rawWorker struct {
	t    *testing.T
	conn *net.UDPConn
	buf  []byte
}

func dialRaw(t *testing.T, sw *Switch) *rawWorker {
	t.Helper()
	ua, err := net.ResolveUDPAddr("udp4", sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp4", nil, ua)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawWorker{t: t, conn: conn, buf: make([]byte, maxDatagram)}
}

func (w *rawWorker) send(p *protocol.Packet) {
	w.t.Helper()
	b, err := Encode(p)
	if err != nil {
		w.t.Fatal(err)
	}
	if _, err := w.conn.Write(b); err != nil {
		w.t.Fatal(err)
	}
}

// recv returns the next frame; a frame that never comes fails the test
// instead of hanging it.
func (w *rawWorker) recv() *protocol.Packet {
	w.t.Helper()
	w.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := w.conn.Read(w.buf)
	if err != nil {
		w.t.Fatalf("raw worker: %v", err)
	}
	p, err := Decode(protocol.Addr{}, protocol.Addr{}, w.buf[:n])
	if err != nil {
		w.t.Fatal(err)
	}
	return p
}

func (w *rawWorker) control(action protocol.Action, value []byte) {
	w.send(&protocol.Packet{ToS: protocol.ToSControl, Action: action, Value: value})
}

func (w *rawWorker) join(n int) {
	w.t.Helper()
	w.control(protocol.ActionJoin, protocol.JoinValue(uint64(n)))
	if ack := w.recv(); ack.Action != protocol.ActionAck || len(ack.Value) != 1 || ack.Value[0] != 1 {
		w.t.Fatalf("join ack: %+v", ack)
	}
}

// sendSeg uploads segment seg of grad under round's tag.
func (w *rawWorker) sendSeg(round, seg uint64, grad []float32) {
	lo, hi := protocol.SegmentRange(len(grad), seg)
	w.send(&protocol.Packet{ToS: protocol.ToSData, Seg: protocol.TagSeg(round, seg), Data: grad[lo:hi]})
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// The PR 12 wrong sum, replayed by hand. Round 1 completes at the
// switch and worker A loses its broadcast; B goes on to round 2 and
// uploads; A, still in round 1, sends Help for a segment and resends
// its round-1 contribution. Without round tags and shadow slots the
// switch relayed the Help to B and summed A's round-1 segment into B's
// round-2 slot, so both got A₁+B₂. With them A is served round 1's sum
// from the shadow slot, nobody is asked to resend, and round 2 is
// exact once A contributes to it.
func TestStalledHelpNeverMixesRounds(t *testing.T) {
	sw := startSwitch(t)
	const n = protocol.FloatsPerPacket + 5 // two segments
	const segs = 2
	grad := func(base float32) []float32 {
		g := make([]float32, n)
		for i := range g {
			g[i] = base + float32(i%11)
		}
		return g
	}
	sum := func(x, y []float32) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = x[i] + y[i]
		}
		return s
	}
	a1, b1, a2, b2 := grad(1), grad(1000), grad(30), grad(5000)

	b, err := Dial(sw.Addr(), n)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Join(); err != nil {
		t.Fatal(err)
	}
	a := dialRaw(t, sw)
	a.join(n)

	type result struct {
		sum []float32
		err error
	}
	aggregate := func(g []float32) <-chan result {
		ch := make(chan result, 1)
		go func() {
			s, err := b.Aggregate(g)
			ch <- result{s, err}
		}()
		return ch
	}
	bGot := func(ch <-chan result, round int, want []float32) {
		t.Helper()
		r := <-ch
		if r.err != nil {
			t.Fatalf("B round %d: %v", round, r.err)
		}
		if !sameBits(r.sum, want) {
			t.Fatalf("B round %d: wrong sum, first element %v want %v", round, r.sum[0], want[0])
		}
	}

	// Round 1 completes; A's copies of the broadcast are "lost".
	res := aggregate(b1)
	for s := uint64(0); s < segs; s++ {
		a.sendSeg(1, s, a1)
	}
	bGot(res, 1, sum(a1, b1))
	for s := 0; s < segs; s++ {
		if p := a.recv(); !p.IsData() {
			t.Fatalf("A expected a round-1 share, got %+v", p)
		}
	}

	// B is in round 2 and its upload is at the switch.
	res = aggregate(b2)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if in, _, _ := sw.Counters(); in == 3*segs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("B's round-2 upload never reached the switch")
		}
	}

	// A, stalled in round 1, asks for segment 0 and resends its own.
	a.control(protocol.ActionHelp, protocol.HelpValue(protocol.TagSeg(1, 0)))
	a.sendSeg(1, 0, a1)
	got := a.recv()
	if want := sum(a1, b1)[:protocol.FloatsPerPacket]; !got.IsData() || got.Seg != protocol.TagSeg(1, 0) || !sameBits(got.Data, want) {
		t.Fatalf("A's Help was answered with %v seg %#x first element %v; want round 1's sum %v from the shadow slot",
			got.Action, got.Seg, got.Data[:1], want[0])
	}

	// A catches up; round 2 is round 2's sum for both.
	for s := uint64(0); s < segs; s++ {
		a.sendSeg(2, s, a2)
	}
	want2 := sum(a2, b2)
	bGot(res, 2, want2)
	for i := 0; i < segs; i++ {
		p := a.recv()
		s := protocol.SegIndex(p.Seg)
		lo, hi := protocol.SegmentRange(n, s)
		if !p.IsData() || p.Seg != protocol.TagSeg(2, s) || !sameBits(p.Data, want2[lo:hi]) {
			t.Fatalf("A round 2: frame %+v is not round 2's sum of segment %d", p, s)
		}
	}

	sw.mu.Lock()
	served, relayed, targeted := sw.eng.HelpServed, sw.eng.HelpRelayed, sw.eng.HelpTargeted
	sw.mu.Unlock()
	if served != 1 || relayed != 0 || targeted != 0 {
		t.Fatalf("Help served from shadow %d times, relayed %d, targeted %d; want 1, 0, 0 (no Help may reach B)",
			served, relayed, targeted)
	}
}

// The wire serialises CompNone only, so a Join negotiating any other
// scheme is refused at the door, counted like every control datagram,
// and admits nobody.
func TestCompressedJoinRefusedOverUDP(t *testing.T) {
	sw := startSwitch(t)
	w := dialRaw(t, sw)
	for _, scheme := range []protocol.Compression{protocol.CompFP16, protocol.CompInt32Block, protocol.CompTopK} {
		w.control(protocol.ActionJoin, protocol.JoinValueScheme(100, scheme))
		if ack := w.recv(); ack.Action != protocol.ActionAck || len(ack.Value) != 1 || ack.Value[0] != 0 {
			t.Fatalf("%v Join: want AckFail, got %+v", scheme, ack)
		}
	}
	w.control(protocol.ActionJoin, protocol.JoinValueScheme(100, protocol.CompNone))
	if ack := w.recv(); ack.Action != protocol.ActionAck || len(ack.Value) != 1 || ack.Value[0] != 1 {
		t.Fatalf("CompNone scheme Join: want AckOK, got %+v", ack)
	}
	if _, _, control := sw.Counters(); control != 4 || sw.Members() != 1 {
		t.Fatalf("control-in %d members %d, want 4 and 1", control, sw.Members())
	}
}

// SetH waits for its Ack past whatever else is still in flight; a late
// broadcast share used to make it report a rejection.
func TestSetHSkipsNonAckFrames(t *testing.T) {
	sw := startSwitch(t)
	c, err := Dial(sw.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	// H = 1: this contribution completes and its share is queued at the
	// client's socket ahead of the SetH Ack.
	c.eng.Upload([]float32{1, 2, 3, 4}, -1)
	if err := c.sent(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetH(1); err != nil {
		t.Fatalf("SetH behind a broadcast share: %v", err)
	}
}
