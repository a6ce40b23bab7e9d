package engine_test

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"iswitch/internal/engine"
	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
	"iswitch/internal/transport"
)

// One engine, three drivers: a scripted frame sequence is fed straight
// into an engine behind a recording driver, through a simulated star
// fabric, and through a real UDP switch on loopback, one sender at a
// time. What each worker is sent, frame by frame, must be the same in
// all three: the drivers decide where and when, never what.

const scriptWorkers = 4

// step is one frame of the script: worker from sends what build makes
// of the addresses a driver gave it.
type step struct {
	name  string
	from  int
	build func(src, dst protocol.Addr) *protocol.Packet
}

func ctl(name string, from int, action protocol.Action, value []byte) step {
	return step{name, from, func(src, dst protocol.Addr) *protocol.Packet {
		return &protocol.Packet{Src: src, Dst: dst, ToS: protocol.ToSControl, Action: action, Value: value}
	}}
}

func data(from int, round, seg uint64) step {
	vals := make([]float32, 4)
	for i := range vals {
		vals[i] = float32(100*int(round) + 10*(from+1) + i)
	}
	tagged := protocol.TagSeg(round, seg)
	return step{fmt.Sprintf("w%d data r%d s%d", from, round, seg), from, func(src, dst protocol.Addr) *protocol.Packet {
		return &protocol.Packet{Src: src, Dst: dst, ToS: protocol.ToSData, Seg: tagged, Data: vals}
	}}
}

func help(from int, round, seg uint64) step {
	return ctl(fmt.Sprintf("w%d help r%d s%d", from, round, seg), from,
		protocol.ActionHelp, protocol.HelpValue(protocol.TagSeg(round, seg)))
}

func script() []step {
	var s []step
	for w := 0; w < scriptWorkers; w++ {
		s = append(s, ctl(fmt.Sprintf("w%d join", w), w, protocol.ActionJoin, protocol.JoinValue(8)))
	}
	// Round 1: a full round of two segments.
	for seg := uint64(0); seg < 2; seg++ {
		for w := 0; w < scriptWorkers; w++ {
			s = append(s, data(w, 1, seg))
		}
	}
	// Round 2: worker 3's uplink frame is lost. A duplicate is dropped,
	// worker 0's Help is relayed to worker 3 alone, whose resend
	// completes the segment; worker 1 lost its copy of the broadcast and
	// is re-served from the shadow slot.
	s = append(s, data(0, 2, 0), data(1, 2, 0), data(2, 2, 0), data(0, 2, 0),
		help(0, 2, 0), data(3, 2, 0), help(1, 2, 0))
	// Round 3: worker 3 leaves mid-segment; the lowered H releases it.
	s = append(s, data(0, 3, 0), data(1, 3, 0), data(2, 3, 0),
		ctl("w3 leave", 3, protocol.ActionLeave, nil),
		ctl("w3 leave again", 3, protocol.ActionLeave, nil))
	// SetH pins H = 2; then a partial segment is force-broadcast.
	s = append(s, ctl("w0 seth 2", 0, protocol.ActionSetH, protocol.SetHValue(2)),
		data(0, 4, 0), data(1, 4, 0),
		data(0, 5, 0), ctl("w1 fbcast", 1, protocol.ActionFBcast, nil))
	// Malformed values are refused, never applied.
	s = append(s, ctl("w0 seth short", 0, protocol.ActionSetH, []byte{1}),
		ctl("w0 seth zero", 0, protocol.ActionSetH, protocol.SetHValue(0)),
		ctl("w1 join short", 1, protocol.ActionJoin, []byte{1, 2}),
		ctl("w2 help short", 2, protocol.ActionHelp, []byte{7}),
		data(2, 6, 1), ctl("w2 reset", 2, protocol.ActionReset, nil),
		ctl("w2 halt", 2, protocol.ActionHalt, nil))
	// An unknown action from everyone, the departed worker included: the
	// nack is also the sentinel behind which no stray frame may queue.
	for w := 0; w < scriptWorkers; w++ {
		s = append(s, ctl(fmt.Sprintf("w%d unknown", w), w, protocol.Action(200), nil))
	}
	return s
}

// emitted is what the test holds of one frame a worker was sent.
type emitted struct {
	To      int
	ToS     uint8
	Action  protocol.Action
	Seg     uint64
	Enc     protocol.Compression
	Payload string // control value bytes, or the data's float32 bits
}

func observe(to int, p *protocol.Packet) emitted {
	e := emitted{To: to, ToS: p.ToS, Action: p.Action, Seg: p.Seg, Enc: p.Enc}
	if p.IsControl() {
		e.Payload = fmt.Sprintf("%x", p.Value)
	} else {
		for _, f := range p.Data {
			e.Payload += fmt.Sprintf("%08x", math.Float32bits(f))
		}
	}
	return e
}

// recorder is the engine's driver in the direct run.
type recorder struct {
	t      *testing.T
	worker map[protocol.Addr]int
	out    []emitted
}

func (r *recorder) Forward(p *protocol.Packet, dst protocol.Addr) {
	w, ok := r.worker[dst]
	if !ok {
		r.t.Errorf("emission to %v, which is no worker", dst)
	}
	r.out = append(r.out, observe(w, p))
	p.Release()
}
func (r *recorder) SendUp(*protocol.Packet)          { r.t.Error("a root engine sent a frame up") }
func (r *recorder) Now() time.Duration               { return 0 }
func (r *recorder) After(_ time.Duration, fn func()) { fn() }

// runDirect feeds the script straight into an engine and returns, per
// step, the frames emitted, each worker's in order, worker 0's first.
func runDirect(t *testing.T, steps []step) [][]emitted {
	self := protocol.AddrFrom(10, 9, 9, 9, 9990)
	rec := &recorder{t: t, worker: map[protocol.Addr]int{}}
	var workers [scriptWorkers]protocol.Addr
	for w := range workers {
		workers[w] = protocol.AddrFrom(10, 9, 0, byte(w+1), 7000)
		rec.worker[workers[w]] = w
	}
	e := engine.New(self, rec)
	e.SetDedup(true)
	var out [][]emitted
	for _, st := range steps {
		rec.out = nil
		if !e.Handle(st.build(workers[st.from], self), false) {
			t.Fatalf("%s: the engine did not consume a frame addressed to it", st.name)
		}
		sort.SliceStable(rec.out, func(i, j int) bool { return rec.out[i].To < rec.out[j].To })
		out = append(out, rec.out)
	}
	return out
}

func runStar(t *testing.T, steps []step) [][]emitted {
	k := sim.NewKernel()
	defer k.Shutdown()
	f := switchnet.BuildStar(k, scriptWorkers, netsim.TenGbE())
	f.IS.SetDedup(true)
	var out [][]emitted
	for _, st := range steps {
		h := f.Workers[st.from]
		h.Send(st.build(h.Addr, f.IS.Addr()))
		k.Run()
		var got []emitted
		for w, h := range f.Workers {
			for {
				p, ok := h.RX.TryRecv()
				if !ok {
					break
				}
				got = append(got, observe(w, p))
				p.Release()
			}
		}
		out = append(out, got)
	}
	return out
}

// runUDP plays the script from raw sockets against a real switch. After
// each frame it waits until the switch has consumed it, then reads from
// every socket exactly as many frames as the direct run emitted there;
// a frame too many shows as a mismatch at that socket's next read, the
// closing nacks at the latest.
func runUDP(t *testing.T, steps []step, want [][]emitted) [][]emitted {
	sw, err := transport.ListenSwitch("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); _ = sw.Serve() }()
	defer func() { sw.Close(); <-served }()
	ua, err := net.ResolveUDPAddr("udp4", sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var conns [scriptWorkers]*net.UDPConn
	for w := range conns {
		if conns[w], err = net.DialUDP("udp4", nil, ua); err != nil {
			t.Fatal(err)
		}
		defer conns[w].Close()
	}
	buf := make([]byte, 2048)
	var out [][]emitted
	for i, st := range steps {
		b, err := transport.Encode(st.build(protocol.Addr{}, protocol.Addr{}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conns[st.from].Write(b); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
			if in, _, control := sw.Counters(); in+control == uint64(i+1) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: the switch never consumed the frame", st.name)
			}
		}
		var got []emitted
		for _, e := range want[i] {
			conns[e.To].SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conns[e.To].Read(buf)
			if err != nil {
				t.Fatalf("%s: worker %d is owed a frame: %v", st.name, e.To, err)
			}
			p, err := transport.Decode(protocol.Addr{}, protocol.Addr{}, buf[:n])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, observe(e.To, p))
		}
		out = append(out, got)
	}
	return out
}

func TestOneEngineThreeDrivers(t *testing.T) {
	steps := script()
	direct := runDirect(t, steps)

	// The script does what its comments say, by the direct run.
	byName := map[string][]emitted{}
	for i, st := range steps {
		byName[st.name] = direct[i]
	}
	count := func(name string, want int) {
		t.Helper()
		if got := len(byName[name]); got != want {
			t.Fatalf("%s: %d frames emitted, want %d: %+v", name, got, want, byName[name])
		}
	}
	count("w3 data r1 s1", 4) // a full round's broadcast
	count("w0 data r2 s0", 0) // the second copy: a duplicate, dropped
	count("w0 help r2 s0", 2) // Help to worker 3, Ack to worker 0
	count("w3 data r2 s0", 4) // the resend completes the segment
	count("w1 help r2 s0", 1) // re-served from the shadow slot
	count("w3 leave", 4)      // three shares at the lowered H, one Ack
	count("w1 data r4 s0", 3) // H = 2 among three members
	count("w1 fbcast", 4)     // the partial to three members, one Ack
	count("w2 halt", 3)       // Halt to every member
	if e := byName["w0 help r2 s0"]; e[0].Action != protocol.ActionAck || e[1].To != 3 || e[1].Action != protocol.ActionHelp {
		t.Fatalf("targeted Help: %+v", e)
	}
	if e := byName["w1 help r2 s0"][0]; e.To != 1 || e.ToS != protocol.ToSData || e.Seg != protocol.TagSeg(2, 0) {
		t.Fatalf("shadow re-serve: %+v", e)
	}

	for name, got := range map[string][][]emitted{
		"star fabric":  runStar(t, steps),
		"UDP loopback": runUDP(t, steps, direct),
	} {
		for i, st := range steps {
			if len(got[i]) == 0 && len(direct[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got[i], direct[i]) {
				t.Errorf("%s, step %d (%s):\n  got  %+v\n  want %+v", name, i, st.name, got[i], direct[i])
			}
		}
	}
}

// One client engine, two drivers: one script of what a switch sends a
// worker is fed to a bare client engine behind a recording sender, and
// to a transport.Client on loopback that faces a raw scripted switch
// socket. What the worker sends back, frame by frame, must be the same
// in both, and so must the sums it returns.

// clientFloats is three segments, the last one short.
const clientFloats = 2*protocol.FloatsPerPacket + 5

type clientAct int

const (
	actJoin   clientAct = iota // the worker joins
	actAdmit                   // the switch acks the Join
	actUpload                  // the worker starts a round
	actFrame                   // the switch sends a frame mid-round
)

// clientStep is one event of the client script; in builds a fresh copy
// of what the switch sends.
type clientStep struct {
	name  string
	act   clientAct
	round uint64
	in    func() *protocol.Packet
}

// clientGrad is the worker's gradient for a round.
func clientGrad(round uint64) []float32 {
	g := make([]float32, clientFloats)
	for i := range g {
		g[i] = float32(round*1000) + float32(i)
	}
	return g
}

// shareVals is the switch's aggregate of one segment of a round.
func shareVals(round, seg uint64) []float32 {
	lo, hi := protocol.SegmentRange(clientFloats, seg)
	vals := make([]float32, hi-lo)
	for i := range vals {
		vals[i] = float32(100*round+10*seg) + float32(i)/4
	}
	return vals
}

func clientScript() []clientStep {
	ack := func(name string, act clientAct) clientStep {
		return clientStep{name: name, act: act, in: func() *protocol.Packet {
			return protocol.NewControl(protocol.Addr{}, protocol.Addr{}, protocol.ActionAck, protocol.AckOK)
		}}
	}
	upload := func(round uint64) clientStep {
		return clientStep{name: fmt.Sprintf("upload r%d", round), act: actUpload, round: round}
	}
	share := func(round, seg uint64) clientStep {
		return clientStep{fmt.Sprintf("share r%d s%d", round, seg), actFrame, 0, func() *protocol.Packet {
			return protocol.NewPooledData(protocol.Addr{}, protocol.Addr{}, protocol.TagSeg(round, seg), shareVals(round, seg))
		}}
	}
	help := func(round, seg uint64) clientStep {
		return clientStep{fmt.Sprintf("help r%d s%d", round, seg), actFrame, 0, func() *protocol.Packet {
			return protocol.NewHelp(protocol.Addr{}, protocol.Addr{}, protocol.TagSeg(round, seg))
		}}
	}
	s := []clientStep{{name: "join", act: actJoin}, ack("ack", actAdmit)}
	for r := uint64(1); r <= 2; r++ {
		s = append(s, upload(r), share(r, 0), share(r, 1), share(r, 2))
	}
	// Round 3: shares out of order and duplicated, a share of round 2,
	// Helps for this round, the previous one, one two back and a segment
	// outside the model, and a late Ack.
	return append(s, upload(3), share(3, 2), share(3, 2), share(2, 0),
		help(3, 1), help(2, 0), help(1, 0), help(3, 9), ack("late ack", actFrame),
		share(3, 0), share(3, 1))
}

// sendRecorder is the client engine's sender in the direct run.
type sendRecorder struct{ out []emitted }

func (r *sendRecorder) Send(p *protocol.Packet) {
	r.out = append(r.out, observe(0, p))
	p.Release()
}

func (r *sendRecorder) SendTrain(t *engine.Train) { t.SendEach(r) }

// runClientDirect feeds the script straight into a client engine and
// returns, per step, the frames the worker sent, and each round's sum.
func runClientDirect(t *testing.T, steps []clientStep) (out [][]emitted, sums [][]float32) {
	rec := &sendRecorder{}
	var c engine.Client
	c.Init(rec, protocol.AddrFrom(10, 9, 0, 1, 7000), protocol.AddrFrom(10, 9, 9, 9, 9990), 0,
		clientFloats, protocol.FloatsPerPacket, protocol.CompNone, engine.Recovery{Timeout: time.Second})
	for _, st := range steps {
		rec.out = nil
		switch st.act {
		case actJoin:
			c.Join()
		case actAdmit:
			pkt := st.in()
			if ack, ok := engine.AckOf(pkt); !ack || !ok {
				t.Fatalf("%s: not an admitting Ack", st.name)
			}
			pkt.Release()
		case actUpload:
			c.Upload(clientGrad(st.round), -1)
			c.Expect()
		case actFrame:
			c.Take(st.in())
			if c.Complete() {
				sums = append(sums, append([]float32(nil), c.Finish()...))
			}
		}
		out = append(out, rec.out)
	}
	return out, sums
}

// runClientUDP plays the switch's side of the script from a raw socket
// against a transport.Client, which joins and aggregates on its own
// goroutine. After each step it reads exactly as many frames as the
// direct run sent; at the end, nothing more may come.
func runClientUDP(t *testing.T, steps []clientStep, want [][]emitted) (out [][]emitted, sums [][]float32) {
	sw, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	c, err := transport.Dial(sw.LocalAddr().String(), clientFloats)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for _, st := range steps {
		if st.act == actUpload {
			rounds++
		}
	}
	var workerErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		workerErr = c.Join()
		for r := 1; r <= rounds && workerErr == nil; r++ {
			var sum []float32
			if sum, workerErr = c.Aggregate(clientGrad(uint64(r))); workerErr == nil {
				sums = append(sums, append([]float32(nil), sum...))
			}
		}
	}()
	defer func() { c.Close(); <-done }()

	var worker *net.UDPAddr
	buf := make([]byte, 2048)
	for i, st := range steps {
		if st.act == actAdmit || st.act == actFrame {
			pkt := st.in()
			b, err := transport.Encode(pkt)
			pkt.Release()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sw.WriteToUDP(b, worker); err != nil {
				t.Fatal(err)
			}
		}
		var got []emitted
		for range want[i] {
			sw.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, from, err := sw.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("%s: the worker owes a frame: %v", st.name, err)
			}
			worker = from
			p, err := transport.Decode(protocol.Addr{}, protocol.Addr{}, buf[:n])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, observe(0, p))
			p.Release()
		}
		out = append(out, got)
	}
	sw.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, _, err := sw.ReadFromUDP(buf); err == nil {
		p, _ := transport.Decode(protocol.Addr{}, protocol.Addr{}, buf[:n])
		t.Fatalf("the worker sent a frame past the script: %+v", observe(0, p))
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the UDP worker never finished its rounds")
	}
	if workerErr != nil {
		t.Fatalf("the UDP worker: %v", workerErr)
	}
	return out, sums
}

func TestOneClientTwoDrivers(t *testing.T) {
	steps := clientScript()
	direct, directSums := runClientDirect(t, steps)

	// The script does what its comments say, by the direct run.
	byName := map[string][]emitted{}
	for i, st := range steps {
		byName[st.name] = append(byName[st.name], direct[i]...)
	}
	count := func(name string, want int) {
		t.Helper()
		if got := len(byName[name]); got != want {
			t.Fatalf("%s: %d frames sent, want %d: %+v", name, got, want, byName[name])
		}
	}
	count("join", 1)
	count("upload r3", 3)
	count("share r3 s2", 0)
	count("help r3 s1", 1) // this round's segment, resent
	count("help r2 s0", 1) // the previous round's, from the retained copy
	count("help r1 s0", 0) // two rounds back: gone
	count("help r3 s9", 0) // outside the model
	count("late ack", 0)
	if e := byName["help r2 s0"][0]; e.ToS != protocol.ToSData || e.Seg != protocol.TagSeg(2, 0) ||
		e.Payload != observe(0, protocol.NewData(protocol.Addr{}, protocol.Addr{}, 0, clientGrad(2)[:protocol.FloatsPerPacket])).Payload {
		t.Fatalf("previous-round resend: %+v", e)
	}
	if len(directSums) != 3 {
		t.Fatalf("%d rounds completed, want 3", len(directSums))
	}
	for seg := uint64(0); seg < 3; seg++ {
		lo, _ := protocol.SegmentRange(clientFloats, seg)
		if want := shareVals(3, seg); !reflect.DeepEqual(directSums[2][lo:lo+len(want)], want) {
			t.Fatalf("round 3 segment %d: the sum holds something but the round's share", seg)
		}
	}

	udp, udpSums := runClientUDP(t, steps, direct)
	for i, st := range steps {
		if len(udp[i]) == 0 && len(direct[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(udp[i], direct[i]) {
			t.Errorf("UDP loopback, step %d (%s):\n  got  %+v\n  want %+v", i, st.name, udp[i], direct[i])
		}
	}
	if !reflect.DeepEqual(udpSums, directSums) {
		t.Error("the two drivers returned different sums")
	}
}
