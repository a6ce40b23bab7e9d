// Package transport runs the iSwitch protocol over real UDP sockets.
//
// The discrete-event simulation (internal/netsim, internal/switchnet)
// produces the paper's timing results; this package proves the protocol
// is wire-real: cmd/iswitchd is a software emulation of the in-switch
// aggregator that sums genuine UDP datagrams from worker processes,
// exactly as the NetFPGA data plane does in hardware. Both ends are the
// simulation's own protocol engines (internal/engine) behind a socket:
// Switch drives engine.Engine, the switch side, and Client drives
// engine.Client, the worker side with its Help timer, as the simulated
// switch and worker drive them in virtual time; what the Client adds is
// the socket and the error a round the timer gave up on returns.
//
// Because a portable UDP socket cannot set the IP ToS byte per packet,
// the ToS tag travels as the first byte of the UDP payload; the rest of
// the payload is the standard iSwitch framing (protocol.MarshalPayload).
//
// A datagram leaves no garbage. Each one is decoded into a pooled frame
// (a pooled header over a pooled payload buffer) that its consumer
// releases: the switch's engine after Handle, the client's engine after
// assembling or dropping the frame. Client.Aggregate returns the client
// engine's own assembled vector, and Dial sizes it and both retained
// gradients. A steady-state round therefore allocates nothing
// (TestUDPSteadyStateAllocFree).
//
// fp32 sums follow datagram arrival order: the switch adds
// contributions in the order it takes them, and under ServeN(k > 1)
// that order is a race between readers. A sum is reproducible only
// when every partial sum is exact, as with 2^-8-grid gradients or
// TestAggregateMultiReader's integers. int32block's saturating integer
// sum would be order-free (Yuan et al., FPISA, on what in-switch float
// addition can promise), but the wire carries CompNone only until the
// payload codec learns the other schemes.
package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"iswitch/internal/engine"
	"iswitch/internal/protocol"
)

// maxDatagram bounds a received datagram: ToS byte + Seg + full payload.
const maxDatagram = 1 + protocol.SegFieldLen + 4*protocol.FloatsPerPacket + 64

// Encode frames a packet for UDP transport: [ToS][payload].
func Encode(p *protocol.Packet) ([]byte, error) {
	return appendEncoded(nil, p)
}

// appendEncoded appends the UDP framing of p to dst, so per-packet send
// paths can reuse one scratch buffer instead of allocating.
func appendEncoded(dst []byte, p *protocol.Packet) ([]byte, error) {
	dst = append(dst, p.ToS)
	return protocol.AppendPayload(dst, p)
}

// Decode parses a UDP datagram produced by Encode into a pooled frame
// the caller releases; nothing in it aliases datagram. src/dst describe
// the UDP endpoints (the kernel owns the real headers).
func Decode(src, dst protocol.Addr, datagram []byte) (*protocol.Packet, error) {
	if len(datagram) < 1 {
		return nil, fmt.Errorf("transport: empty datagram")
	}
	return protocol.UnmarshalPayload(src, dst, datagram[0], datagram[1:])
}

// addrOf converts a UDP endpoint into the protocol's 4-byte address; ok
// is false for anything but IPv4.
func addrOf(ap netip.AddrPort) (a protocol.Addr, ok bool) {
	ip := ap.Addr().Unmap()
	if !ip.Is4() {
		return a, false
	}
	return protocol.Addr{IP: ip.As4(), Port: ap.Port()}, true
}

// Switch is the software in-switch aggregator: the UDP driver of the
// same engine the simulated iSwitch runs (internal/engine), so control
// actions, aggregation, round-tagged shadow slots and targeted Help are
// one implementation. A datagram's source endpoint is its protocol
// address, and every datagram is addressed to the switch.
type Switch struct {
	conn *net.UDPConn
	self protocol.Addr // the bound endpoint, stamped as every inbound Dst

	mu     sync.Mutex
	eng    *engine.Engine // entered one datagram at a time, under mu
	encBuf []byte         // Forward's scratch, guarded by mu
}

// switchRecvBuf asks the kernel for a deep socket receive queue: a full
// fan-in of gradient bursts arrives back-to-back, and the default buffer
// (often 208 KiB) drops the tail of even one 4 MB model's worth.
const switchRecvBuf = 4 << 20

// ListenSwitch starts an aggregator on addr (e.g. "127.0.0.1:0"). The
// socket is IPv4: the protocol's addresses are.
func ListenSwitch(addr string) (*Switch, error) {
	ua, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp4", ua)
	if err != nil {
		return nil, err
	}
	// Best-effort: the OS clamps to its rmem limit; the clamped value
	// still beats the default.
	_ = conn.SetReadBuffer(switchRecvBuf)
	s := &Switch{conn: conn}
	s.self, _ = addrOf(conn.LocalAddr().(*net.UDPAddr).AddrPort())
	s.eng = engine.New(s.self, (*driver)(s))
	// UDP workers retransmit on loss; dedup keeps that idempotent and
	// lets a Help go only to the members still missing.
	s.eng.SetDedup(true)
	return s, nil
}

// Addr returns the bound UDP address.
func (s *Switch) Addr() string { return s.conn.LocalAddr().String() }

// Close shuts the socket down, terminating Serve.
func (s *Switch) Close() error { return s.conn.Close() }

// Serve processes datagrams until the socket closes. Run it on its own
// goroutine; it returns nil after Close.
func (s *Switch) Serve() error { return s.ServeN(1) }

// ServeN drains the socket with workers reader goroutines sharing the
// bound socket (reads are safe for concurrent use; the kernel hands
// each datagram to exactly one reader). Extra readers keep the socket
// queue short while a handler holds the switch mutex for an aggregation.
// With more than one reader, fp32 sums follow the order in which the
// readers win the mutex, not the socket's: they are exact only when
// every partial sum is (see the package doc). Blocks until the socket
// closes, then returns nil.
func (s *Switch) ServeN(workers int) error {
	if workers <= 1 {
		s.serveLoop(make([]byte, maxDatagram))
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One reusable receive buffer per reader: Decode copies
			// the datagram into a pooled frame, so reads never allocate.
			s.serveLoop(make([]byte, maxDatagram))
		}()
	}
	wg.Wait()
	return nil
}

func (s *Switch) serveLoop(buf []byte) {
	for {
		n, from, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return // closed
		}
		src, ok := addrOf(from)
		if !ok || src == s.self {
			continue // not IPv4, or forged: the switch sends itself nothing
		}
		// Decode copies Value/Data into a pooled frame, so buf can be
		// reused for the next read without a defensive copy.
		pkt, err := Decode(src, s.self, buf[:n])
		if err != nil {
			continue
		}
		s.mu.Lock()
		s.handle(pkt)
		s.mu.Unlock()
	}
}

// handle gives one decoded datagram to the engine, which releases every
// iSwitch frame (each is addressed to the switch); regular traffic has
// nowhere to go and is released here. The one rule of the wire's own:
// AppendPayload serialises CompNone only, so a Join that negotiates
// another scheme is refused here; an admitted job whose emissions
// cannot be written would wedge.
func (s *Switch) handle(pkt *protocol.Packet) {
	if pkt.IsControl() && pkt.Action == protocol.ActionJoin {
		if _, scheme, err := protocol.ParseJoinScheme(pkt.Value); err == nil && scheme != protocol.CompNone {
			s.eng.ControlIn++
			(*driver)(s).Forward(protocol.NewControl(s.self, pkt.Src, protocol.ActionAck, protocol.AckFail), pkt.Src)
			pkt.Release()
			return
		}
	}
	if !s.eng.Handle(pkt, false) {
		pkt.Release()
	}
}

// driver is the Switch as its engine sees it (engine.Driver), kept off
// the Switch's own method set because the engine only runs under mu. A
// frame is written to its destination endpoint and released; the switch
// is a root, and the accelerator's modelled latency is not waited out.
type driver Switch

func (d *driver) Forward(pkt *protocol.Packet, dst protocol.Addr) {
	if buf, err := appendEncoded(d.encBuf[:0], pkt); err == nil {
		d.encBuf = buf[:0]
		_, _ = d.conn.WriteToUDPAddrPort(buf, netip.AddrPortFrom(netip.AddrFrom4(dst.IP), dst.Port))
	}
	pkt.Release()
}
func (d *driver) SendUp(pkt *protocol.Packet)      { pkt.Release() }
func (d *driver) Now() time.Duration               { return time.Duration(time.Now().UnixNano()) }
func (d *driver) After(_ time.Duration, fn func()) { fn() }

// Members reports the current membership size.
func (s *Switch) Members() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Membership().Count()
}

// Counters returns a consistent snapshot of the activity counters
// (safe to call while Serve is running): data datagrams aggregated,
// aggregates broadcast, and every control datagram received.
func (s *Switch) Counters() (dataIn, broadcasts, controlIn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.DataIn, s.eng.Broadcasts, s.eng.ControlIn
}

// Client is a worker-side handle: it joins a switch and aggregates
// gradient vectors through it. It is the UDP driver of the client
// engine the simulated worker also runs (engine.Client), which tags
// every segment with its round, retains this round's and the previous
// round's gradient, answers Helps for either, reassembles the broadcast
// and keeps the Help timer's rule; the Client adds the socket, the
// deadline and the error a lost round returns. A Client is
// single-goroutine: send and recv share scratch buffers.
type Client struct {
	conn            *net.UDPConn
	n               int
	eng             engine.Client
	encBuf, recvBuf []byte
	err             error // the first failed write the caller has not yet seen
	// Timeout bounds each wait for an Ack and is the Help timer's base
	// in Aggregate, which reads it at every call.
	Timeout time.Duration
}

// giveUpAfter is how many Help-timer expiries with no share of the
// aggregate make Aggregate fail: two Help rounds, so a round survives
// one lost Help.
const giveUpAfter = 3

// Dial connects to a switch for vectors of modelFloats elements. The
// assembler and both retained gradients are sized here, so a round
// allocates nothing.
func Dial(switchAddr string, modelFloats int) (*Client, error) {
	ua, err := net.ResolveUDPAddr("udp4", switchAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp4", nil, ua)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, n: modelFloats, recvBuf: make([]byte, maxDatagram), Timeout: 5 * time.Second}
	// The socket is connected: every frame goes to the switch, and
	// neither end's protocol address travels on the wire.
	rec := engine.Recovery{Timeout: c.Timeout, GiveUpAfter: giveUpAfter}
	c.eng.Init((*sender)(c), protocol.Addr{}, protocol.Addr{}, 0, modelFloats, 0, protocol.CompNone, rec)
	c.eng.Reserve()
	return c, nil
}

// Close releases the socket.
func (c *Client) Close() error { return c.conn.Close() }

// send frames and writes one packet.
func (c *Client) send(pkt *protocol.Packet) error {
	buf, err := appendEncoded(c.encBuf[:0], pkt)
	if err != nil {
		return err
	}
	c.encBuf = buf[:0]
	_, err = c.conn.Write(buf)
	return err
}

// sender is the Client as its engine sees it (engine.Sender): a frame
// is written to the switch and released. The first failed write is kept
// for the caller (sent), and the frames after it are not written.
type sender Client

func (s *sender) Send(pkt *protocol.Packet) {
	if s.err == nil {
		s.err = (*Client)(s).send(pkt)
	}
	pkt.Release()
}

// SendTrain makes and writes an upload's frames one at a time.
func (s *sender) SendTrain(t *engine.Train) { t.SendEach(s) }

// sent returns, and clears, the first failed write since its last call.
func (c *Client) sent() error {
	err := c.err
	c.err = nil
	return err
}

// recv reads one packet, waiting at most wait. The packet is a pooled
// frame the caller releases.
func (c *Client) recv(wait time.Duration) (*protocol.Packet, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
		return nil, err
	}
	n, err := c.conn.Read(c.recvBuf)
	if err != nil {
		return nil, err
	}
	return Decode(protocol.Addr{}, protocol.Addr{}, c.recvBuf[:n])
}

// awaitAck waits for the Ack of the control action just sent, skipping
// whatever else is still in flight (a late broadcast share, a Help).
func (c *Client) awaitAck(what string) error {
	if err := c.sent(); err != nil {
		return err
	}
	for {
		pkt, err := c.recv(c.Timeout)
		if err != nil {
			return fmt.Errorf("transport: %s: %w", what, err)
		}
		ack, ok := engine.AckOf(pkt)
		pkt.Release()
		if ack {
			if !ok {
				return fmt.Errorf("transport: %s rejected", what)
			}
			return nil
		}
	}
}

// Join registers with the switch and waits for the Ack.
func (c *Client) Join() error {
	c.eng.Join()
	return c.awaitAck("join")
}

// SetH issues a SetH control action and waits for the Ack.
func (c *Client) SetH(h uint32) error {
	(*sender)(c).Send(protocol.NewControl(protocol.Addr{}, protocol.Addr{}, protocol.ActionSetH, protocol.SetHValue(h)))
	return c.awaitAck("SetH")
}

// Aggregate contributes grad and blocks until the aggregated sum
// arrives. Each expiry of the client engine's Help timer sends one Help
// per missing segment, and the giveUpAfter-th with no share fails the
// round: the switch answers from the round's shadow slot when only the
// broadcast was lost, and otherwise relays the Help to exactly the
// members whose contribution it is missing (this one included), who
// resend. Helps for this round or the previous one are answered; every
// other frame of another round is dropped unread.
//
// The sum is the client's assembled vector, not a copy: it stays valid
// until this client's next Aggregate overwrites it (the core.Service
// contract). A caller that keeps a sum across rounds copies it.
func (c *Client) Aggregate(grad []float32) ([]float32, error) {
	if len(grad) != c.n {
		return nil, fmt.Errorf("transport: gradient len %d, want %d", len(grad), c.n)
	}
	c.eng.Recovery.Timeout = c.Timeout
	c.eng.Upload(grad, -1)
	if err := c.sent(); err != nil {
		return nil, err
	}
	c.eng.Expect()
	for !c.eng.Complete() {
		pkt, err := c.recv(c.eng.Wait())
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			if v, _, _ := c.eng.Expire(); v == engine.GiveUp {
				return nil, fmt.Errorf("transport: aggregate: %w", err)
			}
		} else if err != nil {
			return nil, fmt.Errorf("transport: aggregate: %w", err)
		} else {
			c.eng.Take(pkt)
		}
		if err := c.sent(); err != nil {
			return nil, err
		}
	}
	return c.eng.Finish(), nil
}
