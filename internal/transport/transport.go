// Package transport runs the iSwitch protocol over real UDP sockets.
//
// The discrete-event simulation (internal/netsim, internal/switchnet)
// produces the paper's timing results; this package proves the protocol
// is wire-real: cmd/iswitchd is a software emulation of the in-switch
// aggregator that sums genuine UDP datagrams from worker processes,
// exactly as the NetFPGA data plane does in hardware.
//
// Because a portable UDP socket cannot set the IP ToS byte per packet,
// the ToS tag travels as the first byte of the UDP payload; the rest of
// the payload is the standard iSwitch framing (protocol.MarshalPayload).
package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"iswitch/internal/accel"
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

// Decode parses a UDP datagram produced by Encode. src/dst describe the
// UDP endpoints (the kernel owns the real headers).
func Decode(src, dst protocol.Addr, datagram []byte) (*protocol.Packet, error) {
	if len(datagram) < 1 {
		return nil, fmt.Errorf("transport: empty datagram")
	}
	return protocol.UnmarshalPayload(src, dst, datagram[0], datagram[1:])
}

// udpToAddr converts a net.UDPAddr into the protocol's 4-byte address.
func udpToAddr(a *net.UDPAddr) protocol.Addr {
	var out protocol.Addr
	if ip4 := a.IP.To4(); ip4 != nil {
		copy(out.IP[:], ip4)
	}
	out.Port = uint16(a.Port)
	return out
}

// Switch is the software in-switch aggregator: a UDP server that runs
// the same control-plane actions and data-plane aggregation as the
// simulated iSwitch.
type Switch struct {
	conn *net.UDPConn
	acc  *accel.Accelerator

	mu      sync.Mutex
	members map[string]*net.UDPAddr // key: addr.String()
	order   []string                // join order for deterministic broadcast
	autoH   bool
	encBuf  []byte // sendLocked scratch, guarded by mu

	// Stats (read under mu).
	DataIn, Broadcasts, ControlIn uint64
}

// switchRecvBuf asks the kernel for a deep socket receive queue: a full
// fan-in of gradient bursts arrives back-to-back, and the default buffer
// (often 208 KiB) drops the tail of even one 4 MB model's worth.
const switchRecvBuf = 4 << 20

// ListenSwitch starts an aggregator on addr (e.g. "127.0.0.1:0").
func ListenSwitch(addr string) (*Switch, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	// Best-effort: the OS clamps to its rmem limit; the clamped value
	// still beats the default.
	_ = conn.SetReadBuffer(switchRecvBuf)
	cfg := accel.DefaultConfig()
	acc := accel.New(cfg)
	// UDP workers retransmit on loss; dedup keeps that idempotent.
	acc.SetDedup(true)
	return &Switch{
		conn:    conn,
		acc:     acc,
		members: make(map[string]*net.UDPAddr),
		autoH:   true,
	}, nil
}

// Addr returns the bound UDP address.
func (s *Switch) Addr() string { return s.conn.LocalAddr().String() }

// Close shuts the socket down, terminating Serve.
func (s *Switch) Close() error { return s.conn.Close() }

// Serve processes datagrams until the socket closes. Run it on its own
// goroutine; it returns nil after Close.
func (s *Switch) Serve() error { return s.ServeN(1) }

// ServeN drains the socket with workers reader goroutines sharing the
// bound socket (ReadFromUDP is safe for concurrent use; the kernel hands
// each datagram to exactly one reader). Extra readers keep the socket
// queue short while a handler holds the switch mutex for an aggregation.
// Blocks until the socket closes, then returns nil.
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
			// One reusable receive buffer per reader: the handlers copy
			// what they keep, so reads never allocate.
			s.serveLoop(make([]byte, maxDatagram))
		}()
	}
	wg.Wait()
	return nil
}

func (s *Switch) serveLoop(buf []byte) {
	for {
		n, peer, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return // closed
		}
		// Decode copies Value/Data out of the datagram, so buf can be
		// reused for the next read without a defensive copy.
		pkt, err := Decode(udpToAddr(peer), protocol.Addr{}, buf[:n])
		if err != nil {
			continue
		}
		switch {
		case pkt.IsControl():
			s.handleControl(pkt, peer)
		case pkt.IsData():
			s.handleData(pkt, peer)
		}
	}
}

func (s *Switch) handleControl(pkt *protocol.Packet, peer *net.UDPAddr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ControlIn++
	switch pkt.Action {
	case protocol.ActionJoin:
		if _, err := protocol.ParseJoin(pkt.Value); err != nil {
			s.ackLocked(peer, false)
			return
		}
		key := peer.String()
		if _, ok := s.members[key]; !ok {
			s.members[key] = peer
			s.order = append(s.order, key)
		}
		if s.autoH {
			_ = s.acc.SetThreshold(uint32(len(s.members)))
		}
		s.ackLocked(peer, true)
	case protocol.ActionLeave:
		key := peer.String()
		if _, ok := s.members[key]; ok {
			delete(s.members, key)
			for i, k := range s.order {
				if k == key {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
			if s.autoH && len(s.members) > 0 {
				_ = s.acc.SetThreshold(uint32(len(s.members)))
			}
			s.ackLocked(peer, true)
			return
		}
		s.ackLocked(peer, false)
	case protocol.ActionReset:
		s.acc.Reset()
		s.ackLocked(peer, true)
	case protocol.ActionSetH:
		h, err := protocol.ParseSetH(pkt.Value)
		if err != nil || s.acc.SetThreshold(h) != nil {
			s.ackLocked(peer, false)
			return
		}
		s.autoH = false
		s.ackLocked(peer, true)
	case protocol.ActionFBcast:
		for _, seg := range s.acc.PendingSegs() {
			if sum, _, ok := s.acc.Flush(seg); ok {
				s.broadcastLocked(seg, sum)
				s.acc.Recycle(sum)
			}
		}
		s.ackLocked(peer, true)
	case protocol.ActionHelp:
		// Relay to every other member; they retransmit their segment.
		for _, key := range s.order {
			if key == peer.String() {
				continue
			}
			out := &protocol.Packet{ToS: protocol.ToSControl,
				Action: protocol.ActionHelp, Value: pkt.Value}
			s.sendLocked(s.members[key], out)
		}
	case protocol.ActionHalt:
		for _, key := range s.order {
			out := &protocol.Packet{ToS: protocol.ToSControl, Action: protocol.ActionHalt}
			s.sendLocked(s.members[key], out)
		}
	default:
		s.ackLocked(peer, false)
	}
}

func (s *Switch) handleData(pkt *protocol.Packet, peer *net.UDPAddr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.DataIn++
	sum, done, _ := s.acc.IngestFrom(pkt.Seg, peer.String(), pkt.Data)
	if done {
		s.broadcastLocked(pkt.Seg, sum)
		// The broadcast serialized sum onto the wire; hand the buffer
		// back to the accelerator's pool.
		s.acc.Recycle(sum)
	}
}

func (s *Switch) broadcastLocked(seg uint64, sum []float32) {
	s.Broadcasts++
	out := &protocol.Packet{ToS: protocol.ToSData, Seg: seg, Data: sum}
	for _, key := range s.order {
		s.sendLocked(s.members[key], out)
	}
}

func (s *Switch) ackLocked(peer *net.UDPAddr, ok bool) {
	v := protocol.AckOK
	if !ok {
		v = protocol.AckFail
	}
	s.sendLocked(peer, &protocol.Packet{ToS: protocol.ToSControl,
		Action: protocol.ActionAck, Value: v})
}

func (s *Switch) sendLocked(peer *net.UDPAddr, pkt *protocol.Packet) {
	buf, err := appendEncoded(s.encBuf[:0], pkt)
	if err != nil {
		return
	}
	s.encBuf = buf[:0]
	_, _ = s.conn.WriteToUDP(buf, peer)
}

// Members reports the current membership size.
func (s *Switch) Members() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}

// Counters returns a consistent snapshot of the activity counters
// (safe to call while Serve is running).
func (s *Switch) Counters() (dataIn, broadcasts, controlIn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.DataIn, s.Broadcasts, s.ControlIn
}

// Client is a worker-side handle: it joins a switch and aggregates
// gradient vectors through it. A Client is single-goroutine: send and
// recv share scratch buffers.
type Client struct {
	conn    *net.UDPConn
	n       int
	asm     *protocol.Assembler
	encBuf  []byte
	recvBuf []byte
	// Timeout bounds each receive while collecting an aggregate.
	Timeout time.Duration
}

// Dial connects to a switch for vectors of modelFloats elements.
func Dial(switchAddr string, modelFloats int) (*Client, error) {
	ua, err := net.ResolveUDPAddr("udp", switchAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, n: modelFloats,
		asm:     protocol.NewAssembler(modelFloats),
		recvBuf: make([]byte, maxDatagram),
		Timeout: 5 * time.Second}, nil
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

// sendSegment frames and writes segment seg of grad. The pooled header
// is spent once its bytes are encoded.
func (c *Client) sendSegment(seg uint64, grad []float32) error {
	lo, hi := protocol.SegmentRange(c.n, seg)
	pkt := protocol.NewData(protocol.Addr{}, protocol.Addr{}, seg, grad[lo:hi])
	err := c.send(pkt)
	pkt.Release()
	return err
}

// recv reads one packet with the client timeout.
func (c *Client) recv() (*protocol.Packet, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(c.Timeout)); err != nil {
		return nil, err
	}
	n, err := c.conn.Read(c.recvBuf)
	if err != nil {
		return nil, err
	}
	return Decode(protocol.Addr{}, protocol.Addr{}, c.recvBuf[:n])
}

// Join registers with the switch and waits for the Ack.
func (c *Client) Join() error {
	if err := c.send(&protocol.Packet{ToS: protocol.ToSControl,
		Action: protocol.ActionJoin, Value: protocol.JoinValue(uint64(c.n))}); err != nil {
		return err
	}
	for {
		pkt, err := c.recv()
		if err != nil {
			return fmt.Errorf("transport: join: %w", err)
		}
		if pkt.IsControl() && pkt.Action == protocol.ActionAck {
			if len(pkt.Value) != 1 || pkt.Value[0] != 1 {
				return fmt.Errorf("transport: join rejected")
			}
			return nil
		}
	}
}

// SetH issues a SetH control action and waits for the Ack.
func (c *Client) SetH(h uint32) error {
	if err := c.send(&protocol.Packet{ToS: protocol.ToSControl,
		Action: protocol.ActionSetH, Value: protocol.SetHValue(h)}); err != nil {
		return err
	}
	pkt, err := c.recv()
	if err != nil {
		return err
	}
	if !pkt.IsControl() || pkt.Action != protocol.ActionAck || len(pkt.Value) != 1 || pkt.Value[0] != 1 {
		return fmt.Errorf("transport: SetH rejected")
	}
	return nil
}

// Aggregate contributes grad and blocks until the aggregated sum
// arrives. Lost broadcasts trigger one Help-based retransmission round
// before failing.
func (c *Client) Aggregate(grad []float32) ([]float32, error) {
	if len(grad) != c.n {
		return nil, fmt.Errorf("transport: gradient len %d, want %d", len(grad), c.n)
	}
	for seg := uint64(0); seg < uint64(protocol.SegmentCount(c.n)); seg++ {
		if err := c.sendSegment(seg, grad); err != nil {
			return nil, err
		}
	}
	c.asm.Reset()
	helped := false
	for !c.asm.Complete() {
		pkt, err := c.recv()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !helped {
				// Request recovery: peers (and we) retransmit the
				// missing segments' contributions.
				helped = true
				for _, seg := range c.asm.Missing() {
					if err := c.send(&protocol.Packet{ToS: protocol.ToSControl,
						Action: protocol.ActionHelp, Value: protocol.HelpValue(seg)}); err != nil {
						return nil, err
					}
					if err := c.sendSegment(seg, grad); err != nil {
						return nil, err
					}
				}
				continue
			}
			return nil, fmt.Errorf("transport: aggregate: %w", err)
		}
		switch {
		case pkt.IsData():
			if err := c.asm.Add(pkt); err != nil {
				continue
			}
		case pkt.IsControl() && pkt.Action == protocol.ActionHelp:
			seg, err := protocol.ParseHelp(pkt.Value)
			if err != nil || seg >= uint64(protocol.SegmentCount(c.n)) {
				continue
			}
			if err := c.sendSegment(seg, grad); err != nil {
				return nil, err
			}
		}
	}
	return append([]float32(nil), c.asm.Vector()...), nil
}
