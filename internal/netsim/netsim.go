// Package netsim is a packet-level network simulator built on the
// discrete-event kernel in internal/sim.
//
// It models hosts with NICs, full-duplex point-to-point links with
// bandwidth, propagation delay and per-packet overhead, and
// store-and-forward switches with per-direction egress serialization —
// enough fidelity that the iSwitch paper's hop-count and contention
// arguments (central parameter-server bottleneck, AllReduce's 4N−4
// hops, iSwitch's 2 hops) emerge from the model rather than being
// asserted.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// LinkConfig describes one full-duplex link.
type LinkConfig struct {
	// BitsPerSecond is the line rate (e.g. 10e9 for 10GbE).
	BitsPerSecond float64
	// Propagation is the one-way signal delay.
	Propagation time.Duration
	// PerPacketOverhead is added to each packet's serialization time to
	// model NIC/DMA/kernel per-packet cost on the transmitting side.
	PerPacketOverhead time.Duration
}

// TenGbE returns the paper's worker-link configuration: 10 Gb/s with
// sub-microsecond propagation and a small per-packet host cost.
func TenGbE() LinkConfig {
	return LinkConfig{BitsPerSecond: 10e9, Propagation: 500 * time.Nanosecond,
		PerPacketOverhead: 300 * time.Nanosecond}
}

// FortyGbE returns an aggregation/core uplink configuration (paper §3.4:
// higher levels run 40–100 Gb/s).
func FortyGbE() LinkConfig {
	return LinkConfig{BitsPerSecond: 40e9, Propagation: 500 * time.Nanosecond,
		PerPacketOverhead: 300 * time.Nanosecond}
}

// SerializationTime returns how long a frame of n bytes occupies the
// transmitter.
func (c LinkConfig) SerializationTime(bytes int) time.Duration {
	return time.Duration(float64(bytes*8)/c.BitsPerSecond*float64(time.Second)) +
		c.PerPacketOverhead
}

// Deliverable receives fully arrived frames from a port.
type Deliverable interface {
	// Deliver is called in kernel context when a frame has completely
	// arrived on port.
	Deliver(pkt *protocol.Packet, on *Port)
}

// Port is one endpoint of a link: it owns the egress serialization state
// for its transmit direction.
type Port struct {
	k     *sim.Kernel
	name  string
	cfg   LinkConfig
	owner Deliverable
	peer  *Port

	// wire holds the frames in flight toward peer, in transmit order.
	// busyUntil never decreases and propagation is constant, so arrival
	// times are monotone per port: the link is a FIFO and needs one
	// pending kernel event (its head's), however long the burst. Made on
	// the first Send, so wiring a fabric costs what it did without it.
	wire      *sim.FIFO[*protocol.Packet]
	busyUntil sim.Time
	// trains holds the train frames in flight (SendTrain): a nil item
	// on wire is the next of them, made as it arrives.
	trains trainQueue

	lossRate float64
	lossRNG  *rand.Rand

	// Fault-injection state (FaultPlan): outage windows during which
	// every frame serialized on this direction is discarded, and one-shot
	// ordinal drops (the Nth transmitted frame vanishes — a surgical way
	// to lose exactly one contribution or broadcast).
	downWindows []downWindow
	dropNth     map[uint64]struct{}

	// shaper, when set, gates job-tagged frames through per-job token
	// buckets before they may start serializing — how a tenant's weight
	// bounds its share of this egress direction. Job 0 frames bypass the
	// shaper entirely, so legacy single-tenant traffic is untouched.
	shaper Shaper

	// Trace, when set, observes this port's traffic: called with "tx"
	// when serialization starts, "rx" on delivery to the peer, and
	// "drop" when loss injection discards a frame.
	Trace func(at sim.Time, kind string, pkt *protocol.Packet)

	// Stats
	TxPackets, RxPackets uint64
	TxBytes, RxBytes     uint64
	Dropped              uint64
	// Policed counts frames refused by the egress shaper — dropped
	// before serialization, so they appear in no Tx counter.
	Policed uint64

	// jobTx attributes transmitted bytes to the training job tagged on
	// each frame. Only nonzero job IDs are metered (job 0 is the
	// unmetered single-tenant default), so legacy ports never allocate
	// it.
	jobTx jobLedger
}

// TxBytesByJob returns the bytes this port transmitted for one job
// (nonzero IDs only; job 0 traffic is not metered per job).
func (p *Port) TxBytesByJob(job protocol.JobID) uint64 { return p.jobTx.of(job) }

// jobLedger counts bytes per job ID: bytes[i] belongs to job first+i.
// It spans the lowest to the highest ID counted, so a port that carries
// one job keeps one counter, and counting a frame is an index, never a
// hash.
type jobLedger struct {
	first protocol.JobID
	bytes []uint64
}

func (l *jobLedger) add(job protocol.JobID, n uint64) {
	i := int(job) - int(l.first)
	if uint(i) >= uint(len(l.bytes)) {
		i = l.grow(job)
	}
	l.bytes[i] += n
}

// grow widens the ledger to cover job, in one allocation, and returns
// job's index.
func (l *jobLedger) grow(job protocol.JobID) int {
	if len(l.bytes) == 0 {
		l.first = job
	}
	lo := min(int(job), int(l.first))
	hi := max(int(job), int(l.first)+len(l.bytes)-1)
	bytes := make([]uint64, hi-lo+1)
	copy(bytes[int(l.first)-lo:], l.bytes)
	l.first, l.bytes = protocol.JobID(lo), bytes
	return int(job) - lo
}

func (l *jobLedger) of(job protocol.JobID) uint64 {
	if i := int(job) - int(l.first); uint(i) < uint(len(l.bytes)) {
		return l.bytes[i]
	}
	return 0
}

// Name returns the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Peer returns the port at the other end of the link.
func (p *Port) Peer() *Port { return p.peer }

// SetLoss makes this transmit direction drop packets at the given rate,
// deterministically for a given seed. Used to exercise the Help/FBcast
// recovery path.
func (p *Port) SetLoss(rate float64, seed int64) {
	p.lossRate = rate
	p.lossRNG = rand.New(rand.NewSource(seed))
}

// SetDownWindow schedules a link outage on this transmit direction:
// frames whose serialization starts in [from, until) are dropped.
// Multiple windows may be stacked.
func (p *Port) SetDownWindow(from, until sim.Time) {
	p.downWindows = append(p.downWindows, downWindow{from, until})
}

// DropNth marks one-shot drops by transmit ordinal: the nth frame
// (1-based, counted by TxPackets) ever sent on this direction is lost.
func (p *Port) DropNth(ns ...uint64) {
	if p.dropNth == nil {
		p.dropNth = make(map[uint64]struct{}, len(ns))
	}
	for _, n := range ns {
		p.dropNth[n] = struct{}{}
	}
}

// Shaper is the egress rate-limiting hook (perfmodel.EgressShaper
// implements it): Admit decides at virtual time now whether a frame of
// n wire bytes from job may transmit. A refusal polices the frame — it
// is dropped at egress before consuming any link time, exactly like a
// hardware policer. Policing rather than delaying matters because the
// port has a single FIFO: queuing an over-rate tenant's backlog would
// head-of-line block every compliant tenant behind it.
type Shaper interface {
	Admit(now sim.Time, job uint16, n int) bool
}

// SetShaper installs (or clears, with nil) the egress shaper on this
// transmit direction.
func (p *Port) SetShaper(s Shaper) { p.shaper = s }

// Config returns the link configuration this port serializes under —
// what a shaper needs to convert a weight into an absolute rate.
func (p *Port) Config() LinkConfig { return p.cfg }

type downWindow struct{ from, until sim.Time }

func (p *Port) isDown(at sim.Time) bool {
	for _, w := range p.downWindows {
		if at >= w.from && at < w.until {
			return true
		}
	}
	return false
}

// Send serializes pkt onto the link. If the transmitter is busy the
// packet queues behind in-flight frames (FIFO), which is how contention
// at a hot link (e.g. the parameter server's downlink) manifests.
func (p *Port) Send(pkt *protocol.Packet) {
	now := p.k.Now()
	arrive, ok := p.transmit(now, pkt.WireLen(), pkt.Job, pkt)
	if !ok {
		pkt.Release() // policed and dropped frames go straight back to the pool
		return
	}
	p.queue(arrive-now, pkt)
}

// Train is a run of data frames a sender queues on a port at once
// (SendTrain), frames 0..Len()-1 in order, whose headers are made only
// when they reach the peer: a frame exists only on the wire, so a
// worker's round costs about one live header, not one per segment.
// Every frame is settled exactly once, by Frame or, for a frame the port
// polices or drops, by Drop.
type Train interface {
	Len() int
	Job() protocol.JobID
	// WireLen is frame i's length, what Packet.WireLen would say of it.
	WireLen(i int) int
	// Frame makes frame i, for its receiver to take delivery of.
	Frame(i int) *protocol.Packet
	// Drop settles frame i, which never reaches the peer.
	Drop(i int)
}

// trainQueue is a port's train frames in flight, in wire order, as
// runs from runs[head]: a run is a stretch of one train's frames,
// i..end-1, each arriving in turn; a dropped frame ends a run.
type trainQueue struct {
	runs []trainRun
	head int
}

type trainRun struct {
	t      Train
	i, end int
}

// push appends a run, first moving the live runs to the front when the
// slice is full, so a port that is never idle reuses its slice.
func (q *trainQueue) push(r trainRun) {
	if q.head > 0 && len(q.runs) == cap(q.runs) {
		n := copy(q.runs, q.runs[q.head:])
		clear(q.runs[n:])
		q.runs, q.head = q.runs[:n], 0
	}
	q.runs = append(q.runs, r)
}

// extend adds the next frame of the last run's train to that run.
func (q *trainQueue) extend() { q.runs[len(q.runs)-1].end++ }

// next makes the frame due next.
func (q *trainQueue) next() *protocol.Packet {
	r := &q.runs[q.head]
	pkt := r.t.Frame(r.i)
	if r.i++; r.i == r.end {
		*r = trainRun{}
		if q.head++; q.head == len(q.runs) {
			q.runs, q.head = q.runs[:0], 0
		}
	}
	return pkt
}

// SendTrain serializes a train's frames onto the link, per frame and in
// order exactly as Send would: the same shaper admissions, loss draws,
// DropNth ordinals, down windows, counters and arrival times and seqs.
// Only the headers wait: each surviving frame is made as it arrives. A
// traced port shows every frame at send, so it makes them there.
func (p *Port) SendTrain(t Train) {
	n := t.Len()
	if p.Trace != nil {
		for i := 0; i < n; i++ {
			p.Send(t.Frame(i))
		}
		return
	}
	now, job := p.k.Now(), t.Job()
	open := false // whether the last run is this train's, extendable
	for i := 0; i < n; i++ {
		arrive, ok := p.transmit(now, t.WireLen(i), job, nil)
		switch {
		case !ok:
			t.Drop(i)
			open = false
			continue
		case open:
			p.trains.extend()
		default:
			p.trains.push(trainRun{t, i, i + 1})
			open = true
		}
		p.queue(arrive-now, nil)
	}
}

// transmit charges one frame of n wire bytes from job to this direction
// at now: the shaper's admission for a job-tagged frame, then its slot
// on the transmitter, the Tx counters and the job ledger, then the loss
// draw, DropNth and the down windows. It reports when the frame reaches
// the peer and whether it survives. pkt is the frame as Trace sees it
// (nil only on an untraced port).
func (p *Port) transmit(now sim.Time, n int, job protocol.JobID, pkt *protocol.Packet) (arrive sim.Time, ok bool) {
	if p.peer == nil {
		panic(fmt.Sprintf("netsim: port %s is not connected", p.name))
	}
	if p.shaper != nil && job != protocol.DefaultJob && !p.shaper.Admit(now, uint16(job), n) {
		// Policed before any accounting: the frame never reaches the
		// wire, so Tx counters keep reflecting actual link usage.
		p.Policed++
		if p.Trace != nil {
			p.Trace(now, "police", pkt)
		}
		return 0, false
	}
	start := max(now, p.busyUntil)
	txEnd := start + p.cfg.SerializationTime(n)
	p.busyUntil = txEnd
	p.TxPackets++
	p.TxBytes += uint64(n)
	if job != protocol.DefaultJob {
		p.jobTx.add(job, uint64(n))
	}
	if p.Trace != nil {
		p.Trace(start, "tx", pkt)
	}

	drop := p.lossRate > 0 && p.lossRNG.Float64() < p.lossRate
	if !drop && p.dropNth != nil {
		if _, hit := p.dropNth[p.TxPackets]; hit {
			delete(p.dropNth, p.TxPackets)
			drop = true
		}
	}
	if !drop && p.downWindows != nil && p.isDown(start) {
		drop = true
	}
	if drop {
		p.Dropped++
		if p.Trace != nil {
			p.Trace(txEnd, "drop", pkt)
		}
		return 0, false
	}
	return txEnd + p.cfg.Propagation, true
}

// queue puts a surviving frame (nil: the next of a train's) on the wire,
// due at the peer d from now.
func (p *Port) queue(d sim.Time, pkt *protocol.Packet) {
	if p.wire == nil {
		p.wire = sim.NewFIFO(p.k, p.peer.arrive)
	}
	p.wire.Push(d, pkt)
}

// arrive takes a frame off the link at this, the receiving, end; a nil
// one is the next frame of the sender's head train, made now.
func (p *Port) arrive(pkt *protocol.Packet) {
	if pkt == nil {
		pkt = p.peer.trains.next()
	}
	p.RxPackets++
	p.RxBytes += uint64(pkt.WireLen())
	if p.Trace != nil {
		p.Trace(p.k.Now(), "rx", pkt)
	}
	p.owner.Deliver(pkt, p)
}

// Connect creates a full-duplex link between two deliverables and
// returns the two ports (a's side first).
func Connect(k *sim.Kernel, cfg LinkConfig, a Deliverable, aName string, b Deliverable, bName string) (*Port, *Port) {
	pa := &Port{k: k, name: aName, cfg: cfg, owner: a}
	pb := &Port{k: k, name: bName, cfg: cfg, owner: b}
	pa.peer = pb
	pb.peer = pa
	return pa, pb
}

// Host is an end node with one NIC. Received frames are queued on RX in
// arrival order; worker processes block on RX in virtual time.
type Host struct {
	Addr protocol.Addr
	RX   *sim.Chan[*protocol.Packet]
	port *Port
}

// NewHost creates a host with the given address. Attach it with Connect
// via its Deliver method, then call SetPort.
func NewHost(k *sim.Kernel, addr protocol.Addr) *Host {
	return &Host{Addr: addr, RX: sim.NewChan[*protocol.Packet](k, addr.String()+"/rx")}
}

// SetPort attaches the NIC created by Connect.
func (h *Host) SetPort(p *Port) { h.port = p }

// Port returns the host's NIC port.
func (h *Host) Port() *Port { return h.port }

// Deliver implements Deliverable.
func (h *Host) Deliver(pkt *protocol.Packet, _ *Port) { h.RX.Send(pkt) }

// Send transmits a packet from this host.
func (h *Host) Send(pkt *protocol.Packet) { h.port.Send(pkt) }

// SendTrain transmits a train of frames from this host (Port.SendTrain).
func (h *Host) SendTrain(t Train) { h.port.SendTrain(t) }

// Recv blocks the calling process until a frame arrives.
func (h *Host) Recv(p *sim.Proc) *protocol.Packet { return h.RX.Recv(p) }

// RecvTimeout blocks up to d for a frame.
func (h *Host) RecvTimeout(p *sim.Proc, d time.Duration) (*protocol.Packet, bool) {
	return h.RX.RecvTimeout(p, d)
}

// Switch is a store-and-forward L2/L3 switch with static routes. A tap
// function may intercept packets before forwarding — this is the hook
// the iSwitch data-plane extension (input arbiter → accelerator) plugs
// into, leaving regular traffic untouched.
type Switch struct {
	k     *sim.Kernel
	name  string
	proc  time.Duration      // per-packet pipeline (lookup + crossbar) delay
	pipe  *sim.FIFO[ingress] // frames inside the pipeline; made on first use
	ports []*Port
	route map[uint64]*Port // by Addr.Key
	def   *Port            // default route (uplink) when no table entry matches
	tap   func(pkt *protocol.Packet, in *Port) bool

	Forwarded uint64
	NoRoute   uint64
}

// NewSwitch creates a switch. procDelay models the lookup/forwarding
// pipeline per packet (a production ToR cuts through in ~1µs).
func NewSwitch(k *sim.Kernel, name string, procDelay time.Duration) *Switch {
	return &Switch{k: k, name: name, proc: procDelay, route: make(map[uint64]*Port)}
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// Kernel returns the owning simulation kernel.
func (s *Switch) Kernel() *sim.Kernel { return s.k }

// AddPort registers a port created by Connect as belonging to this
// switch and returns it.
func (s *Switch) AddPort(p *Port) *Port {
	s.ports = append(s.ports, p)
	return p
}

// Ports lists the switch's ports in attachment order.
func (s *Switch) Ports() []*Port { return s.ports }

// AddRoute installs a forwarding-table entry: frames for addr exit via
// port. Route entries for whole hosts use their full Addr; lookup falls
// back to IP-only matching so replies to any port of a host route too.
func (s *Switch) AddRoute(addr protocol.Addr, port *Port) { s.route[addr.Key()] = port }

// SetDefault installs the default (uplink) route used when no table
// entry matches.
func (s *Switch) SetDefault(p *Port) { s.def = p }

// RouteFor resolves the egress port for a destination, trying the exact
// address, then an IP-wildcard (port 0) entry, then the default route.
func (s *Switch) RouteFor(dst protocol.Addr) (*Port, bool) {
	key := dst.Key()
	if p, ok := s.route[key]; ok {
		return p, true
	}
	if p, ok := s.route[key&^0xFFFF]; ok { // the IP with port 0
		return p, true
	}
	if s.def != nil {
		return s.def, true
	}
	return nil, false
}

// SetTap installs the data-plane intercept. tap returns true when it
// consumed the packet (it will not be forwarded normally).
func (s *Switch) SetTap(tap func(pkt *protocol.Packet, in *Port) bool) { s.tap = tap }

// ingress is a frame inside the forwarding pipeline and the port it
// came in on.
type ingress struct {
	pkt *protocol.Packet
	in  *Port
}

// Deliver implements Deliverable: store-and-forward then route. The
// pipeline delay is the same for every frame, so frames leave it in the
// order they entered.
func (s *Switch) Deliver(pkt *protocol.Packet, in *Port) {
	if s.pipe == nil {
		s.pipe = sim.NewFIFO(s.k, s.process)
	}
	s.pipe.Push(s.proc, ingress{pkt, in})
}

// process is the far end of the pipeline: tap, else route.
func (s *Switch) process(f ingress) {
	if s.tap != nil && s.tap(f.pkt, f.in) {
		return
	}
	s.Forward(f.pkt, f.pkt.Dst)
}

// Forward routes pkt out the port dst maps to: the frame's own Dst for
// transit traffic, a member's address for a broadcast header that
// several members hold.
func (s *Switch) Forward(pkt *protocol.Packet, dst protocol.Addr) {
	out, ok := s.RouteFor(dst)
	if !ok {
		s.NoRoute++
		pkt.Release() // unroutable frames are dropped
		return
	}
	s.Forwarded++
	out.Send(pkt)
}
