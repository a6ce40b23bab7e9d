package engine

import (
	"fmt"
	"time"

	"iswitch/internal/compress"
	"iswitch/internal/protocol"
	"iswitch/internal/tensor/kernels"
)

// Sender is where a Client's frames go: toward pkt.Dst. Every frame
// handed over is the sender's to deliver and release.
type Sender interface {
	Send(pkt *protocol.Packet)
	// SendTrain takes one upload of a round toward t.Dst(), whose
	// frames the sender makes (Train.Frame) when they are due: a
	// simulated NIC as each one reaches the switch, a socket at once
	// (Train.SendEach).
	SendTrain(t *Train)
}

// Recovery is a Client's Help-timer policy, given at Init: the driver
// waits Wait for a frame and calls Expire when the wait runs out.
type Recovery struct {
	// Timeout is the timer's base; zero turns recovery off (no round
	// counted, no gradient retained, no Help answered).
	Timeout time.Duration
	// FailoverAfter is how many timeouts in a row with neither data nor
	// an Ack make Expire answer FailOver (0: never).
	FailoverAfter int
	// GiveUpAfter is how many timeouts with no share of the aggregate
	// make Expire answer GiveUp (0: never). An Ack does not reset it: a
	// switch acks every Help while a peer's contribution is missing.
	GiveUpAfter int
	// Key decorrelates a fleet's timers (a worker index).
	Key uint64
	// Untagged sends plain segment numbers, for the asynchronous
	// pipeline, whose workers' rounds do not align; a stall then also
	// resends the worker's own contribution. Tagged, a round's segments
	// carry its tag, so the switch keeps adjacent rounds apart and a
	// Help names the round it means.
	Untagged bool
}

// Verdict is what an expired Help timer comes to (Expire): Helped (the
// Helps are out; wait again), FailOver (the switch looks dead) or
// GiveUp (the round is lost).
type Verdict uint8

const (
	Helped Verdict = iota
	FailOver
	GiveUp
)

// Client is the worker half of the protocol (paper §3.3), free of I/O:
// the Join frame, the round counter and tag, the two retained rounds,
// the compression codec, every data frame a worker builds,
// the assembler, and the Help timer's rule (Wait, Expire). It never
// blocks, reads a clock or touches a socket; a Sender carries its
// frames. The simulated worker (core) and the UDP client (transport)
// are its two drivers: they arm the timer and act on its verdict, and
// the Client decides what goes on the wire.
//
// A Client is a value to embed; Init readies it. Its buffers come on
// first use (Reserve sizes them at once).
type Client struct {
	out      Sender
	self, sw protocol.Addr
	job      protocol.JobID
	n, per   int
	scheme   protocol.Compression
	Recovery Recovery // as Init was given it; Timeout may change between rounds

	// round counts uploads (not with recovery off). A Help may name this
	// round or the one before, so both are retained in the form the
	// scheme resends from: fp32 and fp16 keep the gradients in cur and
	// prev, which rotate, so no round allocates after the second;
	// int32block keeps the rounds in wire form; top-k keeps nothing, as
	// the codec caches both rounds' selections.
	round     uint64
	cur, prev []float32
	wire      wireRounds

	// asm assembles the round's aggregate; missing is HelpMissing's
	// scratch.
	asm     *protocol.Assembler
	missing []uint64

	// codec holds the compression state (built when the scheme first
	// needs it); fpGrad is the fp16 rounding scratch.
	codec  *compress.Codec
	fpGrad []float32

	// level is the Help timer's backoff level; fruitless counts
	// consecutive timeouts with neither data nor an Ack (the failover
	// trigger). Progress resets both.
	level, fruitless int

	// trains are upload records whose frames are all settled, free for
	// the next upload.
	trains *Train
}

// Init readies c to work for the worker at self toward the switch at
// sw: n-element gradients in per-element segments (0: the MTU-filling
// protocol.FloatsPerPacket), under job's scheme, recovering from loss
// as rec says.
func (c *Client) Init(out Sender, self, sw protocol.Addr, job protocol.JobID, n, per int, scheme protocol.Compression, rec Recovery) {
	if per <= 0 {
		per = protocol.FloatsPerPacket
	}
	*c = Client{out: out, self: self, sw: sw, job: job, n: n, per: per, scheme: scheme, Recovery: rec}
}

// Reserve allocates the assembler and both retained float gradients
// now, for a driver whose rounds must not allocate.
func (c *Client) Reserve() {
	c.asm = protocol.NewAssemblerWith(c.n, c.per)
	if c.floatRounds() {
		c.cur, c.prev = make([]float32, 0, c.n), make([]float32, 0, c.n)
	}
}

// floatRounds reports whether the scheme resends from retained float
// gradients: fp32 and fp16 frames carry the gradient's own values.
func (c *Client) floatRounds() bool {
	return c.scheme == protocol.CompNone || c.scheme == protocol.CompFP16
}

// Target is the switch this worker contributes to.
func (c *Client) Target() protocol.Addr { return c.sw }

// Round is the current round's number (0 before the first upload, and
// always with recovery off).
func (c *Client) Round() uint64 { return c.round }

// Join asks the switch to admit this worker for the model and scheme
// (Table 2).
func (c *Client) Join() {
	value := protocol.JoinValue(uint64(c.n))
	if c.scheme != protocol.CompNone {
		value = protocol.JoinValueScheme(uint64(c.n), c.scheme)
	}
	pkt := protocol.NewControl(c.self, c.sw, protocol.ActionJoin, value)
	pkt.Job = c.job
	c.out.Send(pkt)
}

// AckOf reads a frame as the answer to a control action: whether it is
// an Ack, and whether the Ack says yes.
func AckOf(pkt *protocol.Packet) (ack, ok bool) {
	if !pkt.IsControl() || pkt.Action != protocol.ActionAck {
		return false, false
	}
	return true, len(pkt.Value) == 1 && pkt.Value[0] == 1
}

// tag is the Seg-field tag of the current round (0 when untagged or
// with recovery off).
func (c *Client) tag() uint64 {
	if c.Recovery.Timeout <= 0 || c.Recovery.Untagged {
		return 0
	}
	return protocol.RoundTag(c.round)
}

// IsCurrent reports whether a Seg field carries the current round's tag.
func (c *Client) IsCurrent(taggedSeg uint64) bool {
	return taggedSeg>>protocol.RoundShift == c.tag()>>protocol.RoundShift
}

// Upload starts a round: it brings grad (the model's n values) to the
// wire's precision, quantizes it or picks its top-k selection, retains
// the round unless recovery is off, and sends the first limit segments
// (negative: all). A float frame aliases grad (or the fp16 scratch),
// which the caller keeps intact while the frame can be in flight.
func (c *Client) Upload(grad []float32, limit int) {
	if len(grad) != c.n {
		panic(fmt.Sprintf("engine: a %d-value gradient for a %d-value model", len(grad), c.n))
	}
	switch c.scheme {
	case protocol.CompFP16:
		// Round up front: the retained copy then holds exactly what the
		// switch sums, so a retransmission is bit-identical.
		c.fpGrad = append(c.fpGrad[:0], grad...)
		kernels.F16RoundInPlace(c.fpGrad)
		grad = c.fpGrad
	case protocol.CompInt32Block:
		c.encodeRound(grad)
	case protocol.CompTopK:
		c.ensureCodec().SelectTopK(grad)
	}
	if c.Recovery.Timeout > 0 {
		c.round++
		if c.floatRounds() {
			// The older buffer held round r-2, which no Help can name.
			c.prev, c.cur = c.cur, append(c.prev[:0], grad...)
		}
	}
	c.sendSegments(c.tag(), retained{grad: grad, held: c.wire.cur}, limit)
}

// encodeRound quantizes grad once, segment by segment on the codec's
// current grids, into the wire round every frame of this round shares.
func (c *Client) encodeRound(grad []float32) {
	codec := c.ensureCodec()
	q := c.wire.next(c.n)
	for s := uint64(0); s < uint64(protocol.SegmentCountWith(c.n, c.per)); s++ {
		lo, hi := protocol.SegmentRangeWith(c.n, s, c.per)
		codec.EncodeQInto(q[lo:hi], s, grad[lo:hi])
	}
	held := protocol.NewQData(c.self, c.sw, 0, nil, 0)
	held.LendQData(q, &c.wire)
	c.wire.prev, c.wire.cur = c.wire.cur, held
}

// sendSegments sends round r to the switch, one frame per segment
// tagged tag, stopping after limit frames (negative: all): as one train,
// whose frames are made when they are due, except under top-k. A top-k
// frame copies its selection out of the codec, whose cache moves on with
// the next upload, so it is made here.
func (c *Client) sendSegments(tag uint64, r retained, limit int) {
	segs := protocol.SegmentCountWith(c.n, c.per)
	if limit >= 0 && limit < segs {
		segs = limit
	}
	if segs == 0 {
		return
	}
	if c.scheme == protocol.CompTopK {
		for s := uint64(0); s < uint64(segs); s++ {
			c.out.Send(c.dataFrame(c.sw, s|tag, r))
		}
		return
	}
	t := c.trains
	if t == nil {
		t = &Train{c: c}
	} else {
		c.trains, t.next = t.next, nil
	}
	t.dst, t.tag, t.r, t.segs, t.left = c.sw, tag, r, segs, segs
	if r.held != nil {
		// The train's own share keeps the wire round's buffer out of
		// RecycleQ until its last frame is made.
		t.r.held = r.held.Share()
	}
	c.out.SendTrain(t)
}

// retained names one round in the form its frames are made from: a
// float round's values (grad), an int32block wire round (held, its
// holder), or for top-k whether it is the codec's previous selection.
type retained struct {
	grad []float32
	held *protocol.Packet
	prev bool
}

// retainedRound returns the current round as retained, or with prev the
// one before it.
func (c *Client) retainedRound(prev bool) retained {
	if prev {
		return retained{grad: c.prev, held: c.wire.prev, prev: true}
	}
	return retained{grad: c.cur, held: c.wire.cur}
}

// Train is one upload of a round as its driver carries it: frames
// 0..Len()-1 toward Dst, each made by Frame when it is due and settled
// exactly once, by Frame or by Drop (a frame the wire lost). The last
// settlement lets go of the round and returns the record to its client
// for a later upload, so a steady round allocates none. It holds the
// destination, the round tag, the round's values and the segment count;
// a frame it makes is bit-identical to the one Upload would have made
// at once, since a float frame aliases the same gradient and an
// int32block frame shares the same wire round.
type Train struct {
	c          *Client
	dst        protocol.Addr
	tag        uint64
	r          retained
	segs, left int
	next       *Train // the client's free list
}

// Len is the number of frames.
func (t *Train) Len() int { return t.segs }

// Job is the job every frame is tagged with.
func (t *Train) Job() protocol.JobID { return t.c.job }

// Dst is where the frames go.
func (t *Train) Dst() protocol.Addr { return t.dst }

// WireLen is frame i's wire length, computed without making it.
func (t *Train) WireLen(i int) int {
	lo, hi := protocol.SegmentRangeWith(t.c.n, uint64(i), t.c.per)
	return protocol.DataWireLen(t.c.scheme, hi-lo)
}

// Frame makes frame i, segment i of the round, and settles it.
func (t *Train) Frame(i int) *protocol.Packet {
	pkt := t.c.dataFrame(t.dst, uint64(i)|t.tag, t.r)
	t.settle()
	return pkt
}

// Drop settles frame i without making it.
func (t *Train) Drop(int) { t.settle() }

func (t *Train) settle() {
	if t.left--; t.left > 0 {
		return
	}
	t.r.held.Release()
	t.r = retained{}
	t.next, t.c.trains = t.c.trains, t
}

// SendEach makes every frame at once and hands each to s: a train for a
// driver whose frames leave when sent (a socket, or an engine on the
// worker's own host).
func (t *Train) SendEach(s interface{ Send(*protocol.Packet) }) {
	for i, n := 0, t.segs; i < n; i++ {
		s.Send(t.Frame(i))
	}
}

func (c *Client) ensureCodec() *compress.Codec {
	if c.codec == nil {
		c.codec = compress.NewCodec(compress.Config{Scheme: c.scheme}, c.n, c.per)
	}
	return c.codec
}

// dataFrame builds the frame that carries one segment of this worker's
// contribution to dst under the job's scheme: the one place a worker's
// data frame is made, for the first upload (Train.Frame), a
// retransmission and a failover re-offer alike, so each is bit-identical
// to the others. A float payload aliases r's gradient, an int32block one
// is a share of r's wire round narrowed to the segment (the cap keeps
// it inside), and top-k's selection is copied in, since the codec's
// cache moves on.
func (c *Client) dataFrame(dst protocol.Addr, taggedSeg uint64, r retained) *protocol.Packet {
	seg := taggedSeg & protocol.SegIndexMask
	lo, hi := protocol.SegmentRangeWith(c.n, seg, c.per)
	var pkt *protocol.Packet
	switch c.scheme {
	case protocol.CompInt32Block:
		pkt = r.held.Share()
		pkt.QData = r.held.QData[lo:hi:hi]
		pkt.Dst, pkt.Seg = dst, taggedSeg
	case protocol.CompTopK:
		sparse := c.codec.Sparse
		if r.prev {
			sparse = c.codec.SparsePrev
		}
		idx, sel := sparse(seg)
		pkt = protocol.NewSparseData(c.self, dst, taggedSeg, idx, sel)
		pkt.SetIdxCopy(idx)
		pkt.SetDataCopy(sel)
	default:
		pkt = protocol.NewData(c.self, dst, taggedSeg, r.grad[lo:hi])
		if c.scheme == protocol.CompFP16 {
			pkt.Enc = protocol.CompFP16 // grad already holds rounded values
		}
	}
	pkt.Job = c.job
	return pkt
}

// retransmit resends to dst this worker's contribution for one
// (possibly round-tagged) segment, reporting whether it did: only this
// round and the previous one are retained, and untagged only the
// latest. The resend is bit-identical to the upload under every scheme:
// fp16 was rounded before retention, an int32block round was encoded
// once and is resent as sent, and top-k replays the cached selection.
func (c *Client) retransmit(dst protocol.Addr, taggedSeg uint64) bool {
	prev := false
	switch r := taggedSeg >> protocol.RoundShift; {
	case c.round == 0:
		return false // nothing retained: no upload yet, or recovery off
	case c.Recovery.Untagged, r == c.round%protocol.RoundTagMod:
	case c.round > 1 && r == (c.round-1)%protocol.RoundTagMod:
		prev = true
	default:
		return false // too old to serve
	}
	if taggedSeg&protocol.SegIndexMask >= uint64(protocol.SegmentCountWith(c.n, c.per)) {
		return false // a segment outside the model
	}
	c.out.Send(c.dataFrame(dst, taggedSeg, c.retainedRound(prev)))
	return true
}

// Expect readies the assembler for this round's aggregate, building it
// on the first round.
func (c *Client) Expect() {
	if c.asm == nil {
		c.asm = protocol.NewAssemblerWith(c.n, c.per)
	}
	c.asm.Reset()
}

// Complete reports whether the round's aggregate is assembled.
func (c *Client) Complete() bool { return c.asm.Complete() }

// Take applies one inbound frame to the round and releases it: a share
// of this round's aggregate is assembled, a Help this worker can serve
// is answered to its sender, an Ack is noted, and anything else (another
// round's or job's frame, a segment outside the model, a malformed
// share) is dropped. It reads the frame and writes none of it: a
// broadcast's header is held by every member of the switch it came from.
// It reports whether it resent a contribution.
func (c *Client) Take(pkt *protocol.Packet) (resent bool) {
	defer pkt.Release()
	switch {
	case pkt.IsData():
		seg := pkt.Seg & protocol.SegIndexMask
		if pkt.Job != c.job || !c.IsCurrent(pkt.Seg) || seg >= uint64(protocol.SegmentCountWith(c.n, c.per)) {
			return false
		}
		if c.add(seg, pkt) == nil {
			c.level, c.fruitless = 0, 0 // progress: the path is alive
		}
	case pkt.IsControl() && pkt.Action == protocol.ActionHelp:
		seg, err := protocol.ParseHelp(pkt.Value)
		return err == nil && c.retransmit(pkt.Src, seg)
	case pkt.IsControl() && pkt.Action == protocol.ActionAck:
		c.fruitless = 0 // the switch is alive; peers are just slow
	}
	return false
}

// add places one in-model share of segment seg (its Seg field without
// the round tag) in the assembler. A quantized one is decoded straight
// into its slot; a re-served shadow copy decodes to the same bits again.
func (c *Client) add(seg uint64, pkt *protocol.Packet) error {
	if pkt.Enc != protocol.CompInt32Block {
		return c.asm.AddFloats(seg, pkt.Data)
	}
	if c.scheme != protocol.CompInt32Block {
		return fmt.Errorf("engine: a quantized share of segment %d in a %v job", seg, c.scheme)
	}
	dst, err := c.asm.Slot(seg, len(pkt.QData))
	if err == nil {
		c.ensureCodec().DecodeQ(seg, pkt.QData, pkt.Shift, dst)
	}
	return err
}

// Wait is how long the driver waits for the next frame before the Help
// timer expires: Timeout doubled per backoff level (capped at 16×) plus
// a jitter hashed from Key, the round and the level, so a fleet's
// timers decorrelate without a shared RNG. It is 0 with recovery off.
func (c *Client) Wait() time.Duration {
	base := c.Recovery.Timeout
	lvl := min(c.level, 6)
	to := min(base<<uint(lvl), 16*base)
	h := (c.Recovery.Key+1)*0x9e3779b97f4a7c15 ^ c.round*0xbf58476d1ce4e5b9 ^ uint64(lvl)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return to + time.Duration(h%uint64(to/4+1))
}

// Expire records a timed-out wait (the timer backs off a level, one more
// fruitless wait) and says what comes of it: FailOver, GiveUp, or Helped
// with the Helps sent for every missing segment and the resends.
func (c *Client) Expire() (v Verdict, helps, resent int) {
	c.level++
	c.fruitless++
	switch r := &c.Recovery; {
	case r.FailoverAfter > 0 && c.fruitless >= r.FailoverAfter:
		return FailOver, 0, 0
	case r.GiveUpAfter > 0 && c.level >= r.GiveUpAfter:
		return GiveUp, 0, 0
	}
	helps, resent = c.helpMissing()
	return Helped, helps, resent
}

// helpMissing asks the switch for every segment of this round's
// aggregate still missing. Untagged, the switch keeps no per-round
// state to target a retransmission with, so the worker also resends
// its own contribution blindly. It returns how many Helps and resends
// it sent.
func (c *Client) helpMissing() (helps, resent int) {
	tag := c.tag()
	c.missing = c.asm.AppendMissing(c.missing[:0])
	for _, seg := range c.missing {
		h := protocol.NewHelp(c.self, c.sw, seg|tag)
		h.Job = c.job
		c.out.Send(h)
		helps++
		if c.Recovery.Untagged && c.retransmit(c.sw, seg|tag) {
			resent++
		}
	}
	return helps, resent
}

// Failover makes to this worker's switch and offers it both retained
// rounds under the job's scheme (none before the first upload): the
// previous one first, since a peer one round behind needs every
// worker's contribution to it. Failover is sticky: Expire no longer
// answers FailOver.
func (c *Client) Failover(to protocol.Addr) {
	c.sw = to
	c.Recovery.FailoverAfter = 0
	c.level, c.fruitless = 0, 0
	if c.round > 1 {
		c.sendSegments(protocol.RoundTag(c.round-1), c.retainedRound(true), -1)
	}
	if c.round > 0 {
		c.sendSegments(c.tag(), c.retainedRound(false), -1)
	}
}

// Finish closes a completed round and returns its aggregate: the
// assembler's own vector, valid until the next round's Expect. An
// int32block worker commits the grid exponents derived from the
// aggregate; every worker decoded the same shares, so every worker
// advances to the same grid.
func (c *Client) Finish() []float32 {
	if c.codec != nil && c.scheme == protocol.CompInt32Block {
		c.codec.Advance()
	}
	return c.asm.Vector()
}

// wireRounds retains an int32block worker's last two rounds in wire
// form. Each round is quantized once into one buffer, lent to a pooled
// holder frame with wireRounds as its BufferOwner; every data frame of
// the round, first upload, retransmission or failover re-offer, is a
// share of the holder narrowed to its segment, and an upload's train
// holds one more share until it has made its last frame. The buffer
// comes back (RecycleQ) when the client has dropped the holder and the
// last frame is released, all within the driver's one kernel or
// goroutine.
type wireRounds struct {
	cur, prev *protocol.Packet
	// spare is a returned buffer, ready for the next round; loaned
	// counts the buffers lent and not yet returned.
	spare  []int32
	loaned int
}

// next drops the holder of the round before the previous one, which no
// Help can name, and returns an n-value buffer for a new round: a
// returned one if there is one, else a fresh one, so a frame still out
// keeps reading its own round.
func (w *wireRounds) next(n int) []int32 {
	if w.prev != nil {
		w.prev.Release()
		w.prev = nil
	}
	buf := w.spare
	w.spare = nil
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	w.loaned++
	return buf[:n]
}

// RecycleQ takes back a round's buffer once nothing refers to it.
func (w *wireRounds) RecycleQ(buf []int32) {
	if w.loaned--; w.loaned < 0 {
		panic("engine: a wire round was returned twice")
	}
	w.spare = buf
}

// Recycle is never called: wireRounds lends no float payload.
func (w *wireRounds) Recycle([]float32) { panic("engine: a float payload returned to the wire rounds") }
