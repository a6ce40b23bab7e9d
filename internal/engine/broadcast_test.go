package engine

import (
	"fmt"
	"math"
	"testing"

	"iswitch/internal/protocol"
)

// hold is clock with every forwarded frame kept, with the address it was
// sent to, for the test to deliver.
type hold struct {
	clock
	out []held
}

type held struct {
	pkt *protocol.Packet
	dst protocol.Addr
}

func (h *hold) Forward(p *protocol.Packet, dst protocol.Addr) { h.out = append(h.out, held{p, dst}) }

// take hands the kept frames out and forgets them.
func (h *hold) take() []held {
	out := h.out
	h.out = nil
	return out
}

// frameView is every field a receiver could write, with the payload's
// values and where they live.
type frameView struct {
	src, dst   protocol.Addr
	tos        uint8
	job        protocol.JobID
	seg        uint64
	enc        protocol.Compression
	shift      uint8
	data       [3]float32
	dataAt     *float32
	q, idx, vl int
}

func viewOf(p *protocol.Packet) frameView {
	v := frameView{src: p.Src, dst: p.Dst, tos: p.ToS, job: p.Job, seg: p.Seg, enc: p.Enc, shift: p.Shift,
		q: len(p.QData), idx: len(p.Idx), vl: len(p.Value)}
	if len(p.Data) > 0 {
		copy(v.data[:], p.Data)
		v.dataAt = &p.Data[0]
	}
	return v
}

// joinAt admits workers to e's default job with Join frames addressed
// to e, and lets go of the Acks.
func joinAt(e *Engine, drv *hold, floats uint64, workers ...protocol.Addr) {
	for _, w := range workers {
		e.Handle(protocol.NewControl(w, e.Addr(), protocol.ActionJoin, protocol.JoinValue(floats)), false)
	}
	for _, h := range drv.take() {
		h.pkt.Release()
	}
}

// roundOneClient is worker self's client engine toward sw, in round 1
// of a 3-value model, expecting the round's aggregate.
func roundOneClient(t *testing.T, self, sw protocol.Addr) *Client {
	c := new(Client)
	c.Init(&emissions{t: t, self: self}, self, sw, protocol.DefaultJob, 3, 0, protocol.CompNone, taggedJob)
	c.Upload([]float32{0, 0, 0}, 0) // round 1, no frame sent
	c.Expect()
	return c
}

// deliver gives each kept frame to its worker's Take and checks that
// none writes the header em, which every frame must be, and that the
// worker assembled sum.
func deliver(t *testing.T, out []held, em *protocol.Packet, clients map[protocol.Addr]*Client, sum []float32) {
	t.Helper()
	want := viewOf(em)
	for _, h := range out {
		if h.pkt != em {
			t.Fatalf("the frame to %v is header %p, want the emission's %p", h.dst, h.pkt, em)
		}
		c := clients[h.dst]
		if c == nil {
			t.Fatalf("a frame to %v, which is no worker here", h.dst)
		}
		c.Take(h.pkt)
		if got := viewOf(em); got != want {
			t.Fatalf("%v's Take changed the shared header from %+v to %+v", h.dst, want, got)
		}
		if !c.Complete() || fmt.Sprint(c.Finish()) != fmt.Sprint(sum) {
			t.Fatalf("%v assembled %v (complete %v), want %v", h.dst, c.Finish(), c.Complete(), sum)
		}
	}
}

// returnsAtReset checks that em outlived every worker's release, held by
// e's shadow slot alone, and goes back to the pool when the slot lets go.
func returnsAtReset(t *testing.T, e *Engine, em *protocol.Packet) {
	t.Helper()
	if !em.IsData() {
		t.Fatal("the header went back to the pool while the shadow slot still held it")
	}
	e.Shadow().Reset()
	if em.IsData() || em.Data != nil {
		t.Fatalf("the header outlived its last holder: %+v", em)
	}
}

// poisoned checks that the payload data went back to its owner, poisoned
// (TestMain), once its last holder let go.
func poisoned(t *testing.T, data []float32) {
	t.Helper()
	if !math.IsNaN(float64(data[0])) {
		t.Fatalf("the payload outlived its last holder: %v", data)
	}
}

// TestBroadcastSharesOneHeader: a switch fans its emission out as one
// header. On a 4-worker star every worker and the segment's shadow slot
// hold the same *Packet. On a 2-leaf tree the root gives each leaf a
// header of its own addressed to it, and each leaf fans that one out to
// its workers the same way. No worker's Take writes a field of the
// header, and it goes back to the pool only when the last holder, the
// shadow slot, lets go.
func TestBroadcastSharesOneHeader(t *testing.T) {
	vals := []float32{1, 2, 3}
	seg := protocol.TagSeg(1, 0)
	workers := []protocol.Addr{worker(0), worker(1), worker(2), worker(3)}

	t.Run("star", func(t *testing.T) {
		drv := &hold{}
		e := New(shadowSelf, drv)
		joinAt(e, drv, 3, workers...)
		clients := map[protocol.Addr]*Client{}
		for i, w := range workers {
			clients[w] = roundOneClient(t, w, shadowSelf)
			contribute(e, protocol.DefaultJob, i, seg, protocol.CompNone, vals)
		}
		out := drv.take()
		if len(out) != len(workers) {
			t.Fatalf("%d frames forwarded, want %d", len(out), len(workers))
		}
		em := out[0].pkt
		if em.Src != shadowSelf || em.Seg != seg {
			t.Fatalf("the emission reads %+v", em)
		}
		data := em.Data
		deliver(t, out, em, clients, []float32{4, 8, 12})
		returnsAtReset(t, e, em)
		poisoned(t, data)
	})

	t.Run("tree", func(t *testing.T) {
		rootAddr := protocol.AddrFrom(10, 255, 0, 1, 9990)
		leafAddrs := []protocol.Addr{protocol.AddrFrom(10, 255, 1, 1, 9990), protocol.AddrFrom(10, 255, 2, 1, 9990)}
		rootDrv := &hold{}
		root := New(rootAddr, rootDrv)
		leaves := make([]*Engine, len(leafAddrs))
		leafDrvs := make([]*hold, len(leafAddrs))
		clients := map[protocol.Addr]*Client{}
		for l, a := range leafAddrs {
			leafDrvs[l] = &hold{}
			leaves[l] = New(a, leafDrvs[l])
			leaves[l].SetParent(rootAddr)
			root.RegisterChildSwitchJob(protocol.DefaultJob, a)
			joinAt(leaves[l], leafDrvs[l], 3, workers[2*l:2*l+2]...)
			for _, w := range workers[2*l : 2*l+2] {
				clients[w] = roundOneClient(t, w, a)
			}
		}
		for _, a := range leafAddrs { // each leaf's partial: two workers' worth
			p := protocol.NewPooledData(a, rootAddr, seg, []float32{2, 4, 6})
			root.Handle(p, false)
		}
		down := rootDrv.take()
		if len(down) != len(leafAddrs) {
			t.Fatalf("the root forwarded %d frames, want one per leaf", len(down))
		}
		data := down[0].pkt.Data
		for l, h := range down {
			if h.dst != leafAddrs[l] || h.pkt.Dst != leafAddrs[l] {
				t.Fatalf("leaf %d got a frame sent to %v, addressed to %v", l, h.dst, h.pkt.Dst)
			}
			if l > 0 && h.pkt == down[0].pkt {
				t.Fatal("two leaves got one header: a leaf routes on the frame's own Dst")
			}
			leaves[l].Handle(h.pkt, true)
			out := leafDrvs[l].take()
			if len(out) != 2 || out[0].pkt != h.pkt || out[0].pkt.Src != leafAddrs[l] {
				t.Fatalf("leaf %d fanned out %d frames, want its own header twice, from itself", l, len(out))
			}
			deliver(t, out, h.pkt, clients, []float32{4, 8, 12})
			returnsAtReset(t, leaves[l], h.pkt)
		}
		if math.IsNaN(float64(data[0])) {
			t.Fatal("the payload went back while the root's shadow slot still held it")
		}
		root.Shadow().Reset() // the root's own header, the payload's last holder
		poisoned(t, data)
	})
}

// BenchmarkBroadcastFanout is one emission's fan-out at a root switch
// with 4 and 16 worker members: the emission header with its loaned sum,
// the shadow slot's hold, one frame per member, each released at once as
// a worker's Take would. It reports ns per emission and allocations per
// emission.
func BenchmarkBroadcastFanout(b *testing.B) {
	for _, members := range []int{4, 16} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			drv := &clock{}
			e := New(shadowSelf, drv)
			join(e, protocol.DefaultJob, members, protocol.CompNone, protocol.FloatsPerPacket)
			ctx := e.def
			sum := make([]float32, protocol.FloatsPerPacket)
			seg := protocol.TagSeg(1, 0)
			var owner recycled
			emit := func() {
				out := e.dataHeader(ctx, e.parent, seg)
				out.LendData(sum, &owner)
				e.broadcast(ctx, out)
				out.Release()
			}
			emit()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emit()
			}
			b.StopTimer()
			if drv.data != (b.N+1)*members || owner.n != b.N {
				b.Fatalf("%d frames forwarded and %d sums back, want %d and %d (the shadow slot keeps the last)",
					drv.data, owner.n, (b.N+1)*members, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/emission")
		})
	}
}
