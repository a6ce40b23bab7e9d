package engine_test

import (
	"testing"
	"time"

	"iswitch/internal/engine"
	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// trainRig is one worker's NIC in a kernel: a client engine uploads
// through a 10 GbE host port to a peer that takes delivery of each frame
// and lets go of it, as a switch's ingest does.
type trainRig struct {
	k      *sim.Kernel
	c      engine.Client
	host   *netsim.Host
	frames int
}

// nic is the rig as the client engine's Sender.
type nic trainRig

func (n *nic) Send(pkt *protocol.Packet) { n.host.Send(pkt) }
func (n *nic) SendTrain(t *engine.Train) { n.host.SendTrain(t) }

func (r *trainRig) Deliver(pkt *protocol.Packet, _ *netsim.Port) {
	r.frames++
	pkt.Release()
}

func newTrainRig(n int, scheme protocol.Compression) *trainRig {
	r := &trainRig{k: sim.NewKernel()}
	self, sw := protocol.AddrFrom(10, 0, 0, 2, 7000), protocol.AddrFrom(10, 0, 0, 1, 9990)
	r.host = netsim.NewHost(r.k, self)
	hp, _ := netsim.Connect(r.k, netsim.TenGbE(), r.host, "worker", r, "switch")
	r.host.SetPort(hp)
	r.c.Init((*nic)(r), self, sw, 0, n, 0, scheme, engine.Recovery{Timeout: time.Second})
	r.c.Reserve()
	return r
}

// round uploads grad through a train and runs the kernel until the
// last frame has arrived.
func (r *trainRig) round(grad []float32) {
	r.c.Upload(grad, -1)
	r.k.Run()
}

// A steady round's upload through a train allocates nothing, beside
// TestClientUploadAllocFree: the client reuses its train record, the
// port its run slice and wire FIFO, and each header comes from the pool
// as its frame arrives, reusing the one the previous arrival let go of.
func TestUplinkTrainAllocFree(t *testing.T) {
	if engine.RaceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const n = 8*protocol.FloatsPerPacket + 5
	for _, scheme := range []protocol.Compression{protocol.CompNone, protocol.CompFP16, protocol.CompInt32Block} {
		r := newTrainRig(n, scheme)
		grad := make([]float32, n)
		for i := range grad {
			grad[i] = float32(i%7) * 0.25
		}
		r.round(grad)
		r.round(grad)
		r.frames = 0
		if allocs := testing.AllocsPerRun(10, func() { r.round(grad) }); allocs != 0 {
			t.Errorf("%v: a round's upload through a train allocated %.1f times, want 0", scheme, allocs)
		}
		if want := 11 * 9; r.frames != want { // AllocsPerRun's warm-up run and 10 more
			t.Errorf("%v: %d frames arrived, want %d", scheme, r.frames, want)
		}
	}
}

// BenchmarkUplinkTrain is a worker's upload on the simulated NIC: a
// 400 000-value fp32 round as one train, each frame made as it arrives
// and released by the peer. It reports ns per frame.
func BenchmarkUplinkTrain(b *testing.B) {
	const n = 400_000
	r := newTrainRig(n, protocol.CompNone)
	grad := make([]float32, n)
	r.round(grad)
	r.frames = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.round(grad)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(r.frames), "ns/frame")
}
