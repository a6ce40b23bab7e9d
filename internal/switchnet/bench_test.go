package switchnet

import (
	"testing"

	"iswitch/internal/accel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// Per-job demux hot-path benchmarks. Every upstream data packet walks
// ctx(job) → accelerator ingest → shared-bus charge; with several
// tenants admitted this path runs once per gradient packet per switch,
// so it must stay allocation-free in steady state (the emission path
// allocates, but only once per completed segment, not per packet).

// benchDemuxSwitch builds a tenancy-armed star iSwitch with nJobs
// admitted contexts whose thresholds no burst ever reaches (pure
// ingest, no emissions), plus one reusable in-flight packet per job.
func benchDemuxSwitch(tb testing.TB, nJobs int) (*ISwitch, []*protocol.Packet) {
	tb.Helper()
	k := sim.NewKernel()
	c := BuildStar(k, 2, testLink())
	c.IS.SetTenancy(accel.NewSRAMPool(0, accel.PartitionDemand, 8), accel.NewSharedBus())
	payload := make([]float32, protocol.FloatsPerPacket)
	pkts := make([]*protocol.Packet, 0, nJobs)
	for j := 1; j <= nJobs; j++ {
		job := protocol.JobID(j)
		if err := c.IS.AdmitJob(job, uint64(protocol.FloatsPerPacket)); err != nil {
			tb.Fatal(err)
		}
		if err := c.IS.AcceleratorOf(job).SetThreshold(1 << 30); err != nil {
			tb.Fatal(err)
		}
		pkt := protocol.NewData(c.Workers[0].Addr, c.IS.Addr(), uint64(j), payload)
		pkt.Job = job
		pkts = append(pkts, pkt)
	}
	return c.IS, pkts
}

// TestPerJobDemuxZeroAlloc is the allocation-regression gate: after
// first-touch segment allocation, demuxing packets across four tenant
// contexts must not allocate at all.
func TestPerJobDemuxZeroAlloc(t *testing.T) {
	is, pkts := benchDemuxSwitch(t, 4)
	for _, pkt := range pkts { // first touch: segment buffers
		is.tap(pkt, nil)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, pkt := range pkts {
			is.tap(pkt, nil)
		}
	})
	if allocs != 0 {
		t.Fatalf("per-job demux allocated %.1f times per %d-packet round, want 0",
			allocs, len(pkts))
	}
	if is.UnknownJobDrops != 0 {
		t.Fatalf("benchmark packets were dropped: %d", is.UnknownJobDrops)
	}
}

// BenchmarkPerJobDemux measures the multi-tenant ingest path: packets
// round-robin across 4 admitted job contexts.
func BenchmarkPerJobDemux(b *testing.B) {
	is, pkts := benchDemuxSwitch(b, 4)
	for _, pkt := range pkts {
		is.tap(pkt, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		is.tap(pkts[i%len(pkts)], nil)
	}
}

// BenchmarkDefaultJobDemux is the single-tenant baseline (job 0, the
// legacy default context) for comparison against BenchmarkPerJobDemux.
func BenchmarkDefaultJobDemux(b *testing.B) {
	k := sim.NewKernel()
	c := BuildStar(k, 2, testLink())
	if err := c.IS.ForceThreshold(1 << 30); err != nil {
		b.Fatal(err)
	}
	payload := make([]float32, protocol.FloatsPerPacket)
	pkt := protocol.NewData(c.Workers[0].Addr, c.IS.Addr(), 0, payload)
	c.IS.tap(pkt, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.IS.tap(pkt, nil)
	}
}

// TestStarDataPlaneAllocFree is the allocation gate for a whole star
// round: 4 workers' frames in, the accelerator's sum held across its
// latency in a recycled emission record, the root's header written into
// the reused broadcast template, 4 pooled copies out. After the first
// round has touched every segment (buffers, shadow slots, rings, the
// packet pool), a round allocates nothing. With dedup armed the
// contributor key comes from the membership row, so that path is held
// to the same zero.
func TestStarDataPlaneAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	for _, dedup := range []bool{false, true} {
		const workers, segs = 4, 64
		k := sim.NewKernel()
		c := BuildStar(k, workers, testLink())
		c.IS.SetDedup(dedup)
		for _, h := range c.Workers {
			h.Send(protocol.NewControl(h.Addr, c.IS.Addr(), protocol.ActionJoin, protocol.JoinValue(segs)))
		}
		k.Run()
		payload := make([]float32, protocol.FloatsPerPacket)
		var pkts []*protocol.Packet
		for s := uint64(0); s < segs; s++ {
			for _, h := range c.Workers {
				pkts = append(pkts, protocol.NewData(h.Addr, c.IS.Addr(), s, payload))
			}
		}
		round := func() {
			for i, pkt := range pkts {
				c.Workers[i%workers].Send(pkt)
			}
			k.Run()
			for _, h := range c.Workers {
				for n := 0; ; n++ {
					pkt, ok := h.RX.TryRecv()
					if !ok {
						if n != segs {
							t.Fatalf("dedup=%v: worker got %d of %d broadcasts", dedup, n, segs)
						}
						break
					}
					pkt.Release()
				}
			}
		}
		for _, h := range c.Workers { // the Join acks
			if pkt, ok := h.RX.TryRecv(); !ok || !pkt.IsControl() {
				t.Fatalf("dedup=%v: join not acknowledged", dedup)
			}
		}
		round()
		if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
			t.Fatalf("dedup=%v: star data plane allocated %.1f times per %d-frame round, want 0",
				dedup, allocs, len(pkts))
		}
	}
}
