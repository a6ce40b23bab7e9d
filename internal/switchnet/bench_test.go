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
