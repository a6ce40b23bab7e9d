package switchnet

import (
	"testing"
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/netsim"
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
// ingest, no emissions), plus one reusable in-flight packet per job: a
// plain literal, which the switch's Release leaves alone, so the same
// frame can be fed to the tap again.
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
		pkts = append(pkts, &protocol.Packet{Src: c.Workers[0].Addr, Dst: c.IS.Addr(),
			ToS: protocol.ToSData, Job: job, Seg: uint64(j), Data: payload})
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
	if want := uint64(202 * len(pkts)); is.DataIn != want {
		t.Fatalf("switch ingested %d frames, want %d: the reused frames did not survive a tap", is.DataIn, want)
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
	pkt := &protocol.Packet{Src: c.Workers[0].Addr, Dst: c.IS.Addr(), ToS: protocol.ToSData, Data: payload}
	c.IS.tap(pkt, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.IS.tap(pkt, nil)
	}
}

// TestStarDataPlaneAllocFree is the allocation gate for a whole round
// of the switch data plane: the workers' frames in on pooled headers,
// the accelerator's sum held across its latency in a recycled emission
// record, written once and lent to the emission, one share per member
// out. After the first round has touched every segment (buffers, shadow
// slots, rings, the header and payload pools), a round allocates
// nothing, on every shape:
//
//   - the star, with and without dedup (the contributor key comes from
//     the membership row, rendered once at Join);
//   - a 2-level tree, where a ToR's sum travels up inside its emission
//     and returns to the ToR when the root releases it, and the root's
//     broadcast is shared again at the ToR level;
//   - the star under int32block, the integer datapath's loan.
func TestStarDataPlaneAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const workers, segs = 4, 64
	uplink := netsim.LinkConfig{BitsPerSecond: 32e9, Propagation: time.Microsecond}
	cases := []struct {
		name   string
		build  func(k *sim.Kernel) *Fabric
		dedup  bool
		scheme protocol.Compression
	}{
		{"star", func(k *sim.Kernel) *Fabric { return BuildStar(k, workers, testLink()) }, false, protocol.CompNone},
		{"star-dedup", func(k *sim.Kernel) *Fabric { return BuildStar(k, workers, testLink()) }, true, protocol.CompNone},
		{"tree", func(k *sim.Kernel) *Fabric { return BuildTreeN(k, workers, 2, testLink(), uplink) }, true, protocol.CompNone},
		{"star-int32block", func(k *sim.Kernel) *Fabric { return BuildStar(k, workers, testLink()) }, true, protocol.CompInt32Block},
	}
	for _, tc := range cases {
		k := sim.NewKernel()
		c := tc.build(k)
		for _, is := range c.Switches {
			is.SetDedup(tc.dedup)
			is.SetCompression(protocol.DefaultJob, tc.scheme, segs*protocol.FloatsPerPacket)
		}
		for i, h := range c.Workers {
			h.Send(protocol.NewControl(h.Addr, c.Leaf(i).Addr(), protocol.ActionJoin,
				protocol.JoinValueScheme(segs*protocol.FloatsPerPacket, tc.scheme)))
		}
		k.Run()
		payload := make([]float32, protocol.FloatsPerPacket)
		qpayload := make([]int32, protocol.FloatsPerPacket)
		upForwards := func() (n uint64) {
			for _, is := range c.Switches {
				n += is.UpForwards
			}
			return n
		}
		round := func() {
			for s := uint64(0); s < segs; s++ {
				for i, h := range c.Workers {
					if tc.scheme == protocol.CompInt32Block {
						h.Send(protocol.NewQData(h.Addr, c.Leaf(i).Addr(), s, qpayload, 0))
					} else {
						h.Send(protocol.NewData(h.Addr, c.Leaf(i).Addr(), s, payload))
					}
				}
			}
			k.Run()
			for _, h := range c.Workers {
				for n := 0; ; n++ {
					pkt, ok := h.RX.TryRecv()
					if !ok {
						if n != segs {
							t.Fatalf("%s: worker got %d of %d broadcasts", tc.name, n, segs)
						}
						break
					}
					pkt.Release()
				}
			}
		}
		for _, h := range c.Workers { // the Join acks
			pkt, ok := h.RX.TryRecv()
			if !ok || !pkt.IsControl() {
				t.Fatalf("%s: join not acknowledged", tc.name)
			}
			pkt.Release()
		}
		round()
		if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
			t.Fatalf("%s: data plane allocated %.1f times per %d-frame round, want 0",
				tc.name, allocs, workers*segs)
		}
		if want := uint64(12 * segs * (len(c.Switches) - 1)); upForwards() != want {
			t.Fatalf("%s: %d up-forwards, want %d", tc.name, upForwards(), want)
		}
	}
}

// TestShadowHelpAllocFree pins the re-serve path beside the data plane:
// every worker loses every broadcast of a round and sends a Help per
// segment, and the switch answers each from its shadow slot with one
// more share of the kept emission. After the first such round, a round
// of Helps and answers allocates nothing, on the float and the integer
// datapaths.
func TestShadowHelpAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const workers, segs = 4, 64
	for _, scheme := range []protocol.Compression{protocol.CompNone, protocol.CompInt32Block} {
		k := sim.NewKernel()
		c := BuildStar(k, workers, testLink())
		c.IS.SetDedup(true)
		c.IS.SetCompression(protocol.DefaultJob, scheme, segs*protocol.FloatsPerPacket)
		for _, h := range c.Workers {
			h.Send(protocol.NewControl(h.Addr, c.IS.Addr(), protocol.ActionJoin,
				protocol.JoinValueScheme(segs*protocol.FloatsPerPacket, scheme)))
		}
		k.Run()
		payload := make([]float32, protocol.FloatsPerPacket)
		qpayload := make([]int32, protocol.FloatsPerPacket)
		for s := uint64(0); s < segs; s++ {
			for _, h := range c.Workers {
				if scheme == protocol.CompInt32Block {
					h.Send(protocol.NewQData(h.Addr, c.IS.Addr(), s, qpayload, 0))
				} else {
					h.Send(protocol.NewData(h.Addr, c.IS.Addr(), s, payload))
				}
			}
		}
		k.Run()
		drain := func(want int) {
			for _, h := range c.Workers {
				for n := 0; ; n++ {
					pkt, ok := h.RX.TryRecv()
					if !ok {
						if n != want {
							t.Fatalf("%v: worker got %d of %d frames", scheme, n, want)
						}
						break
					}
					pkt.Release()
				}
			}
		}
		drain(segs + 1) // the Join ack and the round's broadcasts
		helps := func() {
			for s := uint64(0); s < segs; s++ {
				for _, h := range c.Workers {
					h.Send(protocol.NewHelp(h.Addr, c.IS.Addr(), s))
				}
			}
			k.Run()
			drain(segs)
		}
		helps()
		served := c.IS.HelpServed
		if allocs := testing.AllocsPerRun(10, helps); allocs != 0 {
			t.Fatalf("%v: re-serving %d Helps allocated %.1f times, want 0", scheme, workers*segs, allocs)
		}
		if got := c.IS.HelpServed - served; got != 11*workers*segs {
			t.Fatalf("%v: %d Helps served from the shadow, want %d", scheme, got, 11*workers*segs)
		}
	}
}
