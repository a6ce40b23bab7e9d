package netsim

import (
	"testing"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// BenchmarkStarDelivery measures forwarding packets through a switch.
func BenchmarkStarDelivery(b *testing.B) {
	k := sim.NewKernel()
	star := BuildStar(k, 2, LinkConfig{BitsPerSecond: 10e9, Propagation: time.Microsecond})
	src, dst := star.Hosts[0], star.Hosts[1]
	pkt := protocol.NewData(src.Addr, dst.Addr, 0, make([]float32, protocol.FloatsPerPacket))
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			dst.Recv(p)
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			src.Send(pkt)
			p.Sleep(2 * time.Microsecond)
		}
	})
	b.SetBytes(int64(pkt.WireLen()))
	b.ResetTimer()
	k.Run()
}

// BenchmarkTreeCrossRack measures inter-rack forwarding (4 hops).
func BenchmarkTreeCrossRack(b *testing.B) {
	k := sim.NewKernel()
	tr := BuildRacks(k, 2, 3, TenGbE(), FortyGbE())
	src, dst := tr.Hosts[0], tr.Hosts[5]
	pkt := protocol.NewData(src.Addr, dst.Addr, 0, make([]float32, 100))
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			dst.Recv(p)
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			src.Send(pkt)
			p.Sleep(2 * time.Microsecond)
		}
	})
	b.ResetTimer()
	k.Run()
}

// TestForwardPathAllocFree is the allocation gate for the frame path
// host → switch → host: once the port and pipeline rings have grown to
// the burst and the kernel's event free list is primed, a frame costs
// three kernel events (two arrivals, one pipeline exit) and no
// allocation, however many frames are queued behind it.
func TestForwardPathAllocFree(t *testing.T) {
	k := sim.NewKernel()
	star := BuildStar(k, 2, TenGbE())
	src, dst := star.Hosts[0], star.Hosts[1]
	pkts := make([]*protocol.Packet, 512)
	for i := range pkts {
		pkts[i] = dataPkt(src.Addr, dst.Addr, uint64(i), 8)
	}
	burst := func() {
		for _, pkt := range pkts {
			src.Send(pkt) // all at once: the NIC holds the whole burst
		}
		k.Run()
		for n := 0; ; n++ {
			if _, ok := dst.RX.TryRecv(); !ok {
				if n != len(pkts) {
					t.Fatalf("%d of %d frames delivered", n, len(pkts))
				}
				break
			}
		}
	}
	burst()
	before := k.Events()
	if allocs := testing.AllocsPerRun(10, burst); allocs != 0 {
		t.Fatalf("forward path allocated %.1f times per %d-frame burst, want 0", allocs, len(pkts))
	}
	if perPkt := float64(k.Events()-before) / float64(11*len(pkts)); perPkt != 3 {
		t.Fatalf("%.2f kernel events per forwarded frame, want 3", perPkt)
	}
}
