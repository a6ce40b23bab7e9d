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

// starBurst builds a two-host star and returns a burst of 512 frames
// tagged job from host 0 to host 1, each call sent all at once (the NIC
// holds the whole burst) and run to delivery, and host 0's port.
func starBurst(t *testing.T, job protocol.JobID) (k *sim.Kernel, burst func(), nic *Port) {
	k = sim.NewKernel()
	star := BuildStar(k, 2, TenGbE())
	src, dst := star.Hosts[0], star.Hosts[1]
	pkts := make([]*protocol.Packet, 512)
	for i := range pkts {
		pkts[i] = dataPkt(src.Addr, dst.Addr, uint64(i), 8)
		pkts[i].Job = job
	}
	burst = func() {
		for _, pkt := range pkts {
			src.Send(pkt)
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
	return k, burst, src.Port()
}

// TestForwardPathAllocFree is the allocation gate for the frame path
// host → switch → host: once the port and pipeline rings have grown to
// the burst and the kernel's event free list is primed, a frame costs
// three kernel events (two arrivals, one pipeline exit) and no
// allocation, however many frames are queued behind it.
func TestForwardPathAllocFree(t *testing.T) {
	k, burst, _ := starBurst(t, protocol.DefaultJob)
	burst()
	before := k.Events()
	if allocs := testing.AllocsPerRun(10, burst); allocs != 0 {
		t.Fatalf("forward path allocated %.1f times per 512-frame burst, want 0", allocs)
	}
	if perPkt := float64(k.Events()-before) / float64(11*512); perPkt != 3 {
		t.Fatalf("%.2f kernel events per forwarded frame, want 3", perPkt)
	}
}

// TestJobTaggedForwardAllocFree is the same gate for a tenant's frames:
// once every port on the path holds the job in its byte ledger, metering
// a frame allocates nothing.
func TestJobTaggedForwardAllocFree(t *testing.T) {
	_, burst, nic := starBurst(t, 7)
	burst()
	if allocs := testing.AllocsPerRun(10, burst); allocs != 0 {
		t.Fatalf("job-tagged forward path allocated %.1f times per 512-frame burst, want 0", allocs)
	}
	if got, want := nic.TxBytesByJob(7), nic.TxBytes; got != want {
		t.Fatalf("job 7 metered %d of the NIC's %d bytes", got, want)
	}
}

// BenchmarkPortSendJobTagged measures one job-tagged frame through a
// port: shaping check, serialization, per-job metering and delivery to
// the host at the other end.
func BenchmarkPortSendJobTagged(b *testing.B) {
	k := sim.NewKernel()
	src, dst := NewHost(k, HostAddr(0, 0)), NewHost(k, HostAddr(0, 1))
	ps, pd := Connect(k, TenGbE(), src, "src", dst, "dst")
	src.SetPort(ps)
	dst.SetPort(pd)
	pkt := dataPkt(src.Addr, dst.Addr, 0, 8)
	pkt.Job = 7
	send := func() {
		ps.Send(pkt)
		k.Run()
		dst.RX.TryRecv()
	}
	send() // the ledger and the link's FIFO are made on the first frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
