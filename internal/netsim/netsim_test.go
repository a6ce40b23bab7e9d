package netsim

import (
	"strings"
	"testing"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// testLink has easy arithmetic: 8 Gb/s = 1 byte/ns, 1µs propagation,
// no per-packet overhead.
func testLink() LinkConfig {
	return LinkConfig{BitsPerSecond: 8e9, Propagation: time.Microsecond}
}

func dataPkt(src, dst protocol.Addr, seg uint64, n int) *protocol.Packet {
	return protocol.NewData(src, dst, seg, make([]float32, n))
}

func TestSerializationTime(t *testing.T) {
	c := testLink()
	if got := c.SerializationTime(1000); got != time.Microsecond {
		t.Fatalf("1000 bytes at 1B/ns = %v, want 1µs", got)
	}
	c.PerPacketOverhead = 100 * time.Nanosecond
	if got := c.SerializationTime(1000); got != 1100*time.Nanosecond {
		t.Fatalf("with overhead = %v, want 1.1µs", got)
	}
}

func TestHostToHostDelivery(t *testing.T) {
	k := sim.NewKernel()
	a := NewHost(k, HostAddr(0, 0))
	b := NewHost(k, HostAddr(0, 1))
	pa, pb := Connect(k, testLink(), a, "a", b, "b")
	a.SetPort(pa)
	b.SetPort(pb)

	pkt := dataPkt(a.Addr, b.Addr, 0, 100) // wire = 14+20+8+8+400 = 450B
	var at sim.Time
	var got *protocol.Packet
	k.Spawn("recv", func(p *sim.Proc) {
		got = b.Recv(p)
		at = p.Now()
	})
	k.Spawn("send", func(p *sim.Proc) { a.Send(pkt) })
	k.Run()
	if got == nil || got.Seg != 0 {
		t.Fatal("packet not delivered")
	}
	want := 450*time.Nanosecond + time.Microsecond
	if at != want {
		t.Fatalf("arrival at %v, want %v", at, want)
	}
}

func TestEgressSerializationQueues(t *testing.T) {
	k := sim.NewKernel()
	a := NewHost(k, HostAddr(0, 0))
	b := NewHost(k, HostAddr(0, 1))
	pa, pb := Connect(k, testLink(), a, "a", b, "b")
	a.SetPort(pa)
	b.SetPort(pb)

	var arrivals []sim.Time
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			b.Recv(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			a.Send(dataPkt(a.Addr, b.Addr, uint64(i), 100)) // 450ns each
		}
	})
	k.Run()
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d, want 3", len(arrivals))
	}
	// Back-to-back: 450ns, 900ns, 1350ns serialization ends + 1µs prop.
	want := []sim.Time{1450 * time.Nanosecond, 1900 * time.Nanosecond, 2350 * time.Nanosecond}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrival[%d] = %v, want %v", i, arrivals[i], want[i])
		}
	}
}

func TestFullDuplexDirectionsIndependent(t *testing.T) {
	k := sim.NewKernel()
	a := NewHost(k, HostAddr(0, 0))
	b := NewHost(k, HostAddr(0, 1))
	pa, pb := Connect(k, testLink(), a, "a", b, "b")
	a.SetPort(pa)
	b.SetPort(pb)

	var atA, atB sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		a.Send(dataPkt(a.Addr, b.Addr, 0, 100))
		a.Recv(p)
		atA = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		b.Send(dataPkt(b.Addr, a.Addr, 0, 100))
		b.Recv(p)
		atB = p.Now()
	})
	k.Run()
	want := 450*time.Nanosecond + time.Microsecond
	if atA != want || atB != want {
		t.Fatalf("duplex arrivals %v/%v, want both %v", atA, atB, want)
	}
}

func TestStarForwarding(t *testing.T) {
	k := sim.NewKernel()
	star := BuildStar(k, 4, testLink())
	src, dst := star.Hosts[0], star.Hosts[3]
	var at sim.Time
	k.Spawn("recv", func(p *sim.Proc) {
		pkt := dst.Recv(p)
		at = p.Now()
		if pkt.Src != src.Addr {
			t.Errorf("src = %v", pkt.Src)
		}
	})
	k.Spawn("send", func(p *sim.Proc) { src.Send(dataPkt(src.Addr, dst.Addr, 0, 100)) })
	k.Run()
	// Two link traversals (450ns + 1µs each) + 1µs switch pipeline.
	want := 2*(450*time.Nanosecond+time.Microsecond) + DefaultSwitchDelay
	if at != want {
		t.Fatalf("arrival %v, want %v", at, want)
	}
	if star.Switch.Forwarded != 1 {
		t.Fatalf("forwarded = %d", star.Switch.Forwarded)
	}
}

func TestCentralLinkContention(t *testing.T) {
	// Three hosts blast one destination through a star: the switch→dst
	// link must serialize, so total time ≈ 3 packets back to back.
	k := sim.NewKernel()
	star := BuildStar(k, 4, testLink())
	dst := star.Hosts[3]
	var last sim.Time
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			dst.Recv(p)
			last = p.Now()
		}
	})
	for i := 0; i < 3; i++ {
		h := star.Hosts[i]
		k.Spawn("send", func(p *sim.Proc) { h.Send(dataPkt(h.Addr, dst.Addr, 0, 300)) })
	}
	k.Run()
	// Each packet: 14+20+8+8+1200 = 1250B → 1250ns at 1B/ns.
	// Uplinks run in parallel; switch→dst serializes 3×1250ns.
	want := 1250*time.Nanosecond + time.Microsecond + DefaultSwitchDelay +
		3*1250*time.Nanosecond + time.Microsecond
	if last != want {
		t.Fatalf("last arrival %v, want %v", last, want)
	}
}

func TestSwitchNoRouteCounted(t *testing.T) {
	k := sim.NewKernel()
	star := BuildStar(k, 2, testLink())
	h := star.Hosts[0]
	k.Spawn("send", func(p *sim.Proc) {
		h.Send(dataPkt(h.Addr, protocol.AddrFrom(99, 9, 9, 9, 1), 0, 10))
	})
	k.Run()
	if star.Switch.NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", star.Switch.NoRoute)
	}
}

func TestTapInterceptsTaggedTraffic(t *testing.T) {
	k := sim.NewKernel()
	star := BuildStar(k, 2, testLink())
	var tapped []*protocol.Packet
	star.Switch.SetTap(func(pkt *protocol.Packet, in *Port) bool {
		if pkt.IsISwitch() {
			tapped = append(tapped, pkt)
			return true
		}
		return false
	})
	src, dst := star.Hosts[0], star.Hosts[1]
	var regular *protocol.Packet
	k.Spawn("recv", func(p *sim.Proc) { regular = dst.Recv(p) })
	k.Spawn("send", func(p *sim.Proc) {
		src.Send(dataPkt(src.Addr, dst.Addr, 0, 10)) // tagged: consumed
		src.Send(&protocol.Packet{Src: src.Addr, Dst: dst.Addr, ToS: protocol.ToSRegular})
	})
	k.Run()
	if len(tapped) != 1 {
		t.Fatalf("tapped %d, want 1", len(tapped))
	}
	if regular == nil || regular.ToS != protocol.ToSRegular {
		t.Fatal("regular traffic did not pass through")
	}
}

func TestLossInjection(t *testing.T) {
	k := sim.NewKernel()
	a := NewHost(k, HostAddr(0, 0))
	b := NewHost(k, HostAddr(0, 1))
	pa, pb := Connect(k, testLink(), a, "a", b, "b")
	a.SetPort(pa)
	b.SetPort(pb)
	pa.SetLoss(1.0, 1) // drop everything

	got := false
	k.Spawn("recv", func(p *sim.Proc) {
		_, ok := b.RecvTimeout(p, 10*time.Millisecond)
		got = ok
	})
	k.Spawn("send", func(p *sim.Proc) { a.Send(dataPkt(a.Addr, b.Addr, 0, 10)) })
	k.Run()
	if got {
		t.Fatal("packet delivered despite 100% loss")
	}
	if pa.Dropped != 1 {
		t.Fatalf("dropped = %d", pa.Dropped)
	}
}

func TestRackTopologyRouting(t *testing.T) {
	k := sim.NewKernel()
	tr := BuildRacks(k, 3, 3, testLink(), testLink())
	if len(tr.Hosts) != 9 || len(tr.ToRs) != 3 {
		t.Fatalf("hosts=%d tors=%d", len(tr.Hosts), len(tr.ToRs))
	}
	// Intra-rack: host 0 → host 1 (same rack) must not touch the root.
	src, dst := tr.Hosts[0], tr.Hosts[1]
	var gotIntra *protocol.Packet
	k.Spawn("recv", func(p *sim.Proc) { gotIntra = dst.Recv(p) })
	k.Spawn("send", func(p *sim.Proc) { src.Send(dataPkt(src.Addr, dst.Addr, 0, 10)) })
	k.Run()
	if gotIntra == nil {
		t.Fatal("intra-rack packet lost")
	}
	if tr.Root.Forwarded != 0 {
		t.Fatalf("intra-rack traffic crossed the root (%d)", tr.Root.Forwarded)
	}
	// Inter-rack: host 0 (rack 0) → host 8 (rack 2) goes via the root.
	far := tr.Hosts[8]
	var gotInter *protocol.Packet
	k.Spawn("recv2", func(p *sim.Proc) { gotInter = far.Recv(p) })
	k.Spawn("send2", func(p *sim.Proc) { src.Send(dataPkt(src.Addr, far.Addr, 0, 10)) })
	k.Run()
	if gotInter == nil {
		t.Fatal("inter-rack packet lost")
	}
	if tr.Root.Forwarded != 1 {
		t.Fatalf("root forwarded = %d, want 1", tr.Root.Forwarded)
	}
}

func TestRackOfMapping(t *testing.T) {
	k := sim.NewKernel()
	tr := BuildRacks(k, 4, 3, testLink(), testLink())
	for i, r := range tr.RackOf {
		if want := i / 3; r != want {
			t.Fatalf("RackOf[%d] = %d, want %d", i, r, want)
		}
	}
	if len(tr.Uplinks) != 4 {
		t.Fatalf("uplinks = %d", len(tr.Uplinks))
	}
}

func TestAttachHost(t *testing.T) {
	k := sim.NewKernel()
	star := BuildStar(k, 2, testLink())
	ps := star.AttachHost(k, protocol.AddrFrom(10, 0, 0, 10, 9990), testLink())
	var got *protocol.Packet
	k.Spawn("recv", func(p *sim.Proc) { got = ps.Recv(p) })
	h := star.Hosts[0]
	k.Spawn("send", func(p *sim.Proc) { h.Send(dataPkt(h.Addr, ps.Addr, 0, 10)) })
	k.Run()
	if got == nil {
		t.Fatal("attached host unreachable")
	}
}

func TestPortStats(t *testing.T) {
	k := sim.NewKernel()
	a := NewHost(k, HostAddr(0, 0))
	b := NewHost(k, HostAddr(0, 1))
	pa, pb := Connect(k, testLink(), a, "a", b, "b")
	a.SetPort(pa)
	b.SetPort(pb)
	pkt := dataPkt(a.Addr, b.Addr, 0, 25) // 150 bytes on the wire
	k.Spawn("recv", func(p *sim.Proc) { b.Recv(p) })
	k.Spawn("send", func(p *sim.Proc) { a.Send(pkt) })
	k.Run()
	if pa.TxPackets != 1 || pa.TxBytes != 150 {
		t.Fatalf("tx stats %d/%d", pa.TxPackets, pa.TxBytes)
	}
	if pb.RxPackets != 1 || pb.RxBytes != 150 {
		t.Fatalf("rx stats %d/%d", pb.RxPackets, pb.RxBytes)
	}
}

func TestPortTraceHook(t *testing.T) {
	k := sim.NewKernel()
	a := NewHost(k, HostAddr(0, 0))
	b := NewHost(k, HostAddr(0, 1))
	pa, pb := Connect(k, testLink(), a, "a", b, "b")
	a.SetPort(pa)
	b.SetPort(pb)
	type ev struct {
		kind string
		at   sim.Time
	}
	var events []ev
	hook := func(at sim.Time, kind string, pkt *protocol.Packet) {
		events = append(events, ev{kind, at})
	}
	pa.Trace = hook
	pb.Trace = hook
	k.Spawn("recv", func(p *sim.Proc) { b.Recv(p) })
	k.Spawn("send", func(p *sim.Proc) { a.Send(dataPkt(a.Addr, b.Addr, 0, 10)) })
	k.Run()
	if len(events) != 2 || events[0].kind != "tx" || events[1].kind != "rx" {
		t.Fatalf("events = %+v", events)
	}
	if events[1].at <= events[0].at {
		t.Fatalf("rx not after tx: %+v", events)
	}
	// Drops are traced too.
	events = nil
	pa.SetLoss(1.0, 1)
	k.Spawn("send2", func(p *sim.Proc) { a.Send(dataPkt(a.Addr, b.Addr, 1, 10)) })
	k.Run()
	if len(events) != 2 || events[1].kind != "drop" {
		t.Fatalf("drop not traced: %+v", events)
	}
}

func TestPerJobTxAccounting(t *testing.T) {
	k := sim.NewKernel()
	a := NewHost(k, HostAddr(0, 0))
	b := NewHost(k, HostAddr(0, 1))
	pa, pb := Connect(k, testLink(), a, "a", b, "b")
	a.SetPort(pa)
	b.SetPort(pb)

	mk := func(job protocol.JobID, n int) *protocol.Packet {
		p := dataPkt(a.Addr, b.Addr, 0, n)
		p.Job = job
		return p
	}
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			b.Recv(p)
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		a.Send(mk(1, 100))
		a.Send(mk(2, 100))
		a.Send(mk(1, 100))
		a.Send(mk(0, 100)) // untagged legacy traffic: not metered per job
	})
	k.Run()

	per := uint64(dataPkt(a.Addr, b.Addr, 0, 100).WireLen())
	if got := pa.TxBytesByJob(1); got != 2*per {
		t.Fatalf("job 1 bytes = %d, want %d", got, 2*per)
	}
	if got := pa.TxBytesByJob(2); got != per {
		t.Fatalf("job 2 bytes = %d, want %d", got, per)
	}
	if got := pa.TxBytesByJob(0); got != 0 {
		t.Fatalf("job 0 metered: %d", got)
	}
	if pa.TxBytes != 4*per {
		t.Fatalf("total TxBytes = %d, want %d", pa.TxBytes, 4*per)
	}
	if got := pa.TxBytesByJob(3); got != 0 {
		t.Fatalf("job 3, past the ledger's end, reads %d bytes", got)
	}
}

// Every address plan numbers its hosts with one byte per index. At each
// plan's limit all host addresses are still distinct and clear of the
// subnets the aggregation switches' own addresses live in (10.254.*,
// 10.255.*, 11.255.*); one past it the builder panics, never wraps.
func TestAddressPlansAtBounds(t *testing.T) {
	l := testLink()
	shapes := []struct {
		name  string
		hosts func(over int) []*Host // over: 0 builds at the bound, 1 one past it
	}{
		{"star", func(o int) []*Host { return BuildStar(sim.NewKernel(), MaxHostsPerSwitch+o, l).Hosts }},
		{"tree-racks", func(o int) []*Host { return BuildRacks(sim.NewKernel(), MaxRacks+o, MaxHostsPerSwitch, l, l).Hosts }},
		{"tree-per-rack", func(o int) []*Host { return BuildRacksN(sim.NewKernel(), 4, MaxHostsPerSwitch+o, l, l).Hosts }},
		{"3tier-tors", func(o int) []*Host {
			return BuildThreeTier(sim.NewKernel(), 2, MaxThreeTierToRs/2+o, MaxHostsPerSwitch, l, l, l).Hosts
		}},
		{"3tier-aggs", func(o int) []*Host { return BuildThreeTier(sim.NewKernel(), MaxThreeTierToRs+o, 1, 1, l, l, l).Hosts }},
		{"3tier-hosts", func(o int) []*Host { return BuildThreeTier(sim.NewKernel(), 1, 1, MaxHostsPerSwitch+o, l, l, l).Hosts }},
		{"fattree-hosts", func(o int) []*Host { return BuildFatTree(sim.NewKernel(), 4, MaxFatTreeHostsPerEdge+o, l, l, l).Hosts }},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			seen := make(map[[4]byte]bool)
			for _, h := range s.hosts(0) {
				ip := h.Addr.IP
				if seen[ip] {
					t.Fatalf("duplicate host address %v", h.Addr)
				}
				seen[ip] = true
				if ip[1] >= 254 {
					t.Fatalf("host address %v is inside the switches' control subnets", h.Addr)
				}
			}
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("one past the bound was built")
				} else if msg, ok := r.(string); !ok || !strings.Contains(msg, "address plan") {
					t.Fatalf("panic does not name the address plan: %v", r)
				}
			}()
			s.hosts(1)
		})
	}
	// A fat-tree at MaxFatTreeK has 4M links, too many to build here: the
	// pod byte is checked on the address function and the builder's
	// guard on its own.
	first := fatTreeAddr(0, 0, 0)
	last := fatTreeAddr(MaxFatTreeK-1, MaxFatTreeK/2-1, MaxFatTreeHostsPerEdge-1)
	if first.IP != [4]byte{11, 0, 0, 2} || last.IP != [4]byte{11, 253, 126, 255} {
		t.Fatalf("fat-tree plan corners = %v, %v", first, last)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BuildFatTree accepted k past the bound")
		}
	}()
	BuildFatTree(sim.NewKernel(), MaxFatTreeK+2, 1, l, l, l)
}
