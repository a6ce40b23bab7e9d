package switchnet

import (
	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// Fabric builders that pair the plain network topologies with iSwitch
// extensions on every switch. The switch addresses below spend one byte
// per index like the host plans; netsim's shape limits (MaxRacks,
// MaxThreeTierToRs, MaxFatTreeK) keep every such byte from wrapping.

// SwitchPort is the UDP port iSwitch control planes listen on.
const SwitchPort = 9990

// StarAddr returns the switch address used by single-switch clusters.
func StarAddr() protocol.Addr { return protocol.AddrFrom(10, 0, 0, 1, SwitchPort) }

// ToRAddr returns rack r's ToR switch address.
func ToRAddr(r int) protocol.Addr { return protocol.AddrFrom(10, 255, byte(r+1), 1, SwitchPort) }

// RootAddr returns the core switch address.
func RootAddr() protocol.Addr { return protocol.AddrFrom(10, 255, 0, 1, SwitchPort) }

// Fabric is an iSwitch-enabled topology: the paper's one rule (a switch
// sums its children and forwards one partial to its parent; the root
// broadcasts back down, §3.4) applied over a star, a rack tree, a
// three-tier hierarchy or a fat-tree's embedded spine.
type Fabric struct {
	Workers []*netsim.Host
	// Switches lists every aggregation switch, the root first, then each
	// lower level in index order — the index space
	// netsim.SwitchFault.Switch names.
	Switches []*ISwitch
	// IS is the root switch (the only switch of a star).
	IS *ISwitch

	leaves [][]*ISwitch // leaf switch l's chain: itself first, the root last
	leafOf []int        // worker i hangs off leaf leafOf[i]
}

// Chain returns worker i's aggregation path, leaf switch first, root
// last. The slice is shared between the leaf's workers: read-only.
func (f *Fabric) Chain(i int) []*ISwitch { return f.leaves[f.leafOf[i]] }

// Leaf returns the switch worker i contributes to.
func (f *Fabric) Leaf(i int) *ISwitch { return f.Chain(i)[0] }

func newFabric(workers []*netsim.Host, rootSw *netsim.Switch, rootAddr protocol.Addr) *Fabric {
	root := attach(rootSw, rootAddr)
	return &Fabric{Workers: workers, Switches: []*ISwitch{root}, IS: root}
}

// child enables iSwitch on sw one level below parent: sw forwards its
// completed local aggregates up uplink, parent counts it as one
// contributor (an operator's configuration, not a Join round trip) and
// routes broadcasts for addr back down the same link.
func child(parent *ISwitch, sw *netsim.Switch, addr protocol.Addr, uplink *netsim.Port) *ISwitch {
	is := attach(sw, addr)
	is.parent, is.uplink = parent.Addr(), uplink
	is.SetParent(is.parent)
	parent.RegisterChildSwitchJob(protocol.DefaultJob, addr)
	parent.sw.AddRoute(protocol.Addr{IP: addr.IP}, uplink.Peer())
	return is
}

// BuildStar wires nWorkers hosts to one iSwitch over identical links —
// the paper's main testbed shape (Figure 1c).
func BuildStar(k *sim.Kernel, nWorkers int, link netsim.LinkConfig) *Fabric {
	star := netsim.BuildStar(k, nWorkers, link)
	f := newFabric(star.Hosts, star.Switch, StarAddr())
	f.leaves, f.leafOf = [][]*ISwitch{{f.IS}}, make([]int, nWorkers)
	return f
}

// BuildTreeN builds the rack-scale shape (Figure 10): totalWorkers
// workers in racks of up to perRack (the last rack may be partial,
// matching the paper's scalability emulation where a 4-node job spans
// two 3-port racks) under per-rack ToR iSwitches beneath one root.
func BuildTreeN(k *sim.Kernel, totalWorkers, perRack int, edge, uplink netsim.LinkConfig) *Fabric {
	tr := netsim.BuildRacksN(k, totalWorkers, perRack, edge, uplink)
	f := newFabric(tr.Hosts, tr.Root, RootAddr())
	f.leafOf = tr.RackOf
	for r, sw := range tr.ToRs {
		tor := child(f.IS, sw, ToRAddr(r), tr.Uplinks[r])
		f.Switches = append(f.Switches, tor)
		f.leaves = append(f.leaves, []*ISwitch{tor, f.IS})
	}
	return f
}

// AGGAddr returns aggregation switch a's address.
func AGGAddr(a int) protocol.Addr { return protocol.AddrFrom(10, 254, byte(a+1), 1, SwitchPort) }

// BuildThreeTier enables iSwitch on every switch of the full
// ToR→AGG→Core hierarchy of Figure 10: ToRs aggregate their rack
// (H = workers/rack), AGGs aggregate their pod (H = ToRs/AGG), and the
// core performs the global aggregation (H = number of AGGs) before
// broadcasting back down through the levels.
func BuildThreeTier(k *sim.Kernel, nAGGs, torsPerAGG, hostsPerToR int, edge, aggLink, coreLink netsim.LinkConfig) *Fabric {
	net := netsim.BuildThreeTier(k, nAGGs, torsPerAGG, hostsPerToR, edge, aggLink, coreLink)
	f := newFabric(net.Hosts, net.Core, RootAddr())
	f.leafOf = net.ToROf
	for a, sw := range net.AGGs {
		f.Switches = append(f.Switches, child(f.IS, sw, AGGAddr(a), net.AGGUplinks[a]))
	}
	for t, sw := range net.ToRs {
		agg := f.Switches[1+net.AGGOf[t]]
		tor := child(agg, sw, ToRAddr(t), net.ToRUplinks[t])
		f.Switches = append(f.Switches, tor)
		f.leaves = append(f.leaves, []*ISwitch{tor, agg, f.IS})
	}
	return f
}

// Fat-tree addresses live in 11.255.*.* — above the 11.pod.edge.host
// worker plan, mirroring how the other topologies reserve high octets
// for switch control planes.

// FatCoreAddr is the spine core switch's control address.
func FatCoreAddr() protocol.Addr { return protocol.AddrFrom(11, 255, 0, 1, SwitchPort) }

// FatAggAddr is pod p's spine aggregation switch (agg0) address.
func FatAggAddr(p int) protocol.Addr { return protocol.AddrFrom(11, 255, 1, byte(p+1), SwitchPort) }

// FatEdgeAddr is the control address of edge switch e in pod p.
func FatEdgeAddr(p, e int) protocol.Addr {
	return protocol.AddrFrom(11, 255, byte(2+p), byte(e+1), SwitchPort)
}

// BuildFatTree enables iSwitch on the embedded spine tree of a k-ary
// fat-tree: every edge switch aggregates its rack and forwards partials
// to its pod's agg0, which forwards to core0, which broadcasts the
// global aggregate back down. kAry must be even; hostsPerEdge scales
// rack density (k=8 with 32 hosts/edge = 1024 workers).
func BuildFatTree(k *sim.Kernel, kAry, hostsPerEdge int, edge, aggLink, coreLink netsim.LinkConfig) *Fabric {
	net := netsim.BuildFatTree(k, kAry, hostsPerEdge, edge, aggLink, coreLink)
	f := newFabric(net.Hosts, net.Cores[0], FatCoreAddr())
	for pod, aggs := range net.Aggs {
		agg := child(f.IS, aggs[0], FatAggAddr(pod), net.AggUplinks[pod])
		f.Switches = append(f.Switches, agg)
		for e, sw := range net.Edges[pod] {
			es := child(agg, sw, FatEdgeAddr(pod, e), net.EdgeUplinks[pod][e])
			f.leaves = append(f.leaves, []*ISwitch{es, agg, f.IS})
		}
	}
	for _, chain := range f.leaves { // the edge level lists after every pod's agg
		f.Switches = append(f.Switches, chain[0])
	}
	for i := range net.Hosts {
		f.leafOf = append(f.leafOf, net.PodOf[i]*kAry/2+net.EdgeOf[i])
	}
	return f
}
