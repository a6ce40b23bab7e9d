package netsim

import (
	"fmt"

	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// FatTree is a k-ary fat-tree (Al-Fares et al.): k pods, each with k/2
// edge switches and k/2 aggregation switches, plus (k/2)² core
// switches. The classic construction attaches k/2 hosts to each edge
// switch; hostsPerEdge generalizes that so rack density and pod count
// scale independently — k=8 with hostsPerEdge=32 yields the
// 1024-worker topology the ladder-queue kernel is sized for.
//
// Routing is deterministic single-path: every flow follows the embedded
// aggregation tree edge → agg0(pod) → core0 (no ECMP hashing — path
// choice would otherwise depend on map iteration or flow hashing and
// break the simulator's bit-for-bit reproducibility). The remaining
// aggs and cores are built and cabled so port counts and link budgets
// match a real fat-tree, but the default routes steer through the
// spine of the embedded tree, which is also where the in-switch
// aggregation hierarchy lives.
type FatTree struct {
	K            int
	HostsPerEdge int

	Cores []*Switch   // (k/2)² core switches; Cores[0] is the spine root
	Aggs  [][]*Switch // Aggs[pod][i], i < k/2; Aggs[pod][0] is on the spine
	Edges [][]*Switch // Edges[pod][i], i < k/2
	Hosts []*Host     // all workers, pod-major then edge-major order

	// PodOf[h] and EdgeOf[h] locate Hosts[h]'s pod and edge switch
	// (EdgeOf is the index within the pod).
	PodOf  []int
	EdgeOf []int

	// EdgeUplinks[pod][e] is edge e's port toward Aggs[pod][0];
	// AggUplinks[pod] is Aggs[pod][0]'s port toward Cores[0].
	EdgeUplinks [][]*Port
	AggUplinks  []*Port
}

// NumWorkers returns the host count: k pods × k/2 edges × hostsPerEdge.
func (ft *FatTree) NumWorkers() int { return len(ft.Hosts) }

// BuildFatTree wires a k-ary fat-tree. k must be even and ≥ 2;
// hostsPerEdge ≥ 1 (pass k/2 for the classic construction). edge is
// the host↔edge link, aggLink the edge↔agg link, coreLink the agg↔core
// link.
func BuildFatTree(k *sim.Kernel, kAry, hostsPerEdge int, edge, aggLink, coreLink LinkConfig) *FatTree {
	if kAry < 2 || kAry%2 != 0 {
		panic(fmt.Sprintf("netsim: fat-tree k must be even and >= 2, got %d", kAry))
	}
	if hostsPerEdge < 1 {
		panic(fmt.Sprintf("netsim: fat-tree hostsPerEdge must be >= 1, got %d", hostsPerEdge))
	}
	checkShape("fat-tree pods", kAry, MaxFatTreeK)
	checkShape("hosts per edge", hostsPerEdge, MaxFatTreeHostsPerEdge)
	half := kAry / 2
	ft := &FatTree{K: kAry, HostsPerEdge: hostsPerEdge}

	for c := 0; c < half*half; c++ {
		ft.Cores = append(ft.Cores, NewSwitch(k, fmt.Sprintf("core%d", c), DefaultSwitchDelay))
	}
	spineCore := ft.Cores[0]

	for pod := 0; pod < kAry; pod++ {
		var aggs, edges []*Switch
		var edgeUps []*Port

		for a := 0; a < half; a++ {
			agg := NewSwitch(k, fmt.Sprintf("pod%d/agg%d", pod, a), DefaultSwitchDelay)
			aggs = append(aggs, agg)
			// Each agg a connects to cores [a*half, (a+1)*half) — the
			// standard k-ary wiring, so every core sees every pod once.
			for i := 0; i < half; i++ {
				core := ft.Cores[a*half+i]
				aggUp, coreDown := Connect(k, coreLink,
					agg, fmt.Sprintf("pod%d/agg%d/up%d", pod, a, i),
					core, fmt.Sprintf("core%d/p%d", a*half+i, pod))
				agg.AddPort(aggUp)
				core.AddPort(coreDown)
				if a == 0 && i == 0 {
					// Spine uplink: agg0 defaults toward core0.
					agg.SetDefault(aggUp)
					ft.AggUplinks = append(ft.AggUplinks, aggUp)
				}
			}
		}

		for e := 0; e < half; e++ {
			edgeSw := NewSwitch(k, fmt.Sprintf("pod%d/edge%d", pod, e), DefaultSwitchDelay)
			edges = append(edges, edgeSw)
			// Cable edge e to every agg in the pod; the port toward
			// agg0 is the spine uplink and default route.
			var spineUp *Port
			var agg0Down *Port
			for a := 0; a < half; a++ {
				up, down := Connect(k, aggLink,
					edgeSw, fmt.Sprintf("pod%d/edge%d/up%d", pod, e, a),
					aggs[a], fmt.Sprintf("pod%d/agg%d/p%d", pod, a, e))
				edgeSw.AddPort(up)
				aggs[a].AddPort(down)
				if a == 0 {
					spineUp, agg0Down = up, down
				}
			}
			edgeSw.SetDefault(spineUp)
			edgeUps = append(edgeUps, spineUp)

			for h := 0; h < hostsPerEdge; h++ {
				addr := fatTreeAddr(pod, e, h)
				host := NewHost(k, addr)
				swPort, hostPort := Connect(k, edge,
					edgeSw, fmt.Sprintf("pod%d/edge%d/p%d", pod, e, h),
					host, addr.String())
				edgeSw.AddPort(swPort)
				host.SetPort(hostPort)
				// Downward routes on the spine: edge knows its hosts;
				// agg0 knows the pod's hosts via the edge; core0 knows
				// every host via the pod's agg0.
				edgeSw.AddRoute(protocol.Addr{IP: addr.IP}, swPort)
				aggs[0].AddRoute(protocol.Addr{IP: addr.IP}, agg0Down)
				ft.Hosts = append(ft.Hosts, host)
				ft.PodOf = append(ft.PodOf, pod)
				ft.EdgeOf = append(ft.EdgeOf, e)
			}
		}
		ft.Aggs = append(ft.Aggs, aggs)
		ft.Edges = append(ft.Edges, edges)
		ft.EdgeUplinks = append(ft.EdgeUplinks, edgeUps)
	}

	// Core0 downward routes: one prefix route per pod would need masked
	// routing; the route table is exact-IP, so add one entry per host,
	// steering down the pod's agg0 link. Core0's port toward pod p's
	// agg0 is its p-th port (cores connect pods in pod order).
	for h, host := range ft.Hosts {
		pod := ft.PodOf[h]
		spineCore.AddRoute(protocol.Addr{IP: host.Addr.IP}, spineCore.Ports()[pod])
	}
	return ft
}

const (
	// MaxFatTreeK bounds the pods to 0..253: below the switches' 11.255.*,
	// and switchnet.FatEdgeAddr's 2+pod still fits its byte.
	MaxFatTreeK = 254
	// MaxFatTreeHostsPerEdge: host 253 takes the last byte 255.
	MaxFatTreeHostsPerEdge = 254
)

// fatTreeAddr places fat-tree workers in 11.pod.edge.host — a separate
// /8 from the star (10.0.*), tree (10.1..31.*), and three-tier
// (10.32+.*) plans so topologies can never collide in route tables.
func fatTreeAddr(pod, edge, host int) protocol.Addr {
	return protocol.AddrFrom(11, byte(pod), byte(edge), byte(2+host), WorkerPort)
}
