package netsim

import (
	"fmt"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// Topology builders for the two cluster shapes in the paper: a single
// switch with directly attached workers (the main 4-node testbed,
// Figure 1) and the two-level rack-scale hierarchy (Figure 10: a root
// switch over multiple ToR switches with three workers per rack).

// DefaultSwitchDelay is the per-packet forwarding pipeline of a
// commodity 10GbE ToR switch.
const DefaultSwitchDelay = 1 * time.Microsecond

// WorkerPort is the UDP port workers bind, matching the paper's
// membership-table example.
const WorkerPort = 9999

// HostAddr returns the canonical address of host h in rack r,
// 10.rack.0.(2+2·host). Every plan spends one address byte per index;
// past the Max* limit beside it a byte would wrap onto another host's
// address and the two routes overwrite each other. The builders panic
// there (core.ClusterSpec.ResolveFabric rejects the spec first).
func HostAddr(rack, host int) protocol.Addr {
	return protocol.AddrFrom(10, byte(rack), 0, byte(2+2*host), WorkerPort)
}

const (
	// MaxHostsPerSwitch bounds a star, a rack and a three-tier ToR: host
	// 126 takes the last byte 254.
	MaxHostsPerSwitch = 127
	// MaxRacks bounds a Tree: rack bytes 1..253, below the 10.254.* and
	// 10.255.* of the aggregation switches' own addresses.
	MaxRacks = 253
)

func checkShape(what string, got, limit int) {
	if got > limit {
		panic(fmt.Sprintf("netsim: %d %s is past the address plan's limit of %d", got, what, limit))
	}
}

// Star is a single switch with n directly attached hosts.
type Star struct {
	Switch *Switch
	Hosts  []*Host
}

// BuildStar wires n hosts to one switch over identical links and
// installs host routes.
func BuildStar(k *sim.Kernel, n int, link LinkConfig) *Star {
	checkShape("hosts on a star", n, MaxHostsPerSwitch)
	sw := NewSwitch(k, "sw0", DefaultSwitchDelay)
	st := &Star{Switch: sw}
	for i := 0; i < n; i++ {
		addr := HostAddr(0, i)
		h := NewHost(k, addr)
		swPort, hostPort := Connect(k, link,
			sw, fmt.Sprintf("sw0/p%d", i),
			h, addr.String())
		sw.AddPort(swPort)
		h.SetPort(hostPort)
		sw.AddRoute(protocol.Addr{IP: addr.IP}, swPort)
		st.Hosts = append(st.Hosts, h)
	}
	return st
}

// AttachHost adds one more host (e.g. a parameter server) to the star.
func (s *Star) AttachHost(k *sim.Kernel, addr protocol.Addr, link LinkConfig) *Host {
	h := NewHost(k, addr)
	i := len(s.Switch.ports)
	swPort, hostPort := Connect(k, link,
		s.Switch, fmt.Sprintf("%s/p%d", s.Switch.name, i),
		h, addr.String())
	s.Switch.AddPort(swPort)
	h.SetPort(hostPort)
	s.Switch.AddRoute(protocol.Addr{IP: addr.IP}, swPort)
	s.Hosts = append(s.Hosts, h)
	return h
}

// Tree is the two-level rack-scale topology: Root over ToRs over hosts.
type Tree struct {
	Root  *Switch
	ToRs  []*Switch
	Hosts []*Host // rack-major order
	// RackOf[i] is the rack index of Hosts[i].
	RackOf []int
	// Uplinks[r] is the ToR-side port of rack r's uplink to the root.
	Uplinks []*Port
}

// BuildRacksN builds enough racks of up to hostsPerRack workers to hold
// totalHosts (the last rack may be partial) — how a 4-node job sits in
// a 3-port-per-rack cluster.
func BuildRacksN(k *sim.Kernel, totalHosts, hostsPerRack int, edge, uplink LinkConfig) *Tree {
	nRacks := (totalHosts + hostsPerRack - 1) / hostsPerRack
	tr := BuildRacks(k, nRacks, hostsPerRack, edge, uplink)
	return tr.trim(totalHosts)
}

// trim drops hosts beyond n (they remain wired but unused).
func (t *Tree) trim(n int) *Tree {
	if n < len(t.Hosts) {
		t.Hosts = t.Hosts[:n]
		t.RackOf = t.RackOf[:n]
	}
	return t
}

// AttachRootHost connects an extra host (e.g. a parameter server)
// directly to the root switch and installs routes everywhere.
func (t *Tree) AttachRootHost(k *sim.Kernel, addr protocol.Addr, link LinkConfig) *Host {
	h := NewHost(k, addr)
	i := len(t.Root.ports)
	rootPort, hostPort := Connect(k, link,
		t.Root, fmt.Sprintf("core/ps%d", i),
		h, addr.String())
	t.Root.AddPort(rootPort)
	h.SetPort(hostPort)
	t.Root.AddRoute(protocol.Addr{IP: addr.IP}, rootPort)
	// ToRs reach it via their default (uplink) route already.
	return h
}

// BuildRacks builds nRacks racks of hostsPerRack workers. Edge links
// connect hosts to their ToR; uplink links connect ToRs to the root.
func BuildRacks(k *sim.Kernel, nRacks, hostsPerRack int, edge, uplink LinkConfig) *Tree {
	checkShape("tree racks", nRacks, MaxRacks)
	checkShape("hosts per rack", hostsPerRack, MaxHostsPerSwitch)
	root := NewSwitch(k, "core", DefaultSwitchDelay)
	tr := &Tree{Root: root}
	for r := 0; r < nRacks; r++ {
		tor := NewSwitch(k, fmt.Sprintf("tor%d", r), DefaultSwitchDelay)
		torUp, rootDown := Connect(k, uplink,
			tor, fmt.Sprintf("tor%d/up", r),
			root, fmt.Sprintf("core/p%d", r))
		tor.AddPort(torUp)
		root.AddPort(rootDown)
		tor.SetDefault(torUp)
		tr.ToRs = append(tr.ToRs, tor)
		tr.Uplinks = append(tr.Uplinks, torUp)

		for hIdx := 0; hIdx < hostsPerRack; hIdx++ {
			addr := HostAddr(r+1, hIdx) // rack byte 1-based; 10.0.* is the star
			h := NewHost(k, addr)
			torPort, hostPort := Connect(k, edge,
				tor, fmt.Sprintf("tor%d/p%d", r, hIdx),
				h, addr.String())
			tor.AddPort(torPort)
			h.SetPort(hostPort)
			tor.AddRoute(protocol.Addr{IP: addr.IP}, torPort)
			root.AddRoute(protocol.Addr{IP: addr.IP}, rootDown)
			tr.Hosts = append(tr.Hosts, h)
			tr.RackOf = append(tr.RackOf, r)
		}
	}
	return tr
}
