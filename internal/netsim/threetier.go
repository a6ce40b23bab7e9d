package netsim

import (
	"fmt"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// ThreeTier is the full datacenter shape of the paper's Figure 10:
// workers under ToR switches, ToRs under aggregation (AGG) switches,
// AGGs under one core switch.
type ThreeTier struct {
	Core  *Switch
	AGGs  []*Switch
	ToRs  []*Switch
	Hosts []*Host

	// ToROf[i] is the ToR index of Hosts[i]; AGGOf[t] the AGG index of
	// ToR t.
	ToROf []int
	AGGOf []int
	// ToRUplinks[t] is ToR t's port toward its AGG; AGGUplinks[a] is
	// AGG a's port toward the core.
	ToRUplinks []*Port
	AGGUplinks []*Port
}

// BuildThreeTier wires nAGGs aggregation switches, each over torsPerAGG
// ToR switches, each over hostsPerToR workers. Edge links join workers
// to ToRs; aggLink joins ToRs to AGGs; coreLink joins AGGs to the core.
func BuildThreeTier(k *sim.Kernel, nAGGs, torsPerAGG, hostsPerToR int, edge, aggLink, coreLink LinkConfig) *ThreeTier {
	checkShape("three-tier ToRs", nAGGs*torsPerAGG, MaxThreeTierToRs)
	checkShape("hosts per ToR", hostsPerToR, MaxHostsPerSwitch)
	core := NewSwitch(k, "core", DefaultSwitchDelay)
	tt := &ThreeTier{Core: core}

	torIdx := 0
	for a := 0; a < nAGGs; a++ {
		agg := NewSwitch(k, fmt.Sprintf("agg%d", a), DefaultSwitchDelay)
		aggUp, coreDown := Connect(k, coreLink,
			agg, fmt.Sprintf("agg%d/up", a),
			core, fmt.Sprintf("core/p%d", a))
		agg.AddPort(aggUp)
		core.AddPort(coreDown)
		agg.SetDefault(aggUp)
		tt.AGGs = append(tt.AGGs, agg)
		tt.AGGUplinks = append(tt.AGGUplinks, aggUp)

		for tor := 0; tor < torsPerAGG; tor++ {
			t := NewSwitch(k, fmt.Sprintf("tor%d", torIdx), DefaultSwitchDelay)
			torUp, aggDown := Connect(k, aggLink,
				t, fmt.Sprintf("tor%d/up", torIdx),
				agg, fmt.Sprintf("agg%d/p%d", a, tor))
			t.AddPort(torUp)
			agg.AddPort(aggDown)
			t.SetDefault(torUp)
			tt.ToRs = append(tt.ToRs, t)
			tt.ToRUplinks = append(tt.ToRUplinks, torUp)
			tt.AGGOf = append(tt.AGGOf, a)

			for h := 0; h < hostsPerToR; h++ {
				addr := threeTierAddr(torIdx, h)
				host := NewHost(k, addr)
				torPort, hostPort := Connect(k, edge,
					t, fmt.Sprintf("tor%d/p%d", torIdx, h),
					host, addr.String())
				t.AddPort(torPort)
				host.SetPort(hostPort)
				t.AddRoute(protocol.Addr{IP: addr.IP}, torPort)
				agg.AddRoute(protocol.Addr{IP: addr.IP}, aggDown)
				core.AddRoute(protocol.Addr{IP: addr.IP}, coreDown)
				tt.Hosts = append(tt.Hosts, host)
				tt.ToROf = append(tt.ToROf, torIdx)
			}
			torIdx++
		}
	}
	return tt
}

// MaxThreeTierToRs bounds AGGs × ToRs per AGG: second bytes 32..253.
const MaxThreeTierToRs = 222

// threeTierAddr places workers in 10.32+tor.0.x to avoid colliding with
// the star (10.0.*) and two-level (10.1..31.*) address plans.
func threeTierAddr(tor, host int) protocol.Addr {
	return protocol.AddrFrom(10, byte(32+tor), 0, byte(2+2*host), WorkerPort)
}

// DefaultThreeTierLinks returns the paper's link speeds per layer: 10GbE
// edge, 40GbE ToR→AGG, 100GbE AGG→core (§3.4: "40Gb to 100Gb").
func DefaultThreeTierLinks() (edge, agg, core LinkConfig) {
	edge = TenGbE()
	agg = FortyGbE()
	core = LinkConfig{BitsPerSecond: 100e9, Propagation: 500 * time.Nanosecond,
		PerPacketOverhead: 300 * time.Nanosecond}
	return edge, agg, core
}
