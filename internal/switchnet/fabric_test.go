package switchnet

import (
	"fmt"
	"strings"
	"testing"

	"iswitch/internal/engine"
	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// The one Fabric type's contract, over all four builders. The switch
// orders are the addresses ISWCluster.Switches() listed before Fabric
// existed (root, then each lower level in index order), recorded from
// that code: a netsim.SwitchFault.Switch index means what it meant.
func TestFabricContract(t *testing.T) {
	l := testLink()
	for _, tc := range []struct {
		name    string
		build   func(*sim.Kernel) *Fabric
		workers int
		order   string
	}{
		{"star", func(k *sim.Kernel) *Fabric { return BuildStar(k, 4, l) }, 4,
			"10.0.0.1"},
		{"tree-partial-last-rack", func(k *sim.Kernel) *Fabric { return BuildTreeN(k, 7, 3, l, l) }, 7,
			"10.255.0.1 10.255.1.1 10.255.2.1 10.255.3.1"},
		{"3tier", func(k *sim.Kernel) *Fabric { return BuildThreeTier(k, 2, 2, 2, l, l, l) }, 8,
			"10.255.0.1 10.254.1.1 10.254.2.1 10.255.1.1 10.255.2.1 10.255.3.1 10.255.4.1"},
		{"fattree", func(k *sim.Kernel) *Fabric { return BuildFatTree(k, 4, 2, l, l, l) }, 16,
			"11.255.0.1 11.255.1.1 11.255.1.2 11.255.1.3 11.255.1.4 " +
				"11.255.2.1 11.255.2.2 11.255.3.1 11.255.3.2 11.255.4.1 11.255.4.2 11.255.5.1 11.255.5.2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.build(sim.NewKernel())
			if len(f.Workers) != tc.workers {
				t.Fatalf("%d workers, want %d", len(f.Workers), tc.workers)
			}
			root := f.Switches[0]
			if root != f.IS || root.Uplink() != nil {
				t.Fatal("Switches[0] is not the root")
			}
			var order []string
			listed := make(map[*ISwitch]bool)
			byAddr := make(map[string]*ISwitch)
			for _, is := range f.Switches {
				if listed[is] {
					t.Fatalf("switch %v listed twice", is.Addr())
				}
				listed[is] = true
				byAddr[is.Addr().String()] = is
				order = append(order, strings.TrimSuffix(is.Addr().String(), fmt.Sprintf(":%d", SwitchPort)))
			}
			if got := strings.Join(order, " "); got != tc.order {
				t.Fatalf("switch order\n got %s\nwant %s", got, tc.order)
			}

			onChain := make(map[*ISwitch]bool)
			for i, w := range f.Workers {
				chain := f.Chain(i)
				if chain[len(chain)-1] != root {
					t.Fatalf("worker %d: chain does not end at the root", i)
				}
				if chain[0] != f.Leaf(i) {
					t.Fatalf("worker %d: Leaf is not the chain's first switch", i)
				}
				wired := false
				for _, p := range chain[0].Switch().Ports() {
					wired = wired || p == w.Port().Peer()
				}
				if !wired {
					t.Fatalf("worker %d: its NIC does not plug into %v", i, chain[0].Addr())
				}
				for lvl, is := range chain {
					onChain[is] = true
					if lvl+1 < len(chain) && (is.Uplink() == nil || is.parent != chain[lvl+1].Addr()) {
						t.Fatalf("worker %d: %v does not forward to %v", i, is.Addr(), chain[lvl+1].Addr())
					}
				}
			}
			if len(onChain) != len(listed) {
				t.Fatalf("chains cover %d switches, Switches lists %d", len(onChain), len(listed))
			}
			for is := range onChain {
				if !listed[is] {
					t.Fatalf("switch %v is on a chain but not listed", is.Addr())
				}
			}

			children := make(map[*ISwitch]int)
			for _, is := range f.Switches[1:] {
				parent := byAddr[is.parent.String()]
				if parent == nil {
					t.Fatalf("%v: parent %v is not in the fabric", is.Addr(), is.parent)
				}
				if m, ok := parent.Membership().Lookup(is.Addr()); !ok || m.Type != engine.MemberSwitch {
					t.Fatalf("%v is not a switch member of its parent %v", is.Addr(), parent.Addr())
				}
				children[parent]++
			}
			for parent, n := range children {
				if h := parent.Accelerator().Threshold(); int(h) != n {
					t.Fatalf("%v: auto-H = %d with %d child switches", parent.Addr(), h, n)
				}
			}
		})
	}
}

// The switches' own addresses take one byte per index too. At netsim's
// shape limits every switch and worker address of a fabric is distinct.
func TestSwitchAddressesDistinctAtBounds(t *testing.T) {
	l := testLink()
	seen := make(map[protocol.Addr]bool)
	add := func(t *testing.T, a protocol.Addr) {
		t.Helper()
		if seen[a] {
			t.Fatalf("duplicate address %v", a)
		}
		seen[a] = true
	}
	for name, build := range map[string]func(*sim.Kernel) *Fabric{
		"tree":       func(k *sim.Kernel) *Fabric { return BuildTreeN(k, netsim.MaxRacks, 1, l, l) },
		"3tier-aggs": func(k *sim.Kernel) *Fabric { return BuildThreeTier(k, netsim.MaxThreeTierToRs, 1, 1, l, l, l) },
		"3tier-tors": func(k *sim.Kernel) *Fabric { return BuildThreeTier(k, 1, netsim.MaxThreeTierToRs, 1, l, l, l) },
	} {
		t.Run(name, func(t *testing.T) {
			clear(seen)
			f := build(sim.NewKernel())
			for _, is := range f.Switches {
				add(t, is.Addr())
			}
			for _, w := range f.Workers {
				add(t, w.Addr)
			}
		})
	}
	// A fat-tree at MaxFatTreeK is too large to build in a test; its
	// switch plan is three pure functions.
	t.Run("fattree", func(t *testing.T) {
		clear(seen)
		add(t, FatCoreAddr())
		for p := 0; p < netsim.MaxFatTreeK; p++ {
			add(t, FatAggAddr(p))
			for e := 0; e < netsim.MaxFatTreeK/2; e++ {
				add(t, FatEdgeAddr(p, e))
			}
		}
	})
}
