package experiments

import (
	"fmt"
	"strings"
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/core"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
)

// Ablations for the design choices DESIGN.md calls out. These go beyond
// the paper's figures: each isolates one mechanism's contribution.

// AblationStaleness sweeps Algorithm 1's staleness bound S and reports
// commit/discard behaviour and mean staleness (async iSwitch, DQN-sized
// gradients, 4 workers).
func AblationStaleness() Result {
	w, _ := perfmodel.WorkloadByName("DQN")
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-12s %-12s %-16s %-14s\n", "S", "committed", "discarded", "mean staleness", "per-iter ms")
	bounds := []int64{0, 1, 3, 8}
	cells := parMap(len(bounds), func(i int) *core.AsyncStats {
		return simAsync(w, StratISW, 4, 0, 40, bounds[i])
	})
	for i, s := range bounds {
		stats := cells[i]
		fmt.Fprintf(&b, "%-4d %-12d %-12d %-16.2f %-14s\n",
			s, stats.Committed, stats.Discarded, stats.MeanStaleness(), ms(stats.MeanIter()))
	}
	b.WriteString("(larger S commits more but staler gradients; S=3 is the paper's setting)\n")
	return Result{ID: "ablation-staleness", Title: "Staleness bound sweep (async iSwitch)", Text: b.String()}
}

// AblationHierarchical compares hierarchical iSwitch aggregation
// (two-level ToR+root and the full three-tier ToR+AGG+core fabric)
// against a hypothetical flat 12-port accelerator switch, isolating
// what the hierarchy costs. DQN-sized gradients make the uplink hops
// visible.
func AblationHierarchical() Result {
	w, _ := perfmodel.WorkloadByName("DQN")
	var b strings.Builder
	sims := parMap(3, func(i int) *core.RunStats {
		switch i {
		case 0:
			return simSync(w, StratISW, 12, 0, 2)
		case 1:
			return simSync(w, StratISW, 12, 3, 2)
		default:
			return simSyncThreeTier(w, 2, 2, 3, 2)
		}
	})
	flat, tree, three := sims[0], sims[1], sims[2]
	fmt.Fprintf(&b, "12 workers, %s-sized gradients (%.2f MB):\n", w.Name, float64(w.ModelBytes)/1e6)
	fmt.Fprintf(&b, "  flat single iSwitch (hypothetical 12-port)  per-iter %8s ms (agg %8s ms)\n",
		ms(flat.MeanIter()), ms(flat.MeanAgg()))
	fmt.Fprintf(&b, "  two-level: 4 racks x 3 + root               per-iter %8s ms (agg %8s ms)\n",
		ms(tree.MeanIter()), ms(tree.MeanAgg()))
	fmt.Fprintf(&b, "  three-tier: 2 AGGs x 2 ToRs x 3 + core      per-iter %8s ms (agg %8s ms)\n",
		ms(three.MeanIter()), ms(three.MeanAgg()))
	b.WriteString("(finding: the hierarchy is essentially free — on-the-fly partial\n" +
		" aggregation keeps each uplink at 1x gradient of traffic and pipelining\n" +
		" hides the extra hops behind the edge-link serialization, which is why\n" +
		" the paper can scale with the existing rack network, §3.4)\n")
	return Result{ID: "ablation-hierarchical", Title: "Hierarchical vs flat iSwitch aggregation", Text: b.String()}
}

// simSyncThreeTier runs a sync timing simulation on the three-tier
// fabric.
func simSyncThreeTier(w perfmodel.Workload, nAGGs, torsPerAGG, hostsPerToR, iters int) *core.RunStats {
	edge, aggL, coreL := netsim.DefaultThreeTierLinks()
	cfg := core.ISWConfigFor(w)
	return simSyncSpec(w, core.ClusterSpec{
		Topology: core.TopoThreeTier, Mode: core.ModeISW,
		AGGs: nAGGs, ToRsPerAGG: torsPerAGG, HostsPerToR: hostsPerToR,
		ModelFloats: w.Floats(),
		Link:        edge, Uplink: aggL, CoreLink: coreL,
		ISW: &cfg,
	}, iters)
}

// AblationH sweeps the aggregation threshold H below the worker count
// (the SetH control knob) at the accelerator level, where its effect is
// directly observable: with 4 workers streaming one contribution each,
// H determines how many broadcasts fire per segment, how many
// contributions each carries, and how long the first aggregate takes to
// become available.
func AblationH() Result {
	var b strings.Builder
	const workers = 4
	fmt.Fprintf(&b, "%-4s %-22s %-24s %-24s\n",
		"H", "emissions (4 inputs)", "contributions/emission", "first-emission latency")
	for _, h := range []uint32{1, 2, 4} {
		cfg := accel.DefaultConfig()
		cfg.Threshold = h
		a := accel.New(cfg)
		data := make([]float32, protocol.FloatsPerPacket)
		for i := range data {
			data[i] = 1
		}
		var emissions int
		var firstAt time.Duration
		var elapsed time.Duration
		var firstSum float32
		for w := 0; w < workers; w++ {
			sum, done, lat := a.Ingest(0, data)
			elapsed += lat
			if done {
				emissions++
				if emissions == 1 {
					firstAt = elapsed
					firstSum = sum[0]
				}
			}
		}
		fmt.Fprintf(&b, "%-4d %-22d %-24.0f %-24s\n",
			h, emissions, firstSum, firstAt)
	}
	b.WriteString("(H=workers gives one full aggregate; smaller H trades aggregate\n" +
		" completeness for earlier availability — the SetH escape hatch the\n" +
		" control plane uses with FBcast when a worker goes missing)\n")
	return Result{ID: "ablation-h", Title: "Aggregation threshold (SetH) sweep", Text: b.String()}
}

// AblationMTU sweeps the gradient payload per packet, showing why
// packet-granular aggregation wants full-MTU packets.
func AblationMTU() Result {
	var b strings.Builder
	w, _ := perfmodel.WorkloadByName("A2C")
	fmt.Fprintf(&b, "%-18s %-14s\n", "floats/packet", "iSW agg ms")
	fracs := []int{1, 2, 4, 8}
	cells := parMap(len(fracs), func(fi int) *core.RunStats {
		cfg := core.DefaultISWConfig()
		cfg.FloatsPerPacket = protocol.FloatsPerPacket / fracs[fi]
		return simSyncSpec(w, core.ClusterSpec{
			Topology: core.TopoStar, Mode: core.ModeISW, Workers: 4,
			ModelFloats: w.Floats(), Link: netsim.TenGbE(), ISW: &cfg,
		}, 2)
	})
	for fi, frac := range fracs {
		fmt.Fprintf(&b, "%-18d %-14s\n", protocol.FloatsPerPacket/frac, ms(cells[fi].MeanAgg()))
	}
	b.WriteString("(smaller packets pay per-packet overheads more often; the paper fills MTU frames)\n")
	return Result{ID: "ablation-mtu", Title: "Packet payload size sweep", Text: b.String()}
}
