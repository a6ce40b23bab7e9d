package main

import (
	"fmt"
	"sort"
)

// A metricDef names one number the benchmark prints. The tables below
// are the single source of the metric names: BENCHMARK.json is written
// from them (-spec) and the smoke test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the repository sees on every workload:
// how long a run takes to get going, and how much host time and memory
// one aggregation round costs. Every workload reports all three, none
// of them can be zero, and none is a simulated (exactly repeating)
// value. The simulated results, and the UDP-only throughput, latency
// and burst-ladder numbers, sit in perLayer; -check holds the simulated
// ones exact (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_ms_per_round", "ms", lower, 0.25},
	{"alloc_mb_per_round", "MB", lower, 0.05},
}

// perLayer lists every traced-run metric, grouped by the package it
// describes. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// Results of the run itself: simulated values repeat exactly.
	{Name: "sim_round_ms", Unit: "ms", Better: lower},
	{Name: "sim_wire_mb_per_round", Unit: "MB", Better: lower},
	{Name: "sim_sync_speedup_vs_ps", Unit: "x", Better: higher},
	{Name: "sim_async_speedup_vs_ps", Unit: "x", Better: higher},
	{Name: "sim_err_vs_paper_pct", Unit: "%", Better: lower},
	{Name: "rounds_per_s", Unit: "1/s", Better: higher},
	{Name: "round_ms_p50", Unit: "ms", Better: lower},
	{Name: "clean_segs_max", Unit: "segs", Better: higher},
	{Name: "failed_share", Unit: "ratio", Better: lower},

	// Layer drivers: unit costs of each package's public functions.
	{Name: "tensor.add_seg_ns", Unit: "ns", Better: lower},
	{Name: "tensor.add_gbps_64k", Unit: "GB/s", Better: higher},
	{Name: "protocol.segment_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "protocol.segment_allocs_per_frame", Unit: "count", Better: lower},
	{Name: "protocol.clone_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "protocol.assemble_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "protocol.append_payload_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "protocol.unmarshal_payload_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "protocol.unmarshal_allocs_per_frame", Unit: "count", Better: lower},
	{Name: "compress.encodeq_ns_per_seg", Unit: "ns", Better: lower},
	{Name: "compress.decodeq_ns_per_seg", Unit: "ns", Better: lower},
	{Name: "accel.ingest_f32_ns_per_seg", Unit: "ns", Better: lower},
	{Name: "accel.ingest_i32_ns_per_seg", Unit: "ns", Better: lower},
	{Name: "accel.ingest_allocs_per_seg", Unit: "count", Better: lower},
	{Name: "accel.shadow_putget_ns_per_seg", Unit: "ns", Better: lower},
	{Name: "sim.hold_events_per_s_q64", Unit: "1/s", Better: higher},
	{Name: "sim.hold_events_per_s_q16384", Unit: "1/s", Better: higher},
	{Name: "sim.allocs_per_event", Unit: "count", Better: lower},
	{Name: "sim.proc_handoff_ns", Unit: "ns", Better: lower},
	{Name: "sim.sleep_wake_ns_1024procs", Unit: "ns", Better: lower},
	{Name: "netsim.forward_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "netsim.events_per_pkt", Unit: "count", Better: lower},
	{Name: "netsim.forward_allocs_per_pkt", Unit: "count", Better: lower},
	{Name: "netsim.build_fattree_k8_ms", Unit: "ms", Better: lower},
	{Name: "switchnet.dataplane_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "switchnet.dataplane_allocs_per_frame", Unit: "count", Better: lower},
	{Name: "switchnet.join_ns", Unit: "ns", Better: lower},
	{Name: "transport.encode_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "transport.decode_ns_per_frame", Unit: "ns", Better: lower},

	// Counts read from the layers' public counters after the traced run.
	{Name: "accel.packets_in", Unit: "count", Better: lower},
	{Name: "accel.packets_out", Unit: "count", Better: lower},
	{Name: "accel.dup_dropped", Unit: "count", Better: lower},
	{Name: "accel.useful_ratio", Unit: "ratio", Better: higher},
	{Name: "sim.events", Unit: "count", Better: lower},
	{Name: "sim.events_per_round", Unit: "count", Better: lower},
	{Name: "sim.events_per_s", Unit: "1/s", Better: higher},
	{Name: "sim.procs", Unit: "count", Better: lower},
	{Name: "netsim.tx_packets", Unit: "count", Better: lower},
	{Name: "netsim.dropped", Unit: "count", Better: lower},
	{Name: "netsim.policed", Unit: "count", Better: lower},
	{Name: "netsim.hops_per_frame", Unit: "count", Better: lower},
	{Name: "netsim.queue_wait_us_p50", Unit: "us", Better: lower},
	{Name: "netsim.queue_wait_us_p99", Unit: "us", Better: lower},
	{Name: "switchnet.data_in", Unit: "count", Better: lower},
	{Name: "switchnet.broadcasts", Unit: "count", Better: lower},
	{Name: "switchnet.up_forwards", Unit: "count", Better: lower},
	{Name: "switchnet.help_served", Unit: "count", Better: lower},
	{Name: "switchnet.help_targeted", Unit: "count", Better: lower},
	{Name: "switchnet.help_relayed", Unit: "count", Better: lower},
	{Name: "switchnet.unknown_job_drops", Unit: "count", Better: lower},
	{Name: "switchnet.enc_mismatch_drops", Unit: "count", Better: lower},
	{Name: "core.build_ms", Unit: "ms", Better: lower},
	{Name: "core.sim_compute_share", Unit: "ratio", Better: higher},
	{Name: "core.sim_agg_share", Unit: "ratio", Better: lower},
	{Name: "core.sim_update_share", Unit: "ratio", Better: lower},
	{Name: "core.helps_sent", Unit: "count", Better: lower},
	{Name: "core.retransmits", Unit: "count", Better: lower},
	{Name: "core.recovery_ratio", Unit: "ratio", Better: lower},
	{Name: "multijob.fabric_build_ms", Unit: "ms", Better: lower},
	{Name: "multijob.admit_to_first_round_ms", Unit: "ms", Better: lower},
	{Name: "multijob.jobs_queued", Unit: "count", Better: lower},
	{Name: "multijob.rounds_total", Unit: "count", Better: higher},
	{Name: "transport.frames_per_s", Unit: "1/s", Better: higher},
	{Name: "transport.round_ms_p99", Unit: "ms", Better: lower},
	{Name: "transport.help_per_round", Unit: "ratio", Better: lower},
	{Name: "transport.timeouts", Unit: "count", Better: lower},
	{Name: "transport.switch_data_in", Unit: "count", Better: lower},
	{Name: "transport.switch_broadcasts", Unit: "count", Better: lower},
	{Name: "transport.rung_clean_share.segs28", Unit: "ratio", Better: higher},
	{Name: "transport.rung_clean_share.segs56", Unit: "ratio", Better: higher},
	{Name: "transport.rung_clean_share.segs112", Unit: "ratio", Better: higher},
	{Name: "transport.rung_clean_share.segs224", Unit: "ratio", Better: higher},
	{Name: "transport.rung_clean_share.segs448", Unit: "ratio", Better: higher},
	{Name: "transport.rung_rounds_per_s.segs28", Unit: "1/s", Better: higher},
	{Name: "transport.rung_rounds_per_s.segs56", Unit: "1/s", Better: higher},
	{Name: "transport.rung_rounds_per_s.segs112", Unit: "1/s", Better: higher},
	{Name: "transport.rung_rounds_per_s.segs224", Unit: "1/s", Better: higher},
	{Name: "transport.rung_rounds_per_s.segs448", Unit: "1/s", Better: higher},
	{Name: "host.heap_inuse_peak_mb", Unit: "MB", Better: lower},
	{Name: "host.gc_count", Unit: "count", Better: lower},
	{Name: "host.gomaxprocs", Unit: "count", Better: higher},
	{Name: "host.calib_ms", Unit: "ms", Better: lower},
	{Name: "host.speed_factor", Unit: "ratio", Better: lower},

	// The ledger: traced counts times driver unit costs, as a share of
	// the untraced host time per round.
	{Name: "ledger.share.sim", Unit: "ratio", Better: lower},
	{Name: "ledger.share.netsim", Unit: "ratio", Better: lower},
	{Name: "ledger.share.switchnet", Unit: "ratio", Better: lower},
	{Name: "ledger.share.accel", Unit: "ratio", Better: lower},
	{Name: "ledger.share.protocol", Unit: "ratio", Better: lower},
	{Name: "ledger.share.compress", Unit: "ratio", Better: lower},
	{Name: "ledger.explained_share", Unit: "ratio", Better: higher},
	{Name: "ledger.unexplained_ms_per_round", Unit: "ms", Better: lower},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
}

// ladderRungs are the burst sizes of udp-loopback's phase B, in
// segments per worker per round.
var ladderRungs = []int{28, 56, 112, 224, 448}

func rungMetric(kind string, segs int) string {
	return fmt.Sprintf("transport.rung_%s.segs%d", kind, segs)
}

// values maps metric names to measurements.
type values map[string]float64

func median(xs []float64) float64 { return quartiles(xs)[1] }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives, so spreads computed here match
// the ones the driver computes.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// percentile returns the p-th percentile (nearest rank) of s, which
// must be sorted.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(p/100*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
