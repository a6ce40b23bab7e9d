package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// minRepeats is the least number of timed repeats behind a median; a
// traced pass, whose numbers are counts and shares, makes do with two
// of each kind.
const (
	minRepeats       = 3
	minTracedRepeats = 2
)

// pass runs one discarded warm-up repeat and then timed repeats until
// the budget is spent. With a tracer, untraced and traced repeats
// alternate, so both see the same machine state and their difference
// is the cost of tracing. calibMs are the reference-loop times taken
// before each repeat (see calib.go).
func pass(w *workload, o *options, budget time.Duration, tr *tracer) (plain, traced []*repeat, calibMs []float64, err error) {
	one := func(t *tracer, parent int) (*repeat, error) {
		// Each repeat starts from a collected heap, so a repeat does not
		// pay for its predecessor's garbage.
		runtime.GC()
		calibMs = append(calibMs, calibrate()...)
		return w.repeat(o, t, parent)
	}
	if _, err := one(nil, 0); err != nil {
		return nil, nil, nil, err
	}
	calibMs = calibMs[:0]
	root := 0
	if tr != nil {
		root = tr.begin(w.Name, 0)
		defer tr.end(root)
	}
	least := minRepeats
	if tr != nil {
		least = minTracedRepeats
	}
	start := time.Now()
	for len(plain) < least || time.Since(start) < budget {
		r, err := one(nil, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		plain = append(plain, r)
		if tr != nil {
			if r, err = one(tr, root); err != nil {
				return nil, nil, nil, err
			}
			traced = append(traced, r)
		}
	}
	return plain, traced, append(calibMs, calibrate()...), nil
}

// spread is a metric's distribution over the repeats behind it.
type spread struct {
	Q1, Median, Q3 float64
	Repeats        int
}

func spreadOf(rs []*repeat, f func(*repeat) float64) spread {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	q := quartiles(xs)
	return spread{q[0], q[1], q[2], len(xs)}
}

func medianOf(rs []*repeat, f func(*repeat) float64) float64 { return spreadOf(rs, f).Median }

func wallMsPerRound(r *repeat) float64 { return float64(r.run) / 1e6 / float64(r.rounds) }

// sameExact reports the first exact value that differs between two
// repeats of one deterministic workload.
func sameExact(a, b *repeat) error {
	for k, v := range a.exact {
		if b.exact[k] != v {
			return fmt.Errorf("%s differs between repeats: %v and %v", k, v, b.exact[k])
		}
	}
	return nil
}

// runWorkload measures one workload the way the command line asks:
// end-to-end metrics with tracing off, or per-layer metrics from a
// traced pass plus the layer drivers.
func runWorkload(w *workload, o *options) (*result, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	var tr *tracer
	if o.trace {
		tr = newTracer()
		budget = budget * 6 / 10 // the layer drivers get the rest
	}
	plain, traced, calibMs, err := pass(w, o, budget, tr)
	if err != nil {
		return nil, err
	}
	speed := median(calibMs) / calibRefMs
	res := &result{Correct: true, Metrics: map[string]metric{}, Spreads: map[string]spread{}}
	all := append(append([]*repeat(nil), plain...), traced...)
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if err := sameExact(all[0], r); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			res.Correct = false
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}

	if !o.trace {
		res.Spreads = map[string]spread{
			"setup_s":            spreadOf(plain, func(r *repeat) float64 { return r.setup.Seconds() / speed }),
			"wall_ms_per_round":  spreadOf(plain, func(r *repeat) float64 { return wallMsPerRound(r) / speed }),
			"alloc_mb_per_round": spreadOf(plain, func(r *repeat) float64 { return float64(r.alloc) / 1e6 / float64(r.rounds) }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metric{res.Spreads[m.Name].Median, m.Unit}
		}
		res.Notes = fmt.Sprintf("raw clock: wall_ms_per_round %.6g setup_s %.6g calib_ms %.6g speed_factor %.4f over %d repeats",
			medianOf(plain, wallMsPerRound), medianOf(plain, func(r *repeat) float64 { return r.setup.Seconds() }),
			median(calibMs), speed, len(plain))
		return res, nil
	}

	v := layerValues(w, o, plain, traced, tr, res.Spreads)
	v["host.calib_ms"], v["host.speed_factor"] = median(calibMs), speed
	v["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	for _, m := range perLayer {
		res.Metrics[m.Name] = metric{v[m.Name], m.Unit}
	}
	if err := tr.write(o.traceFile); err != nil {
		return nil, err
	}
	return res, nil
}

// layerValues turns a traced pass into the per-layer metrics: counts
// and simulated results from the repeats, unit costs from the layer
// drivers, and the ledger that multiplies the two. The quartiles of
// the host-time values go into spreads.
func layerValues(w *workload, o *options, plain, traced []*repeat, tr *tracer, spreads map[string]spread) values {
	v := values{}
	t0 := traced[0]
	for k, x := range t0.exact {
		v[k] = x
	}
	for k := range t0.host {
		k := k
		spreads[k] = spreadOf(traced, func(r *repeat) float64 { return r.host[k] })
		v[k] = spreads[k].Median
	}
	wall := medianOf(plain, wallMsPerRound)
	var roundMs []float64
	for _, r := range plain {
		roundMs = append(roundMs, r.roundMs...)
	}
	v["round_ms_p50"] = median(roundMs)
	v["trace.overhead_share"] = (medianOf(traced, wallMsPerRound) - wall) / wall
	v["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	sort.Float64s(tr.waits)
	v["netsim.queue_wait_us_p50"] = percentile(tr.waits, 50)
	v["netsim.queue_wait_us_p99"] = percentile(tr.waits, 99)
	if w.extra != nil {
		for k, x := range w.extra(o) {
			v[k] = x
		}
	}
	for k, x := range runDrivers(o) {
		v[k] = x
	}
	if v["sim.events"] == 0 {
		return v // nothing was simulated: no ledger
	}

	rounds := float64(t0.rounds)
	v["sim.events_per_s"] = v["sim.events"] / (wall * rounds / 1e3)
	if in := v["accel.packets_in"]; in > 0 {
		v["accel.useful_ratio"] = (in - v["accel.dup_dropped"]) / in
	}
	if tx := v["netsim.host_tx_packets"]; tx > 0 {
		v["netsim.hops_per_frame"] = v["netsim.tx_packets"] / tx
		v["core.recovery_ratio"] = (v["core.helps_sent"] + v["core.retransmits"]) / tx
	}
	if total := v["core.sim_compute_ns"] + v["core.sim_agg_ns"] + v["core.sim_update_ns"]; total > 0 {
		v["core.sim_compute_share"] = v["core.sim_compute_ns"] / total
		v["core.sim_agg_share"] = v["core.sim_agg_ns"] / total
		v["core.sim_update_share"] = v["core.sim_update_ns"] / total
	}
	ledger(v, wall, rounds)
	return v
}

// ledger multiplies the traced pass's counts by the drivers' unit
// costs, per layer, and sets the products against the untraced host
// time of a round: end to end = sum of layers + unexplained. Unit costs
// are self costs: what a driver measured minus the layers beneath it,
// so no nanosecond is counted twice.
func ledger(v values, wallMsPerRound, rounds float64) {
	eventNs := 1e9 / v["sim.hold_events_per_s_q64"]
	if v["sim.procs"] > 64 { // a thousand processes keep thousands of events queued
		eventNs = 1e9 / v["sim.hold_events_per_s_q16384"]
	}
	hostTx, tx := v["netsim.host_tx_packets"], v["netsim.tx_packets"]
	hostRx := v["netsim.host_rx_packets"]

	// sim: every event costs a queue operation; every frame an end host
	// receives wakes its process through the goroutine hand-off.
	sim := v["sim.events"]*eventNs + hostRx*v["sim.proc_handoff_ns"]
	// netsim: a forwarded packet is two transmissions and its events.
	netsimNs := pos(v["netsim.forward_ns_per_pkt"]-v["netsim.events_per_pkt"]*eventNs) / 2
	netsim := tx * netsimNs
	// accel: one ingest per contribution (plus the shadow slot when the
	// recovery path keeps one).
	encoded, decoded := v["compress.encoded_segs"], v["compress.decoded_segs"]
	ingest, i32 := v["accel.ingest_f32_ns_per_seg"], encoded > 0
	if i32 {
		ingest = v["accel.ingest_i32_ns_per_seg"]
	}
	accel := v["accel.packets_in"] * ingest
	if i32 {
		accel += v["accel.packets_out"] * v["accel.shadow_putget_ns_per_seg"]
	}
	// protocol: workers segment what they send and assemble what they
	// get; every broadcast copy is a clone.
	clones := pos(tx - hostTx - v["switchnet.up_forwards"])
	protocol := hostTx*v["protocol.segment_ns_per_frame"] + hostRx*v["protocol.assemble_ns_per_frame"] +
		clones*v["protocol.clone_ns_per_frame"]
	// compress: the int32 codec runs once per frame sent and received.
	compress := encoded*v["compress.encodeq_ns_per_seg"] + decoded*v["compress.decodeq_ns_per_seg"]
	// switchnet: the data-plane driver's frame cost minus everything
	// above that the same frame also paid for.
	switchnet := v["switchnet.data_in"] * pos(v["switchnet.dataplane_self_ns_per_frame"])

	wallNs := wallMsPerRound * 1e6 * rounds
	explained := 0.0
	for _, l := range []struct {
		name string
		ns   float64
	}{{"sim", sim}, {"netsim", netsim}, {"switchnet", switchnet}, {"accel", accel},
		{"protocol", protocol}, {"compress", compress}} {
		v["ledger.share."+l.name] = l.ns / wallNs
		explained += l.ns
	}
	v["ledger.explained_share"] = explained / wallNs
	v["ledger.unexplained_ms_per_round"] = (wallNs - explained) / 1e6 / rounds
}

func pos(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}
