package main

import (
	"runtime"
	"strconv"
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/compress"
	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
	"iswitch/internal/tensor/kernels"
	"iswitch/internal/transport"
)

// Layer drivers: tight loops over one layer's public functions, with
// inputs shaped like the workloads' (366-float segments, H=4 and H=16,
// full-MTU frames). They give the unit costs the ledger multiplies the
// traced counts by.

const (
	segFloats     = protocol.FloatsPerPacket
	driverBatches = 7
)

// timeOps runs fn, which performs ops operations, driverBatches times
// after a warm-up and returns the median host ns and the mallocs per
// operation.
func timeOps(ops int, fn func()) (ns, allocs float64) {
	fn()
	var before, after runtime.MemStats
	times := make([]float64, driverBatches)
	runtime.ReadMemStats(&before)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = float64(time.Since(start)) / float64(ops)
	}
	runtime.ReadMemStats(&after)
	return median(times), float64(after.Mallocs-before.Mallocs) / float64(ops*driverBatches)
}

func segment(scale float32) []float32 {
	data := make([]float32, segFloats)
	for i := range data {
		data[i] = float32(i%gridSpan) * gridStep * scale
	}
	return data
}

// runDrivers measures every layer's unit costs.
func runDrivers(o *options) values {
	v := values{}
	ops := o.sz.driverOps
	tensorDrivers(v, ops)
	protocolDrivers(v, ops)
	accelDrivers(v, ops)
	simDrivers(v, ops)
	netsimDrivers(v, ops)
	switchnetDrivers(v, ops)
	return v
}

func tensorDrivers(v values, ops int) {
	dst, src := make([]float32, 16384), make([]float32, 16384)
	v["tensor.add_seg_ns"], _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			kernels.Add(dst[:segFloats], src[:segFloats])
		}
	})
	big := ops/16 + 1
	ns, _ := timeOps(big, func() {
		for i := 0; i < big; i++ {
			kernels.Add(dst, src)
		}
	})
	v["tensor.add_gbps_64k"] = 4 * float64(len(dst)) / ns
}

func protocolDrivers(v values, ops int) {
	var src, dst protocol.Addr
	frames := ops
	if frames > 4379 { // a DQN gradient
		frames = 4379
	}
	grad := make([]float32, frames*segFloats)
	v["protocol.segment_ns_per_frame"], v["protocol.segment_allocs_per_frame"] = timeOps(frames, func() {
		for _, p := range protocol.Segment(src, dst, grad) {
			p.Release()
		}
	})
	pkts := protocol.Segment(src, dst, grad)
	v["protocol.clone_ns_per_frame"], _ = timeOps(frames, func() {
		for _, p := range pkts {
			p.PooledClone().Release()
		}
	})
	asm := protocol.NewAssembler(len(grad))
	v["protocol.assemble_ns_per_frame"], _ = timeOps(frames, func() {
		asm.Reset()
		for _, p := range pkts {
			if err := asm.Add(p); err != nil {
				panic(err)
			}
		}
	})

	frame := pkts[0]
	var buf []byte
	v["protocol.append_payload_ns_per_frame"], _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			buf, _ = protocol.AppendPayload(buf[:0], frame)
		}
	})
	v["protocol.unmarshal_payload_ns_per_frame"], v["protocol.unmarshal_allocs_per_frame"] = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			if _, err := protocol.UnmarshalPayload(src, dst, protocol.ToSData, buf); err != nil {
				panic(err)
			}
		}
	})
	var datagram []byte
	v["transport.encode_ns_per_frame"], _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			datagram, _ = transport.Encode(frame)
		}
	})
	v["transport.decode_ns_per_frame"], _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			if _, err := transport.Decode(src, dst, datagram); err != nil {
				panic(err)
			}
		}
	})

	const codecSegs = 64
	codec := compress.NewCodec(compress.Config{Scheme: protocol.CompInt32Block}, codecSegs*segFloats, segFloats)
	vals, out := segment(1), make([]float32, segFloats)
	var q []int32
	v["compress.encodeq_ns_per_seg"], _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			q = codec.EncodeQ(uint64(i%codecSegs), vals)
		}
	})
	v["compress.decodeq_ns_per_seg"], _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			codec.DecodeQ(uint64(i%codecSegs), q, 0, out)
		}
	})
}

func accelDrivers(v values, ops int) {
	names := make([]string, 16)
	for i := range names {
		names[i] = "10.0.0." + strconv.Itoa(i+2) + ":9999"
	}
	const liveSegs = 1024 // segments in flight, as in a streamed gradient

	cfg := accel.DefaultConfig()
	cfg.Threshold = 4
	a := accel.New(cfg)
	data := segment(1)
	v["accel.ingest_f32_ns_per_seg"], v["accel.ingest_allocs_per_seg"] = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			if sum, done, _ := a.IngestFrom(uint64(i/4%liveSegs), names[i%4], data); done {
				a.Recycle(sum)
			}
		}
	})

	cfg.Threshold = 16
	aq := accel.New(cfg)
	aq.SetDedup(true)
	q := make([]int32, segFloats)
	for i := range q {
		q[i] = int32(i % 1000)
	}
	v["accel.ingest_i32_ns_per_seg"], _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			if sum, _, done, _ := aq.IngestQFrom(uint64(i/16%liveSegs), names[i%16], q, 0); done {
				aq.RecycleQ(sum)
			}
		}
	})

	shadow := accel.NewShadowStore()
	v["accel.shadow_putget_ns_per_seg"], _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			tag := protocol.TagSeg(uint64(i/liveSegs), uint64(i%liveSegs))
			shadow.Put(tag, data)
			if _, ok := shadow.Get(tag); !ok {
				panic("benchmark: shadow slot lost")
			}
		}
	})
}

func simDrivers(v values, ops int) {
	hold := func(queue int) sim.HoldResult {
		rs := make([]float64, driverBatches)
		var last sim.HoldResult
		for i := range rs {
			last = sim.RunHold(sim.NewKernel(), queue, 10*ops, 1)
			rs[i] = last.EventsPerSec
		}
		last.EventsPerSec = median(rs)
		return last
	}
	small, large := hold(64), hold(16384)
	v["sim.hold_events_per_s_q64"] = small.EventsPerSec
	v["sim.hold_events_per_s_q16384"] = large.EventsPerSec
	v["sim.allocs_per_event"] = large.AllocsPerEvent

	// Two processes ping-ponging a channel: every message is one wake,
	// i.e. one goroutine-token hand-off through the kernel.
	ns, _ := timeOps(2*ops, func() {
		k := sim.NewKernel()
		ab, ba := sim.NewChan[int](k, "ab"), sim.NewChan[int](k, "ba")
		k.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				ab.Send(i)
				ba.Recv(p)
			}
		})
		k.Spawn("b", func(p *sim.Proc) {
			for {
				ba.Send(ab.Recv(p))
			}
		})
		k.Run()
		k.Shutdown()
	})
	v["sim.proc_handoff_ns"] = ns

	const procs = 1024
	wakes := ops/procs + 1
	ns, _ = timeOps(procs*wakes, func() {
		k := sim.NewKernel()
		for i := 0; i < procs; i++ {
			k.Spawn("sleeper", func(p *sim.Proc) {
				for j := 0; j < wakes; j++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
		k.Run()
		k.Shutdown()
	})
	v["sim.sleep_wake_ns_1024procs"] = ns
}

// drain empties a host's receive queue without a simulated process.
func drain(h *netsim.Host) int {
	n := 0
	for {
		p, ok := h.RX.TryRecv()
		if !ok {
			return n
		}
		p.Release()
		n++
	}
}

func netsimDrivers(v values, ops int) {
	data := segment(1)
	var events uint64
	ns, allocs := timeOps(ops, func() {
		k := sim.NewKernel()
		star := netsim.BuildStar(k, 2, netsim.TenGbE())
		from, to := star.Hosts[0], star.Hosts[1]
		for i := 0; i < ops; i++ {
			from.Send(protocol.NewPooledData(from.Addr, to.Addr, uint64(i), data))
		}
		k.Run()
		if drain(to) != ops {
			panic("benchmark: netsim driver lost frames")
		}
		events = k.Events()
	})
	v["netsim.forward_ns_per_pkt"] = ns
	v["netsim.forward_allocs_per_pkt"] = allocs
	v["netsim.events_per_pkt"] = float64(events) / float64(ops)

	edge := netsim.TenGbE()
	ms, _ := timeOps(1, func() { netsim.BuildFatTree(sim.NewKernel(), 8, 32, edge, edge, edge) })
	v["netsim.build_fattree_k8_ms"] = ms / 1e6
}

// switchnetDrivers feeds pre-segmented frames from raw hosts into a
// 4-worker star and drains the broadcasts: the switch data plane with
// no core client and no simulated process on either side.
func switchnetDrivers(v values, ops int) {
	const workers = 4
	data := segment(1)
	rounds := ops / workers
	var events, tx uint64
	var joinNs float64
	ns, allocs := timeOps(rounds*workers, func() {
		k := sim.NewKernel()
		c := switchnet.BuildStar(k, workers, netsim.TenGbE())
		start := time.Now()
		for _, h := range c.Workers {
			join := protocol.NewControl(h.Addr, c.IS.Addr(), protocol.ActionJoin, protocol.JoinValue(uint64(rounds*segFloats)))
			h.Send(join)
		}
		k.Run()
		joinNs = float64(time.Since(start)) / workers
		for _, h := range c.Workers {
			if drain(h) != 1 {
				panic("benchmark: join not acknowledged")
			}
		}
		for s := 0; s < rounds; s++ {
			for _, h := range c.Workers {
				h.Send(protocol.NewPooledData(h.Addr, c.IS.Addr(), uint64(s), data))
			}
		}
		k.Run()
		for _, h := range c.Workers {
			if drain(h) != rounds {
				panic("benchmark: switchnet driver lost broadcasts")
			}
		}
		events, tx = k.Events(), 0
		for _, p := range portsOf(c.Workers, nil) {
			tx += p.TxPackets
		}
	})
	frames := float64(rounds * workers)
	v["switchnet.dataplane_ns_per_frame"] = ns
	v["switchnet.dataplane_allocs_per_frame"] = allocs
	v["switchnet.join_ns"] = joinNs

	// What the frame paid to the layers beneath the switch, by the other
	// drivers' unit costs: its events, its transmissions, one ingest and
	// its share of the broadcast clones.
	eventNs := 1e9 / v["sim.hold_events_per_s_q64"]
	netsimNs := pos(v["netsim.forward_ns_per_pkt"]-v["netsim.events_per_pkt"]*eventNs) / 2
	below := float64(events)/frames*eventNs + float64(tx)/frames*netsimNs +
		v["accel.ingest_f32_ns_per_seg"] + v["protocol.clone_ns_per_frame"]
	v["switchnet.dataplane_self_ns_per_frame"] = ns - below
}
