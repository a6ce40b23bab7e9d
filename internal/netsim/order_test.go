package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// Order differential for the port FIFO. A link keeps its in-flight
// frames in a sim.FIFO with one pending kernel event; the model it
// replaced scheduled one After per frame. The two must deliver the same
// frames at the same times in the same order, on both schedulers, with
// the same number of kernel events. The reference below is that older
// model, written out in the test: a star of recording hosts around one
// store-and-forward node, every arrival and every pipeline exit its own
// closure. Frames carry job tags, and every port's per-job byte ledger
// must match the reference's tally, dropped frames included. Half the
// bursts leave their host as one train (Port.SendTrain), whose frames
// are made as they arrive; the reference sends them one by one.

// arrival is one frame reaching a host.
type arrival struct {
	at    sim.Time
	host  int
	seg   uint64
	bytes int
}

// orderScript is a seeded traffic pattern and fault plan for a star of
// hosts. Ports are numbered host-side transmitters first (0..hosts-1),
// then the switch-side ones.
type orderScript struct {
	hosts  int
	bursts []orderBurst
	faults []orderFault
}

type orderBurst struct {
	at       sim.Time
	from, to int
	frames   int
	floats   int
	job      protocol.JobID
	train    bool // sent as one train from its host
}

// orderJobs are the tags a burst may carry: the unmetered default job,
// the low IDs multijob numbers its jobs with, and the serving tier's.
var orderJobs = []protocol.JobID{protocol.DefaultJob, 1, 2, 3, 1000}

type orderFault struct {
	port        int
	lossRate    float64
	lossSeed    int64
	dropNth     []uint64
	from, until sim.Time // down window, if until > from
}

// orderLink: 1 byte/ns and frame sizes of 150, 450 and 1450 bytes keep
// every time on a 50 ns grid, so arrivals on different ports tie often.
func orderLink() LinkConfig {
	return LinkConfig{BitsPerSecond: 8e9, Propagation: 100 * time.Nanosecond}
}

const orderSwitchDelay = 200 * time.Nanosecond

func newOrderScript(seed int64, hosts, bursts int) orderScript {
	rng := rand.New(rand.NewSource(seed))
	s := orderScript{hosts: hosts}
	sizes := []int{25, 100, 350}
	for i := 0; i < bursts; i++ {
		b := orderBurst{
			at:     sim.Time(rng.Intn(200)) * 50 * time.Nanosecond,
			from:   rng.Intn(hosts),
			frames: 1 + rng.Intn(12),
			floats: sizes[rng.Intn(len(sizes))],
		}
		b.to = (b.from + 1 + rng.Intn(hosts-1)) % hosts
		s.bursts = append(s.bursts, b)
	}
	for port := 0; port < 2*hosts; port++ {
		f := orderFault{port: port}
		switch rng.Intn(4) {
		case 0:
			f.lossRate, f.lossSeed = 0.05+0.3*rng.Float64(), rng.Int63()
		case 1:
			for n := rng.Intn(4); n >= 0; n-- {
				f.dropNth = append(f.dropNth, uint64(1+rng.Intn(30)))
			}
		case 2:
			f.from = sim.Time(rng.Intn(100)) * 50 * time.Nanosecond
			f.until = f.from + sim.Time(1+rng.Intn(60))*50*time.Nanosecond
		}
		s.faults = append(s.faults, f)
	}
	for i := range s.bursts {
		s.bursts[i].job = orderJobs[rng.Intn(len(orderJobs))]
	}
	// Drawn last, so a seed's traffic and faults stay what they were
	// before trains existed.
	for i := range s.bursts {
		s.bursts[i].train = rng.Intn(2) == 0
	}
	return s
}

// play schedules the script's bursts on k and runs it; send transmits
// a frame from a host's NIC, and train, when set, a train burst whole.
// It returns the trains it sent.
func (s orderScript) play(k *sim.Kernel, send func(host int, pkt *protocol.Packet), train func(host int, t Train)) []*orderTrain {
	var trains []*orderTrain
	seg := uint64(0)
	for _, b := range s.bursts {
		b := b
		t := &orderTrain{b: b, first: seg, settled: make([]bool, b.frames)}
		seg += uint64(b.frames)
		k.After(b.at, func() {
			if b.train && train != nil {
				trains = append(trains, t)
				train(b.from, t)
				return
			}
			for i := 0; i < b.frames; i++ {
				send(b.from, t.frame(i))
			}
		})
	}
	k.Run()
	return trains
}

// orderTrain is a burst as a Train; it fails the run if a frame is
// settled twice.
type orderTrain struct {
	b       orderBurst
	first   uint64
	settled []bool
}

func (t *orderTrain) Len() int            { return t.b.frames }
func (t *orderTrain) Job() protocol.JobID { return t.b.job }
func (t *orderTrain) WireLen(int) int     { return protocol.DataWireLen(protocol.CompNone, t.b.floats) }
func (t *orderTrain) Frame(i int) *protocol.Packet {
	t.settle(i)
	return t.frame(i)
}
func (t *orderTrain) Drop(i int) { t.settle(i) }

func (t *orderTrain) settle(i int) {
	if t.settled[i] {
		panic(fmt.Sprintf("train frame %d settled twice", i))
	}
	t.settled[i] = true
}

// frame is the burst's frame i, made from scratch.
func (t *orderTrain) frame(i int) *protocol.Packet {
	pkt := dataPkt(HostAddr(0, t.b.from), HostAddr(0, t.b.to), t.first+uint64(i), t.b.floats)
	pkt.Job = t.b.job
	return pkt
}

// recorder is a host that only notes what reaches it.
type recorder struct {
	k     *sim.Kernel
	host  int
	trace *[]arrival
}

func (r *recorder) Deliver(pkt *protocol.Packet, _ *Port) {
	*r.trace = append(*r.trace, arrival{r.k.Now(), r.host, pkt.Seg, pkt.WireLen()})
}

// orderRun is what one play of a script shows: the deliveries, the
// kernel events, and each port's transmitted bytes per orderJobs entry.
// A production run also has each port's counters.
type orderRun struct {
	trace    []arrival
	events   uint64
	tx       [][]uint64
	counters []portCounters
}

type portCounters struct{ txPackets, txBytes, dropped, policed uint64 }

// runProduction plays the script over real Ports and a real Switch,
// train bursts as trains.
func runProduction(k *sim.Kernel, s orderScript) orderRun {
	return playPorts(k, s, true, nil)
}

// playPorts plays the script over real Ports and a real Switch. trains
// says whether a train burst goes out as one; shaper, when set, makes
// each port's egress shaper.
func playPorts(k *sim.Kernel, s orderScript, trains bool, shaper func() Shaper) orderRun {
	var trace []arrival
	sw := NewSwitch(k, "sw", orderSwitchDelay)
	ports := make([]*Port, 2*s.hosts)
	for h := 0; h < s.hosts; h++ {
		swPort, hostPort := Connect(k, orderLink(), sw, fmt.Sprintf("sw/p%d", h),
			&recorder{k, h, &trace}, fmt.Sprintf("h%d", h))
		sw.AddPort(swPort)
		sw.AddRoute(HostAddr(0, h), swPort)
		ports[h], ports[s.hosts+h] = hostPort, swPort
	}
	for _, f := range s.faults {
		p := ports[f.port]
		if f.lossRate > 0 {
			p.SetLoss(f.lossRate, f.lossSeed)
		}
		p.DropNth(f.dropNth...)
		if f.until > f.from {
			p.SetDownWindow(f.from, f.until)
		}
	}
	if shaper != nil {
		for _, p := range ports {
			p.SetShaper(shaper())
		}
	}
	var train func(int, Train)
	if trains {
		train = func(h int, t Train) { ports[h].SendTrain(t) }
	}
	sent := s.play(k, func(h int, pkt *protocol.Packet) { ports[h].Send(pkt) }, train)
	for _, t := range sent {
		for i, ok := range t.settled {
			if !ok {
				panic(fmt.Sprintf("frame %d of a %d-frame train never settled", i, t.b.frames))
			}
		}
	}
	run := orderRun{trace, k.Events(), ledgers(len(ports), func(p int, job protocol.JobID) uint64 {
		return ports[p].TxBytesByJob(job)
	}), nil}
	for _, p := range ports {
		run.counters = append(run.counters, portCounters{p.TxPackets, p.TxBytes, p.Dropped, p.Policed})
	}
	return run
}

// ledgers reads each port's transmitted bytes per orderJobs entry.
func ledgers(ports int, bytes func(port int, job protocol.JobID) uint64) [][]uint64 {
	tx := make([][]uint64, ports)
	for p := range tx {
		for _, job := range orderJobs {
			tx[p] = append(tx[p], bytes(p, job))
		}
	}
	return tx
}

// refPort is Port.Send as it was before the FIFO: same serialization,
// same loss draws and fault checks in the same order, one After per
// surviving frame. It tallies the bytes of every job-tagged frame it
// serializes, whether or not the frame survives.
type refPort struct {
	k         *sim.Kernel
	cfg       LinkConfig
	deliver   func(*protocol.Packet)
	busyUntil sim.Time
	tx        uint64
	fault     orderFault
	lossRNG   *rand.Rand
	dropNth   map[uint64]bool
	byJob     map[protocol.JobID]uint64
}

func (p *refPort) send(pkt *protocol.Packet) {
	now := p.k.Now()
	start := now
	if p.busyUntil > start {
		start = p.busyUntil
	}
	txEnd := start + p.cfg.SerializationTime(pkt.WireLen())
	p.busyUntil = txEnd
	p.tx++
	if pkt.Job != protocol.DefaultJob {
		p.byJob[pkt.Job] += uint64(pkt.WireLen())
	}
	drop := p.lossRNG != nil && p.lossRNG.Float64() < p.fault.lossRate
	if !drop && p.dropNth[p.tx] {
		delete(p.dropNth, p.tx)
		drop = true
	}
	if !drop && start >= p.fault.from && start < p.fault.until {
		drop = true
	}
	if drop {
		return
	}
	p.k.After(txEnd+p.cfg.Propagation-now, func() { p.deliver(pkt) })
}

// runReference plays the script over refPorts and a closure-per-frame
// forwarding pipeline.
func runReference(k *sim.Kernel, s orderScript) orderRun {
	var trace []arrival
	ports := make([]*refPort, 2*s.hosts)
	index := make(map[protocol.Addr]int, s.hosts)
	for h := 0; h < s.hosts; h++ {
		h := h
		index[HostAddr(0, h)] = h
		ports[h] = &refPort{k: k, cfg: orderLink(), deliver: func(pkt *protocol.Packet) {
			k.After(orderSwitchDelay, func() { ports[s.hosts+index[pkt.Dst]].send(pkt) })
		}}
		ports[s.hosts+h] = &refPort{k: k, cfg: orderLink(), deliver: func(pkt *protocol.Packet) {
			trace = append(trace, arrival{k.Now(), h, pkt.Seg, pkt.WireLen()})
		}}
	}
	for _, f := range s.faults {
		p := ports[f.port]
		p.fault = f
		if f.lossRate > 0 {
			p.lossRNG = rand.New(rand.NewSource(f.lossSeed))
		}
		p.dropNth = make(map[uint64]bool)
		p.byJob = make(map[protocol.JobID]uint64)
		for _, n := range f.dropNth {
			p.dropNth[n] = true
		}
	}
	s.play(k, func(h int, pkt *protocol.Packet) { ports[h].send(pkt) }, nil)
	return orderRun{trace, k.Events(), ledgers(len(ports), func(p int, job protocol.JobID) uint64 {
		return ports[p].byJob[job]
	}), nil}
}

// checkPortOrder runs one script through production and reference on
// both schedulers, requires one trace, one event count and one per-job
// byte ledger per port, and returns the reference's run.
func checkPortOrder(t *testing.T, s orderScript) orderRun {
	t.Helper()
	ref := runReference(sim.NewHeapKernel(), s)
	want := ref.trace
	for _, r := range []struct {
		name string
		run  func(*sim.Kernel, orderScript) orderRun
		k    *sim.Kernel
	}{
		{"reference/calendar", runReference, sim.NewKernel()},
		{"production/heap", runProduction, sim.NewHeapKernel()},
		{"production/calendar", runProduction, sim.NewKernel()},
	} {
		got := r.run(r.k, s)
		trace := got.trace
		if got.events != ref.events {
			t.Fatalf("%s ran %d kernel events, reference/heap %d", r.name, got.events, ref.events)
		}
		if len(trace) != len(want) {
			t.Fatalf("%s delivered %d frames, reference/heap %d", r.name, len(trace), len(want))
		}
		for i := range want {
			if trace[i] != want[i] {
				t.Fatalf("%s diverges at delivery %d: got %+v, reference/heap %+v", r.name, i, trace[i], want[i])
			}
		}
		for p := range ref.tx {
			for i, job := range orderJobs {
				if got.tx[p][i] != ref.tx[p][i] {
					t.Fatalf("%s port %d sent %d bytes of job %d, reference/heap %d",
						r.name, p, got.tx[p][i], job, ref.tx[p][i])
				}
			}
		}
	}
	return ref
}

// TestPortOrderDifferential covers 40 seeded scripts and checks that
// they do what they are for: frames are lost, arrivals tie, and ports
// carry both a low job ID and the serving tier's 1000.
func TestPortOrderDifferential(t *testing.T) {
	delivered, sent, ties, mixed := 0, 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		s := newOrderScript(seed, 2+int(seed%4), 30)
		run := checkPortOrder(t, s)
		trace := run.trace
		delivered += len(trace)
		for _, tx := range run.tx {
			if tx[len(tx)-1] > 0 && tx[1]+tx[2]+tx[3] > 0 {
				mixed++
			}
		}
		for _, b := range s.bursts {
			sent += b.frames
		}
		for i := 1; i < len(trace); i++ {
			if trace[i].at == trace[i-1].at && trace[i].host != trace[i-1].host {
				ties++
			}
		}
	}
	if delivered == 0 || delivered >= sent {
		t.Fatalf("%d of %d frames delivered: the fault plans are not dropping any", delivered, sent)
	}
	if ties < 100 {
		t.Fatalf("only %d arrivals tie across ports: the scripts do not test tie-breaking", ties)
	}
	if mixed < 40 {
		t.Fatalf("only %d ports carry job 1000 beside a low ID: the scripts do not test the ledger's span", mixed)
	}
}

// FuzzPortOrder lets the fuzzer pick the script.
func FuzzPortOrder(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(10))
	f.Add(int64(7), uint8(5), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, hosts, bursts uint8) {
		checkPortOrder(t, newOrderScript(seed, 2+int(hosts%5), 1+int(bursts%80)))
	})
}
