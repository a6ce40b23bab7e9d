package serve

import (
	"sort"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/nn"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

func smallStar() StarConfig {
	return StarConfig{
		Replicas: 2, Generators: 2, Seed: 1,
		Gen: GenConfig{Rate: 200_000, Arrival: ArrivalPoisson,
			Duration: 2 * time.Millisecond, Select: SelectRoundRobin},
	}
}

// TestRunStarDeterministic pins that a cell replays bit-identically:
// same config, same kernel schedule, same percentiles and counts.
func TestRunStarDeterministic(t *testing.T) {
	a, b := RunStar(smallStar()), RunStar(smallStar())
	if a.Sent != b.Sent || a.Done != b.Done || a.P50 != b.P50 || a.P99 != b.P99 ||
		a.Max != b.Max || a.Occupancy != b.Occupancy {
		t.Fatalf("nondeterministic cells:\n%+v\n%+v", a, b)
	}
	for i := range a.PerReplica {
		if a.PerReplica[i] != b.PerReplica[i] {
			t.Fatalf("replica %d served %d vs %d", i, a.PerReplica[i], b.PerReplica[i])
		}
	}
}

// TestStarCompletes pins the basic contract: every request emitted in
// the window is answered once the kernel drains, and latency is at
// least the physical floor (two switch hops + the batch service).
func TestStarCompletes(t *testing.T) {
	m := RunStar(smallStar())
	if m.Sent == 0 {
		t.Fatal("generator sent nothing")
	}
	if m.Lost != 0 || m.Done != m.Sent {
		t.Fatalf("lost %d of %d requests on an unpoliced star", m.Lost, m.Sent)
	}
	if m.P50 < 5*time.Microsecond {
		t.Fatalf("p50 %v below the physical round-trip floor", m.P50)
	}
	if m.MaxBatch < 1 {
		t.Fatal("no batch ever closed")
	}
	var served uint64
	for _, s := range m.PerReplica {
		served += s
	}
	if served != m.Done {
		t.Fatalf("replicas served %d but generators matched %d", served, m.Done)
	}
}

// TestSketchMatchesExactOracle runs a cell with exact recording on and
// differentially checks the streamed sketch against the sorted oracle.
func TestSketchMatchesExactOracle(t *testing.T) {
	cfg := smallStar().withDefaults()
	k := sim.NewKernel()
	star := netsim.BuildStar(k, cfg.Replicas+cfg.Generators, cfg.Link)
	replicas, gens := deployFleet(k,
		star.Hosts[:cfg.Replicas], star.Hosts[cfg.Replicas:],
		cfg.Dims, cfg.Seed, cfg.Rep, cfg.Gen)
	for _, g := range gens {
		g.RecordExact = true
	}
	k.Run()
	k.Shutdown()
	m := collect(cfg.Gen.Rate, replicas, gens)

	var exact []time.Duration
	for _, g := range gens {
		exact = append(exact, g.Exact...)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	if uint64(len(exact)) != m.Done {
		t.Fatalf("oracle holds %d samples, sketch %d", len(exact), m.Done)
	}
	for _, tc := range []struct {
		q   float64
		got time.Duration
	}{{0.50, m.P50}, {0.90, m.P90}, {0.99, m.P99}} {
		k := int(float64(len(exact))*tc.q + 0.9999999)
		if k < 1 {
			k = 1
		}
		want := exact[k-1]
		diff := float64(tc.got - want)
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.02*float64(want) {
			t.Fatalf("q=%.2f sketch %v vs oracle %v (>2%%)", tc.q, tc.got, want)
		}
	}
	if m.Max != exact[len(exact)-1] {
		t.Fatalf("sketch max %v vs oracle %v", m.Max, exact[len(exact)-1])
	}
}

// TestSelectionPolicies pins each balancer's distribution shape.
func TestSelectionPolicies(t *testing.T) {
	base := smallStar()
	base.Replicas = 4
	base.Generators = 1
	base.Gen.Arrival = ArrivalDeterministic

	for _, tc := range []struct {
		sel SelectPolicy
		// maxImbalance bounds max/min served per replica.
		maxImbalance float64
	}{
		{SelectRoundRobin, 1.02},
		{SelectLeastOutstanding, 1.5},
		{SelectRandom, 3.0},
	} {
		cfg := base
		cfg.Gen.Select = tc.sel
		m := RunStar(cfg)
		if m.Lost != 0 {
			t.Fatalf("%v: lost %d", tc.sel, m.Lost)
		}
		minS, maxS := m.PerReplica[0], m.PerReplica[0]
		for _, s := range m.PerReplica {
			if s < minS {
				minS = s
			}
			if s > maxS {
				maxS = s
			}
		}
		if minS == 0 {
			t.Fatalf("%v: a replica served nothing (%v)", tc.sel, m.PerReplica)
		}
		if r := float64(maxS) / float64(minS); r > tc.maxImbalance {
			t.Fatalf("%v: imbalance %.2f > %.2f (%v)", tc.sel, r, tc.maxImbalance, m.PerReplica)
		}
	}
}

// TestAdaptiveBatching pins the window-vs-size control: sparse arrivals
// close single-request batches after the window; saturating arrivals
// fill MaxBatch.
func TestAdaptiveBatching(t *testing.T) {
	sparse := smallStar()
	sparse.Replicas, sparse.Generators = 1, 1
	sparse.Gen.Rate = 5_000 // 200µs apart ≫ 20µs window
	sparse.Gen.Arrival = ArrivalDeterministic
	m := RunStar(sparse)
	if m.MaxBatch != 1 {
		t.Fatalf("sparse arrivals built batches of %d, want 1", m.MaxBatch)
	}
	// Low load pays the full batch window: latency sits just above it.
	if m.P50 < 20*time.Microsecond {
		t.Fatalf("sparse p50 %v below the batch window", m.P50)
	}

	dense := sparse
	dense.Gen.Rate = 2_000_000
	dense.Gen.Duration = 500 * time.Microsecond
	md := RunStar(dense)
	if md.MaxBatch != 8 {
		t.Fatalf("saturating arrivals peaked at batch %d, want MaxBatch=8", md.MaxBatch)
	}
}

// TestReplicaServesCheckpointedPolicy drives one request by hand and
// checks the response is exactly the master policy's forward pass —
// the checkpoint round trip and batched forward serve the same
// function the trainer saved.
func TestReplicaServesCheckpointedPolicy(t *testing.T) {
	k := sim.NewKernel()
	star := netsim.BuildStar(k, 2, netsim.TenGbE())
	dims := []int{4, 8, 2}
	master := nn.NewMLP(dims, nn.ActTanh, nn.ActNone, 42)
	rep := NewReplica(star.Hosts[0], checkpointRoundTrip(master, dims), ReplicaConfig{})
	rep.Start(k)

	obs := []float32{0.5, -1, 2, 0}
	want := append([]float32(nil), master.Forward(obs)...)
	client := star.Hosts[1]
	var got []float32
	k.Spawn("client", func(p *sim.Proc) {
		client.Send(protocol.NewServeRequest(client.Addr, star.Hosts[0].Addr, 0, 7, obs))
		resp := client.Recv(p)
		if !resp.IsServeResp() || resp.ReqID() != 7 {
			t.Errorf("bad response: ToS=%#x id=%d", resp.ToS, resp.ReqID())
		}
		got = append([]float32(nil), resp.Data...)
		resp.Release()
	})
	k.Run()
	k.Shutdown()
	if len(got) != len(want) {
		t.Fatalf("response dim %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %v, want %v (checkpoint or batch path diverged)", i, got[i], want[i])
		}
	}
	if rep.Served != 1 || rep.Batches != 1 {
		t.Fatalf("replica stats served=%d batches=%d", rep.Served, rep.Batches)
	}
}

// TestReplicaRejectsMalformed: wrong observation length and stray
// training frames are dropped, counted, and never answered.
func TestReplicaRejectsMalformed(t *testing.T) {
	k := sim.NewKernel()
	star := netsim.BuildStar(k, 2, netsim.TenGbE())
	dims := []int{4, 8, 2}
	rep := NewReplica(star.Hosts[0], nn.NewMLP(dims, nn.ActTanh, nn.ActNone, 1), ReplicaConfig{})
	rep.Start(k)
	client := star.Hosts[1]
	var responses int
	k.Spawn("client", func(p *sim.Proc) {
		client.Send(protocol.NewServeRequest(client.Addr, star.Hosts[0].Addr, 0, 1, []float32{1, 2})) // short obs
		client.Send(protocol.NewData(client.Addr, star.Hosts[0].Addr, 0, []float32{1}))               // training frame
		for {
			pkt, ok := client.RecvTimeout(p, time.Millisecond)
			if !ok {
				return
			}
			responses++
			pkt.Release()
		}
	})
	k.Run()
	k.Shutdown()
	if responses != 0 {
		t.Fatalf("malformed requests drew %d responses", responses)
	}
	if rep.Rejected != 2 || rep.Served != 0 {
		t.Fatalf("rejected=%d served=%d, want 2/0", rep.Rejected, rep.Served)
	}
}

// TestRunUntilSaturation pins the sweep shape: pre-saturation points
// achieve their offered load, the walk ends on a tripped rule, and the
// saturated point really violates it.
func TestRunUntilSaturation(t *testing.T) {
	base := StarConfig{Replicas: 2, Generators: 2, Seed: 3,
		Gen: GenConfig{Duration: 2 * time.Millisecond, Arrival: ArrivalPoisson}}
	sw := SweepConfig{Start: 100_000, Growth: 4, MaxSteps: 6,
		P99SLO: 300 * time.Microsecond, GoodputFloor: 0.85}
	curve := RunUntilSaturation(base, sw)
	if len(curve) < 2 {
		t.Fatalf("sweep produced %d points", len(curve))
	}
	last := curve[len(curve)-1]
	if !last.Saturated {
		t.Fatalf("sweep ended unsaturated after %d points (p99 %v)", len(curve), last.M.P99)
	}
	switch last.Reason {
	case "p99":
		if last.M.P99 <= sw.P99SLO {
			t.Fatalf("saturated on p99 but %v <= SLO %v", last.M.P99, sw.P99SLO)
		}
	case "goodput":
		if last.M.Achieved >= sw.GoodputFloor*last.M.Offered {
			t.Fatalf("saturated on goodput but %.0f >= floor", last.M.Achieved)
		}
	default:
		t.Fatalf("unknown saturation reason %q", last.Reason)
	}
	for _, pt := range curve[:len(curve)-1] {
		if pt.M.Achieved < 0.9*pt.M.Offered {
			t.Fatalf("pre-saturation point %.0f achieved only %.0f", pt.Rate, pt.M.Achieved)
		}
		if pt.M.Lost != 0 {
			t.Fatalf("pre-saturation point lost %d requests", pt.M.Lost)
		}
	}
}

// TestCoResidencyIsolation is the always-on reduced gate of the
// headline claim (experiments' TestServeIsolation holds the full cells):
// FIFO co-residency inflates inference p99 well past the unimpeded
// baseline, weighted-fair + policing pulls it back inside a fixed
// factor, no inference frame is ever policed or lost, and the policer
// actually worked (training frames refused, then recovered — training
// still completes).
func TestCoResidencyIsolation(t *testing.T) {
	r := RunCoResidency(CoResConfig{Seed: 1})
	off, fifo, fair := r.Off, r.FIFO, r.Fair
	for _, c := range []CoResCell{off, fifo, fair} {
		if c.Serve.Sent == 0 || c.Serve.Lost != 0 {
			t.Fatalf("%s: sent=%d lost=%d", c.Label, c.Serve.Sent, c.Serve.Lost)
		}
		if c.ServePoliced != 0 {
			t.Fatalf("%s: %d compliant inference frames policed", c.Label, c.ServePoliced)
		}
	}
	if fifo.TrainRound == 0 || fair.TrainRound == 0 {
		t.Fatal("training job produced no rounds")
	}
	if fifo.Serve.P99 < 2*off.Serve.P99 {
		t.Fatalf("FIFO co-residency shows no contention: p99 %v vs unimpeded %v",
			fifo.Serve.P99, off.Serve.P99)
	}
	if fair.Serve.P99 > 5*off.Serve.P99/2 {
		t.Fatalf("isolation failed: fair p99 %v > 2.5x unimpeded %v",
			fair.Serve.P99, off.Serve.P99)
	}
	if fair.Serve.P99 >= fifo.Serve.P99 {
		t.Fatalf("policing did not improve p99: fair %v vs fifo %v",
			fair.Serve.P99, fifo.Serve.P99)
	}
	if fair.TrainPoliced == 0 {
		t.Fatal("fair cell policed no training frames — the isolation mechanism never engaged")
	}
}
