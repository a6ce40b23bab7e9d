package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
	"iswitch/internal/tensor/kernels"
)

// Compression datapath tests: the block-scaled int32 scheme must be
// bit-identical under any packet arrival order (integer addition is
// exactly associative), the top-k scatter-add must equal a direct
// scatter of every worker's selection, and the shadow slots must
// re-serve quantized and sparse rounds bit-identically under the PR 7
// fault plans.

// fracAgent produces deterministic *fractional* gradients — values a
// float32 summation would reorder-sensitively, so any order dependence
// in the quantized path shows up as a bit difference.
type fracAgent struct {
	id      int
	n       int
	iter    int
	applied [][]float32
}

func (a *fracAgent) gradient(dst []float32) {
	a.iter++
	for i := range dst {
		dst[i] = float32(math.Sin(float64((a.id+1)*1013+a.iter*131+i))) * 0.01
	}
}

// gradientAt recomputes the round-it gradient without touching state
// (reference computations).
func (a fracAgent) gradientAt(it int, dst []float32) {
	for i := range dst {
		dst[i] = float32(math.Sin(float64((a.id+1)*1013+it*131+i))) * 0.01
	}
}

// runCompStaggered trains fracAgents over Build(spec).ISW with a
// per-worker compute stagger, which permutes every round's packet
// arrival order at the switch. Returns the agents with their applied
// aggregate history.
func runCompStaggered(t *testing.T, spec ClusterSpec, delays []time.Duration, iters int) []*fracAgent {
	t.Helper()
	k := sim.NewKernel()
	c := Build(k, spec).ISW
	n := len(c.Workers())
	agents := make([]*fracAgent, n)
	bar := sim.NewBarrier(k, n)
	for i := 0; i < n; i++ {
		a := &fracAgent{id: i, n: spec.ModelFloats}
		agents[i] = a
		svc := c.Client(i)
		d := delays[i%len(delays)]
		k.Spawn(fmt.Sprintf("comp-worker-%d", i), func(p *sim.Proc) {
			svc.Setup(p)
			bar.Wait(p)
			grad := make([]float32, a.n)
			for it := 0; it < iters; it++ {
				a.gradient(grad)
				p.Sleep(20*time.Microsecond + d)
				sum := svc.Aggregate(p, grad)
				a.applied = append(a.applied, append([]float32(nil), sum...))
			}
		})
	}
	done := make(chan struct{})
	go func() { k.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("simulation hung")
	}
	return agents
}

// requireSameApplied asserts every agent applied identical aggregates
// in every round, and that agent histories match across two runs.
func requireSameApplied(t *testing.T, label string, a, b []*fracAgent, iters int) {
	t.Helper()
	for w := range a {
		if len(a[w].applied) != iters || len(b[w].applied) != iters {
			t.Fatalf("%s: worker %d applied %d/%d rounds, want %d",
				label, w, len(a[w].applied), len(b[w].applied), iters)
		}
		for it := 0; it < iters; it++ {
			for i := range a[w].applied[it] {
				if x, y := a[w].applied[it][i], b[w].applied[it][i]; x != y {
					t.Fatalf("%s: worker %d iter %d elem %d: %v vs %v",
						label, w, it, i, x, y)
				}
				if w > 0 {
					if x, y := a[w].applied[it][i], a[0].applied[it][i]; x != y {
						t.Fatalf("%s: iter %d elem %d: worker %d applied %v, worker 0 %v",
							label, it, i, w, x, y)
					}
				}
			}
		}
	}
}

func compSpec(topo ClusterSpec, scheme protocol.Compression, nFloats int) ClusterSpec {
	topo.Mode = ModeISW
	topo.ModelFloats = nFloats
	topo.Link = testLink()
	topo.Uplink = netsim.FortyGbE()
	topo.Compression = scheme
	return topo
}

// TestInt32BlockOrderInvariance: the acceptance property — quantized
// aggregation is bit-identical under any arrival order. Two runs with
// opposite per-worker staggering (worker 0 slowest vs fastest) reorder
// every round's contributions; the applied aggregates must not move by
// a single bit, on a star and on a multi-level fat-tree.
func TestInt32BlockOrderInvariance(t *testing.T) {
	nFloats := 2*protocolFloats + 9
	const iters = 6
	forward := []time.Duration{0, 7 * time.Microsecond, 23 * time.Microsecond, 41 * time.Microsecond}
	backward := []time.Duration{41 * time.Microsecond, 23 * time.Microsecond, 7 * time.Microsecond, 0}
	for _, topo := range []ClusterSpec{
		{Topology: TopoStar, Workers: 6},
		{Topology: TopoFatTree, KAry: 4, HostsPerEdge: 1},
	} {
		t.Run(topo.Topology.String(), func(t *testing.T) {
			spec := compSpec(topo, protocol.CompInt32Block, nFloats)
			a := runCompStaggered(t, spec, forward, iters)
			b := runCompStaggered(t, spec, backward, iters)
			requireSameApplied(t, "int32block", a, b, iters)
		})
	}
}

// TestTopKMatchesDirectScatter: the switch's sparse scatter-add must
// equal a direct scatter of every worker's deterministic top-k
// selection — no element lost, duplicated, or misplaced across the
// segment grid.
func TestTopKMatchesDirectScatter(t *testing.T) {
	nFloats := 2*protocolFloats + 9
	const nWorkers, iters = 5, 4
	spec := compSpec(ClusterSpec{Topology: TopoStar, Workers: nWorkers}, protocol.CompTopK, nFloats)
	agents := runCompStaggered(t, spec, []time.Duration{0, 11 * time.Microsecond, 29 * time.Microsecond}, iters)

	k := int(0.05 * float64(nFloats)) // compress.DefaultTopKFrac
	if k < 1 {
		k = 1
	}
	grad := make([]float32, nFloats)
	var sel []int32
	var keys []uint64
	for it := 1; it <= iters; it++ {
		want := make([]float32, nFloats)
		for w := range agents {
			agents[w].gradientAt(it, grad)
			sel, keys = kernels.TopKSelect(sel[:0], keys, grad, k)
			if len(sel) != k {
				t.Fatalf("iter %d worker %d: selected %d of %d", it, w, len(sel), k)
			}
			for _, gi := range sel {
				want[gi] += grad[gi]
			}
		}
		for w := range agents {
			got := agents[w].applied[it-1]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("iter %d worker %d elem %d: switch %v, direct scatter %v",
						it, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFP16ExactOnSmallIntegers: half precision represents integers up
// to 2048 exactly, so an fp16 run over integer-valued gradients must be
// bit-identical to the raw float32 run — on the in-switch path and the
// parameter-server path alike.
func TestFP16ExactOnSmallIntegers(t *testing.T) {
	const nWorkers, iters = 4, 5
	nFloats := protocolFloats + 13
	for _, mode := range []Mode{ModeISW, ModePS} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(scheme protocol.Compression) []*intAgent {
				k := sim.NewKernel()
				spec := ClusterSpec{Topology: TopoStar, Mode: mode, Workers: nWorkers,
					ModelFloats: nFloats, Link: testLink(), Compression: scheme}
				c := Build(k, spec)
				agents := make([]rl.Agent, nWorkers)
				ints := make([]*intAgent, nWorkers)
				services := make([]Service, nWorkers)
				for i := range agents {
					ints[i] = newIntAgent(i, nFloats)
					agents[i] = ints[i]
					services[i] = c.Client(i)
				}
				RunSync(k, agents, services, fastTiming(iters))
				return ints
			}
			raw := run(protocol.CompNone)
			half := run(protocol.CompFP16)
			for w := range raw {
				for it := range raw[w].applied {
					for i := range raw[w].applied[it] {
						if x, y := raw[w].applied[it][i], half[w].applied[it][i]; x != y {
							t.Fatalf("worker %d iter %d elem %d: raw %v, fp16 %v", w, it, i, x, y)
						}
					}
				}
			}
		})
	}
}

// --- Shadow re-serve under the PR 7 fault plans (satellite 3) ---

// compRelSpec arms the recovery machinery on a compression spec.
func compRelSpec(topo ClusterSpec, scheme protocol.Compression, nFloats int, cfg *ISWConfig, plan *netsim.FaultPlan) ClusterSpec {
	spec := compSpec(topo, scheme, nFloats)
	spec.ISW = cfg
	spec.Dedup = true
	spec.Faults = plan
	return spec
}

// runCompReliability is runCompStaggered without stagger, under a
// watchdog, returning the cluster for stats inspection and the
// virtual makespan.
func runCompReliability(t *testing.T, spec ClusterSpec, iters int) ([]*fracAgent, *ISWCluster, sim.Time) {
	t.Helper()
	return runCompReliabilityWith(t, spec, iters, func(*ISWCluster) {})
}

// runCompReliabilityWith is runCompReliability with a hook that sees the
// built cluster before the first event runs.
func runCompReliabilityWith(t *testing.T, spec ClusterSpec, iters int, prepare func(*ISWCluster)) ([]*fracAgent, *ISWCluster, sim.Time) {
	t.Helper()
	k := sim.NewKernel()
	c := Build(k, spec).ISW
	prepare(c)
	n := len(c.Workers())
	agents := make([]*fracAgent, n)
	bar := sim.NewBarrier(k, n)
	for i := 0; i < n; i++ {
		a := &fracAgent{id: i, n: spec.ModelFloats}
		agents[i] = a
		svc := c.Client(i)
		k.Spawn(fmt.Sprintf("rel-worker-%d", i), func(p *sim.Proc) {
			svc.Setup(p)
			bar.Wait(p)
			grad := make([]float32, a.n)
			for it := 0; it < iters; it++ {
				a.gradient(grad)
				p.Sleep(100 * time.Microsecond)
				sum := svc.Aggregate(p, grad)
				a.applied = append(a.applied, append([]float32(nil), sum...))
			}
		})
	}
	done := make(chan struct{})
	go func() { k.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("simulation hung: compressed recovery failed to terminate")
	}
	return agents, c, k.Now()
}

// TestCompressedLossReserveBitIdentical: under heavy per-link loss, the
// shadow slots re-serve quantized (and sparse jobs' dense) emissions
// and workers retransmit re-encoded contributions; the run must stay
// bit-identical to the clean run — the quantized grid timeline included
// — on a star, a rack tree and a fat-tree.
func TestCompressedLossReserveBitIdentical(t *testing.T) {
	nFloats := 2*protocolFloats + 9
	const iters = 8
	for _, scheme := range []protocol.Compression{protocol.CompInt32Block, protocol.CompTopK} {
		for _, topo := range relTopoSpecs() {
			t.Run(fmt.Sprintf("%s-%s", scheme, topo.Topology), func(t *testing.T) {
				cfg := DefaultISWConfig()
				cfg.RecoveryTimeout = 2 * time.Millisecond
				clean, _, _ := runCompReliability(t, compRelSpec(topo, scheme, nFloats, &cfg, nil), iters)

				plan := &netsim.FaultPlan{
					Seed: 42,
					Links: []netsim.LinkFault{
						{Worker: 0, Dir: netsim.DirBoth, Loss: 0.10},
						{Worker: 1, Dir: netsim.DirUp, Loss: 0.05},
						{Worker: 2, Dir: netsim.DirDown, Loss: 0.05},
					},
				}
				faulted, c, _ := runCompReliability(t, compRelSpec(topo, scheme, nFloats, &cfg, plan), iters)

				var drops uint64
				for _, h := range c.Workers() {
					drops += h.Port().Dropped + h.Port().Peer().Dropped
				}
				if drops == 0 {
					t.Fatal("loss injection did not fire; test proves nothing")
				}
				var served uint64
				for _, is := range c.Switches() {
					served += is.HelpServed
				}
				if served == 0 {
					t.Fatal("no Help was answered from the shadow slots; re-serve path untested")
				}
				requireSameApplied(t, scheme.String(), clean, faulted, iters)
			})
		}
	}
}

// TestCompressedCrashRejoin: a worker that dies mid-upload under a
// quantized scheme rejoins and re-contributes the round's original bits
// (its retained wire round / the cached sparse selection); the dedup
// bitmap absorbs duplicates and the run stays bit-identical to a
// crash-free one, on every topology for int32block and on the star for
// top-k.
func TestCompressedCrashRejoin(t *testing.T) {
	nFloats := 2*protocolFloats + 9
	const iters = 8
	type tc struct {
		scheme protocol.Compression
		topo   ClusterSpec
	}
	cases := []tc{{protocol.CompTopK, relTopoSpecs()[0]}}
	for _, topo := range relTopoSpecs() {
		cases = append(cases, tc{protocol.CompInt32Block, topo})
	}
	for _, c := range cases {
		scheme, topo := c.scheme, c.topo
		name := scheme.String() // the star cases keep their original names
		if topo.Topology != TopoStar {
			name += "-" + topo.Topology.String()
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultISWConfig()
			cfg.RecoveryTimeout = 2 * time.Millisecond
			clean, _, _ := runCompReliability(t, compRelSpec(topo, scheme, nFloats, &cfg, nil), iters)

			plan := &netsim.FaultPlan{Crashes: []netsim.CrashFault{
				{Worker: 2, AtRound: 4, PartialSegs: 2, Rejoin: true, Outage: 5 * time.Millisecond},
			}}
			faulted, c, _ := runCompReliability(t, compRelSpec(topo, scheme, nFloats, &cfg, plan), iters)
			if c.Rejoins != 1 {
				t.Fatalf("expected 1 rejoin, got %d", c.Rejoins)
			}
			requireSameApplied(t, scheme.String(), clean, faulted, iters)
		})
	}
}

// TestQuantizedFailoverConsistency: when the aggregation plane dies,
// the relay worker runs the switch's own engine, so a compressed job
// keeps its scheme through failover. On the star the relay sums exactly
// what the switch summed, and every worker applies the clean run's
// aggregates bit for bit, fractional gradients and all. Below a tree
// or fat-tree the switch's leaf partials were narrowed (int32block) or
// summed in another order, so the flat relay sum may differ from the
// clean run: there the replicas must agree, every data frame the relay
// sends a peer must carry the scheme's emission encoding, and a top-k
// aggregate must stay a sum of top-k selections.
func TestQuantizedFailoverConsistency(t *testing.T) {
	nFloats := 2*protocolFloats + 9
	const iters = 8
	emitted := map[protocol.Compression]protocol.Compression{
		protocol.CompInt32Block: protocol.CompInt32Block,
		protocol.CompFP16:       protocol.CompFP16,
		protocol.CompTopK:       protocol.CompNone, // top-k aggregates are dense
	}
	for _, topo := range relTopoSpecs() {
		t.Run(topo.Topology.String(), func(t *testing.T) {
			for _, scheme := range []protocol.Compression{protocol.CompInt32Block, protocol.CompFP16, protocol.CompTopK} {
				t.Run(scheme.String(), func(t *testing.T) {
					cfg := DefaultISWConfig()
					cfg.RecoveryTimeout = 2 * time.Millisecond
					clean, _, cleanTotal := runCompReliability(t, compRelSpec(topo, scheme, nFloats, &cfg, nil), iters)

					failover := cfg
					failover.FailoverAfter = 3
					plan := &netsim.FaultPlan{Switches: []netsim.SwitchFault{{Switch: -1, At: cleanTotal / 2}}}
					var relayFrames, wrongEnc int
					faulted, c, _ := runCompReliabilityWith(t, compRelSpec(topo, scheme, nFloats, &failover, plan), iters,
						func(c *ISWCluster) {
							relay := c.Workers()[0].Addr
							peers := map[protocol.Addr]bool{}
							for _, h := range c.Workers()[1:] {
								peers[h.Addr] = true
							}
							for _, is := range c.Switches() {
								is, up := is, is.Uplink()
								is.Switch().SetTap(func(pkt *protocol.Packet, in *netsim.Port) bool {
									if pkt.IsData() && pkt.Src == relay && peers[pkt.Dst] {
										relayFrames++
										if pkt.Enc != emitted[scheme] {
											wrongEnc++
										}
									}
									return is.Handle(pkt, up != nil && in == up)
								})
							}
						})
					if int(c.Failovers) != len(faulted) {
						t.Fatalf("expected all %d workers to fail over, got %d", len(faulted), c.Failovers)
					}
					if topo.Topology == TopoStar {
						requireSameApplied(t, scheme.String(), clean, faulted, iters)
					} else {
						requireSameApplied(t, scheme.String(), faulted, faulted, iters)
					}
					if relayFrames == 0 || wrongEnc > 0 {
						t.Fatalf("the relay sent %d data frames to peers, %d not encoded as %v", relayFrames, wrongEnc, emitted[scheme])
					}
					if scheme == protocol.CompTopK && topo.Topology != TopoStar {
						kept := len(faulted) * int(0.05*float64(nFloats)) // compress.DefaultTopKFrac
						for it, sum := range faulted[0].applied {
							nonzero := 0
							for _, v := range sum {
								if v != 0 {
									nonzero++
								}
							}
							if nonzero > kept {
								t.Fatalf("iter %d: %d nonzero elements, more than the %d that %d workers' top-k selections can hold", it, nonzero, kept, len(faulted))
							}
						}
					}
				})
			}
		})
	}
}
