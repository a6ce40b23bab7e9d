package core

import (
	"strings"
	"testing"

	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// ClusterSpec.Validate must accept every supported compression×mode
// pairing and reject the rest with an error that names the scheme and
// explains the architectural reason.
func TestValidateCompressionMatrix(t *testing.T) {
	allModes := []Mode{ModeISW, ModePS, ModeAsyncPS, ModeAllReduce}

	okFor := map[protocol.Compression]map[Mode]bool{
		protocol.CompNone:       {ModeISW: true, ModePS: true, ModeAsyncPS: true, ModeAllReduce: true},
		protocol.CompFP16:       {ModeISW: true, ModePS: true, ModeAsyncPS: true},
		protocol.CompInt32Block: {ModeISW: true},
		protocol.CompTopK:       {ModeISW: true},
	}
	// The rejection message must carry the scheme name and a reason.
	reason := map[protocol.Compression]string{
		protocol.CompFP16:       "single aggregation point",
		protocol.CompInt32Block: "saturating adders",
		protocol.CompTopK:       "sparse scatter-add",
	}

	for _, scheme := range protocol.Compressions() {
		for _, mode := range allModes {
			t.Run(scheme.String()+"-"+mode.String(), func(t *testing.T) {
				spec := ClusterSpec{Topology: TopoStar, Mode: mode, Workers: 4,
					ModelFloats: 100, Compression: scheme}
				err := spec.Validate()
				if okFor[scheme][mode] {
					if err != nil {
						t.Fatalf("supported pairing rejected: %v", err)
					}
					return
				}
				if err == nil {
					t.Fatalf("unsupported pairing %v × %v accepted", scheme, mode)
				}
				if !strings.Contains(err.Error(), scheme.String()) {
					t.Fatalf("error does not name the scheme %q: %v", scheme, err)
				}
				if !strings.Contains(err.Error(), reason[scheme]) {
					t.Fatalf("error does not explain the restriction (%q): %v", reason[scheme], err)
				}
			})
		}
	}
}

// Every Validate rejection outside the compression×mode matrix: one row
// each, matched on the part of the message that names the reason.
func TestValidateRejections(t *testing.T) {
	base := ClusterSpec{Topology: TopoStar, Mode: ModePS, Workers: 4, ModelFloats: 800}
	with := func(edit func(*ClusterSpec)) ClusterSpec {
		spec := base
		edit(&spec)
		return spec
	}
	smallSegs := DefaultISWConfig()
	smallSegs.FloatsPerPacket = 64
	bigSegs, negSegs := DefaultISWConfig(), DefaultISWConfig()
	bigSegs.FloatsPerPacket, negSegs.FloatsPerPacket = 1000, -1
	for _, tc := range []struct {
		name string
		spec ClusterSpec
		want string
	}{
		{"ps-over-3tier", with(func(s *ClusterSpec) {
			s.Topology, s.AGGs, s.ToRsPerAGG, s.HostsPerToR = TopoThreeTier, 2, 2, 2
		}), "ps over 3tier is not supported"},
		{"async-ps-over-fattree", with(func(s *ClusterSpec) {
			s.Topology, s.Mode, s.KAry, s.HostsPerEdge = TopoFatTree, ModeAsyncPS, 4, 1
		}), "async-ps over fattree is not supported"},
		{"allreduce-over-3tier", with(func(s *ClusterSpec) {
			s.Topology, s.Mode, s.AGGs, s.ToRsPerAGG, s.HostsPerToR = TopoThreeTier, ModeAllReduce, 2, 2, 2
		}), "allreduce over 3tier is not supported"},
		{"allreduce-over-fattree", with(func(s *ClusterSpec) {
			s.Topology, s.Mode, s.KAry, s.HostsPerEdge = TopoFatTree, ModeAllReduce, 4, 1
		}), "allreduce over fattree is not supported"},
		{"allreduce-one-worker", with(func(s *ClusterSpec) { s.Mode, s.Workers = ModeAllReduce, 1 }), "at least 2 workers"},
		{"shards-over-tree", with(func(s *ClusterSpec) { s.Topology, s.Shards = TopoTree, 2 }), "sharded parameter server over tree"},
		{"shards-fp16", with(func(s *ClusterSpec) { s.Shards, s.Compression = 2, protocol.CompFP16 }), "fp16 compression with 2 parameter-server shards"},
		{"shards-off-ps", with(func(s *ClusterSpec) { s.Mode, s.Shards = ModeISW, 2 }), "parameter-server modes only"},
		{"shards-negative", with(func(s *ClusterSpec) { s.Shards = -1 }), "Shards must be in [0, 128]"},
		{"shards-too-many", with(func(s *ClusterSpec) { s.Shards = maxPSShards + 1 }), "Shards must be in [0, 128]"},
		{"workers-zero", with(func(s *ClusterSpec) { s.Workers = 0 }), "needs Workers > 0"},
		{"workers-negative-tree", with(func(s *ClusterSpec) { s.Topology, s.Workers = TopoTree, -3 }), "needs Workers > 0"},
		{"per-rack-negative", with(func(s *ClusterSpec) { s.Topology, s.PerRack = TopoTree, -1 }), "PerRack must not be negative"},
		{"3tier-zero-shape", with(func(s *ClusterSpec) {
			s.Topology, s.Mode, s.AGGs, s.ToRsPerAGG = TopoThreeTier, ModeISW, 2, 2
		}), "positive AGGs, ToRsPerAGG and HostsPerToR"},
		{"fattree-odd-k", with(func(s *ClusterSpec) {
			s.Topology, s.Mode, s.KAry, s.HostsPerEdge = TopoFatTree, ModeISW, 3, 1
		}), "even KAry >= 2"},
		{"fattree-no-hosts", with(func(s *ClusterSpec) {
			s.Topology, s.Mode, s.KAry = TopoFatTree, ModeISW, 4
		}), "HostsPerEdge > 0"},
		{"model-floats-zero", with(func(s *ClusterSpec) { s.ModelFloats = 0 }), "ModelFloats must be positive"},
		{"unknown-topology", with(func(s *ClusterSpec) { s.Topology = Topology(9) }), "unknown topology"},
		{"unknown-mode", with(func(s *ClusterSpec) { s.Mode = Mode(9) }), "unknown mode"},
		{"unknown-scheme", with(func(s *ClusterSpec) { s.Compression = protocol.Compression(99) }), "unknown compression scheme"},
		// A segment past the packet's capacity used to pass, and the
		// first Aggregate panicked inside a simulated process.
		{"segment-over-packet", with(func(s *ClusterSpec) {
			s.Mode, s.Workers, s.ModelFloats, s.ISW = ModeISW, 2, 5000, &bigSegs
		}), "FloatsPerPacket must be in [0, 366]"},
		{"segment-over-packet-int32block", with(func(s *ClusterSpec) {
			s.Mode, s.Compression, s.ISW = ModeISW, protocol.CompInt32Block, &bigSegs
		}), "FloatsPerPacket must be in [0, 366]"},
		{"segment-negative", with(func(s *ClusterSpec) { s.Mode, s.ISW = ModeISW, &negSegs }), "FloatsPerPacket must be in [0, 366]"},
		{"topk-nondefault-segment", with(func(s *ClusterSpec) {
			s.Mode, s.Compression, s.ISW = ModeISW, protocol.CompTopK, &smallSegs
		}), "per-packet payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want an error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// The address plans number hosts and switches with one byte per index.
// Each row is a shape at a plan's limit, which Validate accepts, and the
// edit that takes it one past, which must be rejected with the limit in
// the message (past it a byte wraps onto another host's address, routes
// overwrite each other and no round completes).
func TestValidateAddressPlanBounds(t *testing.T) {
	spec := func(topo Topology, edit func(*ClusterSpec)) ClusterSpec {
		s := ClusterSpec{Topology: topo, Mode: ModeISW, ModelFloats: 800}
		edit(&s)
		return s
	}
	for _, tc := range []struct {
		name string
		at   ClusterSpec
		past func(*ClusterSpec)
		want string
	}{
		{"star-workers", spec(TopoStar, func(s *ClusterSpec) { s.Workers = netsim.MaxHostsPerSwitch }),
			func(s *ClusterSpec) { s.Workers++ }, "at most 127"},
		{"star-workers-ps", spec(TopoStar, func(s *ClusterSpec) { s.Mode, s.Workers = ModePS, netsim.MaxHostsPerSwitch }),
			func(s *ClusterSpec) { s.Workers++ }, "at most 127"},
		// One rack, mostly unused, is still wired whole.
		{"tree-per-rack", spec(TopoTree, func(s *ClusterSpec) { s.Workers, s.PerRack = 4, netsim.MaxHostsPerSwitch }),
			func(s *ClusterSpec) { s.PerRack++ }, "at most 127"},
		{"tree-one-rack", spec(TopoTree, func(s *ClusterSpec) { s.Workers = netsim.MaxHostsPerSwitch }),
			func(s *ClusterSpec) { s.Workers++ }, "at most 127"},
		{"tree-racks", spec(TopoTree, func(s *ClusterSpec) { s.Workers, s.PerRack = 2*netsim.MaxRacks, 2 }),
			func(s *ClusterSpec) { s.Workers++ }, "at most 253"},
		{"3tier-hosts-per-tor", spec(TopoThreeTier, func(s *ClusterSpec) { s.AGGs, s.ToRsPerAGG, s.HostsPerToR = 1, 1, netsim.MaxHostsPerSwitch }),
			func(s *ClusterSpec) { s.HostsPerToR++ }, "at most 127"},
		{"3tier-tors", spec(TopoThreeTier, func(s *ClusterSpec) { s.AGGs, s.ToRsPerAGG, s.HostsPerToR = 2, netsim.MaxThreeTierToRs/2, 1 }),
			func(s *ClusterSpec) { s.ToRsPerAGG++ }, "at most 222 ToRs"},
		{"3tier-aggs", spec(TopoThreeTier, func(s *ClusterSpec) { s.AGGs, s.ToRsPerAGG, s.HostsPerToR = netsim.MaxThreeTierToRs, 1, 1 }),
			func(s *ClusterSpec) { s.AGGs++ }, "at most 222 ToRs"},
		{"fattree-k", spec(TopoFatTree, func(s *ClusterSpec) { s.KAry, s.HostsPerEdge = netsim.MaxFatTreeK, 1 }),
			func(s *ClusterSpec) { s.KAry += 2 }, "k <= 254"},
		{"fattree-hosts-per-edge", spec(TopoFatTree, func(s *ClusterSpec) { s.KAry, s.HostsPerEdge = 2, netsim.MaxFatTreeHostsPerEdge }),
			func(s *ClusterSpec) { s.HostsPerEdge++ }, "254 hosts per edge"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.at.Validate(); err != nil {
				t.Fatalf("rejected at the bound: %v", err)
			}
			spec := tc.at
			tc.past(&spec)
			if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("one past the bound: want an error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// Validate is the whole support matrix: any spec it accepts, Build
// constructs without panicking. The sweep crosses every topology and
// mode (plus an unknown value of each) with zero, odd and valid shape
// fields, shard counts inside and outside the range, and every scheme.
func TestValidateAcceptedSpecsBuild(t *testing.T) {
	accepted := map[Mode]int{}
	for _, topo := range []Topology{TopoStar, TopoTree, TopoThreeTier, TopoFatTree, Topology(9)} {
		for _, mode := range []Mode{ModeISW, ModePS, ModeAsyncPS, ModeAllReduce, Mode(9)} {
			for _, n := range []int{0, 1, 3} {
				for _, shards := range []int{-1, 0, 2, maxPSShards + 1} {
					for _, scheme := range protocol.Compressions() {
						for _, floats := range []int{0, 800} {
							spec := ClusterSpec{Topology: topo, Mode: mode, Workers: n, PerRack: 2,
								AGGs: n, ToRsPerAGG: 1, HostsPerToR: 2, KAry: n + 1, HostsPerEdge: n,
								ModelFloats: floats, Shards: shards, Compression: scheme}
							if spec.Validate() != nil {
								continue
							}
							accepted[mode]++
							func() {
								k := sim.NewKernel()
								defer k.Shutdown()
								defer func() {
									if r := recover(); r != nil {
										t.Errorf("Validate accepted %+v but Build panicked: %v", spec, r)
									}
								}()
								if c := Build(k, spec); len(c.Workers()) == 0 {
									t.Errorf("Build(%+v) has no workers", spec)
								}
							}()
						}
					}
				}
			}
		}
	}
	for _, mode := range []Mode{ModeISW, ModePS, ModeAsyncPS, ModeAllReduce} {
		if accepted[mode] == 0 {
			t.Errorf("sweep accepted no %v spec", mode)
		}
	}
}

// The scheme may come from the ISW config instead of the spec field; the
// support matrix still applies.
func TestValidateISWConfigScheme(t *testing.T) {
	cfg := DefaultISWConfig()
	cfg.Compression = protocol.CompInt32Block
	spec := ClusterSpec{Topology: TopoStar, Mode: ModeISW, Workers: 4,
		ModelFloats: 100, ISW: &cfg}
	if err := spec.Validate(); err != nil {
		t.Fatalf("config-carried scheme rejected: %v", err)
	}
}
