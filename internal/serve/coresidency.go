package serve

import (
	"fmt"
	"time"

	"iswitch/internal/multijob"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

// Co-residency: inference tenants and a gradient-training job sharing
// one multi-tenant switch fabric. The training job's rack straddles the
// replicas' rack, so its per-round gradient bursts (partials up,
// broadcasts down) and the inference request/response path contend for
// the same oversubscribed ToR↔root link. Three cells on identical
// topology and seeds:
//
//	off  — inference only: the unimpeded latency baseline.
//	fifo — plus the training job under FIFO admission, no shaping: each
//	       training round parks a full model's worth of back-to-back
//	       frames in the contended port FIFOs, and inference requests
//	       queue behind them (head-of-line p99 blowup).
//	fair — same tenants under WeightedFair admission with per-job
//	       egress policing on the contended link, a deliberately small
//	       burst: the port backlog a training round can build is capped
//	       at the bucket burst, so inference head-of-line delay is
//	       bounded; the training frames the policer refuses are
//	       recovered by the reliability layer (Help → shadow re-serve /
//	       re-gather), which shows up as train-round inflation — the
//	       measured price of isolation. Compliant inference traffic
//	       stays far inside its own share and must never be policed.
type CoResConfig struct {
	// Dims is the served policy; Rate the aggregate offered load
	// (req/s) over the generators; Duration the emission window.
	Dims     []int
	Rate     float64
	Duration time.Duration
	Seed     int64
	Rep      ReplicaConfig

	// TrainFloats / TrainIters size the co-resident gradient job.
	TrainFloats int
	TrainIters  int
	// UplinkBps oversubscribes the ToR↔root links (edge stays 10GbE).
	UplinkBps float64
	// TrainShare / TrainBurstBytes shape the training tenant on the
	// contended link in the fair cell; ServeShare / ServeBurstBytes
	// shape the inference tenant (generous: compliance means zero
	// policed frames).
	TrainShare, ServeShare           float64
	TrainBurstBytes, ServeBurstBytes float64
}

// ServeJob is the JobID tagging inference traffic in the co-residency
// cells (the training job is admitted first and gets JobID 1).
const ServeJob = protocol.JobID(1000)

func (c CoResConfig) withDefaults() CoResConfig {
	if len(c.Dims) == 0 {
		c.Dims = []int{16, 32, 32, 4}
	}
	if c.Rate <= 0 {
		c.Rate = 150_000
	}
	if c.Duration <= 0 {
		c.Duration = 4 * time.Millisecond
	}
	if c.TrainFloats <= 0 {
		c.TrainFloats = 20_000 // 80 KB: wire-bound rounds
	}
	if c.TrainIters <= 0 {
		c.TrainIters = 10
	}
	if c.UplinkBps <= 0 {
		c.UplinkBps = 2.5e9
	}
	if c.TrainShare <= 0 {
		c.TrainShare = 0.9
	}
	if c.ServeShare <= 0 {
		c.ServeShare = 0.5
	}
	if c.TrainBurstBytes <= 0 {
		c.TrainBurstBytes = 16 << 10
	}
	if c.ServeBurstBytes <= 0 {
		c.ServeBurstBytes = 16 << 10
	}
	return c
}

// coResWorkload is the wire-bound training tenant (small local compute,
// 80 KB gradients by default: uplink serialization dominates the
// round). ModelBytes is set so perfmodel.ExpectedSyncRound — and the
// recovery timeout derived from it — sees the true gradient size.
func coResWorkload(floats int) perfmodel.Workload {
	return perfmodel.Workload{
		Name:         "wire",
		ModelBytes:   4 * floats,
		LocalCompute: 100 * time.Microsecond,
		WeightUpdate: 20 * time.Microsecond,
	}
}

// CoResCell is one cell's outcome.
type CoResCell struct {
	Label string
	Serve Metrics
	// TrainRound is the training job's mean round time (0 in off).
	TrainRound time.Duration
	// TrainPoliced / ServePoliced count frames the contended link's
	// egress policers refused, by tenant.
	TrainPoliced, ServePoliced uint64
}

// CoResResult bundles the three cells.
type CoResResult struct {
	Cfg             CoResConfig
	Off, FIFO, Fair CoResCell
}

// runCoResCell runs one cell. withTrain adds the gradient job; policed
// additionally selects WeightedFair admission and arms the contended
// link's per-job egress policers.
func runCoResCell(cfg CoResConfig, label string, withTrain, policed bool) CoResCell {
	k := sim.NewKernel()
	fabCfg := multijob.FabricConfig{}
	if policed {
		fabCfg.Admission = multijob.WeightedFair(0)
	}
	uplink := netsim.TenGbE()
	uplink.BitsPerSecond = cfg.UplinkBps
	// 3 racks of 4: training workers on hosts 0–5 (racks 0 and 1),
	// replicas on 6–7 (rack 1, beside workers 4–5), generators on 8–9
	// (rack 2) — requests and responses cross the same ToR1↔root link
	// as rack 1's gradient partials and broadcasts.
	f := multijob.NewFabric(k, switchnet.BuildTreeN(k, 12, 4, netsim.TenGbE(), uplink), fabCfg)

	genCfg := GenConfig{Rate: cfg.Rate, Arrival: ArrivalPoisson,
		Duration: cfg.Duration, Seed: cfg.Seed + 101,
		Select: SelectLeastOutstanding, Job: ServeJob}
	repCfg := cfg.Rep
	repCfg.Job = ServeJob
	replicas, gens := deployFleet(k, f.Hosts[6:8], f.Hosts[8:10],
		cfg.Dims, cfg.Seed, repCfg, genCfg)

	wl := coResWorkload(cfg.TrainFloats)
	const trainJob = protocol.JobID(1)
	var up *netsim.Port
	if policed {
		// Switches order is [root, tor0, tor1, tor2]; the contended
		// link is ToR1↔root, both directions (partials + responses up,
		// broadcasts + requests down).
		root, tor1 := 0, 2
		up = f.Switches[tor1].Uplink()
		for _, dir := range []struct {
			sw   int
			port *netsim.Port
		}{{tor1, up}, {root, up.Peer()}} {
			f.Switches[dir.sw].LimitJobEgressOn(dir.port, trainJob,
				cfg.TrainShare, cfg.TrainBurstBytes)
			f.Switches[dir.sw].LimitJobEgressOn(dir.port, ServeJob,
				cfg.ServeShare, cfg.ServeBurstBytes)
		}
	}

	cell := CoResCell{Label: label}
	if withTrain {
		spec := multijob.JobSpec{
			Name: "train", Workload: wl, Workers: 6,
			Iterations:  cfg.TrainIters,
			ModelFloats: cfg.TrainFloats, Weight: 1,
			// Policed drops ride the loss-recovery path; the timeout
			// also arms switch dedup so retransmissions stay idempotent.
			RecoveryTimeout: 2 * perfmodel.ExpectedSyncRound(wl, cfg.UplinkBps),
		}
		res, err := multijob.Run(f, []multijob.JobSpec{spec})
		if err != nil {
			panic(fmt.Sprintf("serve: co-residency cell %s: %v", label, err))
		}
		cell.TrainRound = res[0].MeanRound
	} else {
		k.Run()
		k.Shutdown()
	}
	cell.Serve = collect(cfg.Rate, replicas, gens)
	if policed {
		for _, pp := range []*netsim.Port{up, up.Peer()} {
			for _, is := range f.Switches {
				if sh := is.ShaperOn(pp); sh != nil {
					cell.TrainPoliced += sh.PolicedByJob[uint16(trainJob)]
					cell.ServePoliced += sh.PolicedByJob[uint16(ServeJob)]
				}
			}
		}
	}
	return cell
}

// RunCoResidency runs the three co-residency cells on identical
// topology and seeds. Deterministic for a given config.
func RunCoResidency(cfg CoResConfig) CoResResult {
	cfg = cfg.withDefaults()
	return CoResResult{
		Cfg:  cfg,
		Off:  runCoResCell(cfg, "off", false, false),
		FIFO: runCoResCell(cfg, "fifo", true, false),
		Fair: runCoResCell(cfg, "fair", true, true),
	}
}
