package experiments

import (
	"fmt"
	"strings"
	"time"

	"iswitch/internal/multijob"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

// Fairness isolation experiment: an adversarial tenant floods a shared
// iSwitch rack while compliant training jobs run beside it. Three
// cells on the same two-rack fabric (racks of 4 on a 10GbE uplink):
//
//	off   — compliant tenants only (a, b in rack 0; c in rack 1): the
//	        unimpeded baseline.
//	raw   — plus the adversary (rack 1), FIFO admission, no shaping:
//	        the flood owns rack 1's uplink and job c crawls.
//	fair  — same tenants under weighted-fair admission with per-job
//	        egress policing: every weighted job draws frames from a
//	        token bucket refilling at its weight share of each contended
//	        port, and over-rate frames drop at egress, so the
//	        adversary's flood is clamped and c's throughput and round
//	        time return to within a fixed floor of the unimpeded
//	        baseline. Compliant tenants burst inside their buckets and
//	        are never policed.
//
// The tenants are deliberately wire-bound (small local compute, ~80 KB
// gradients) so rack uplinks are genuinely oversubscribed and the
// shares the gates check are bandwidth shares, not compute artifacts.

const (
	fairFloats   = 20000 // 80 KB gradient: serialization dominates
	fairIters    = 12
	fairWorkers  = 2
	fairPerRack  = 4
	fairAdvMs    = 10 // adversary flood duration, ms (spans the tenants' runs)
	fairJainMin  = 0.90
	fairShareTol = 0.10
	// fairRoundCap bounds fair-cell compliant round inflation over the
	// unimpeded cell (the "fixed floor" of the isolation claim).
	fairRoundCap = 1.5
	// fairUplinkBps oversubscribes the rack uplinks (hosts have 10GbE
	// NICs): without it the adversary's flood fits beside the tenants
	// and there is nothing to isolate.
	fairUplinkBps = 2.5e9
)

// fairWorkload is the wire-bound compliant tenant.
func fairWorkload() perfmodel.Workload {
	return perfmodel.Workload{
		Name:         "wire",
		LocalCompute: 100 * time.Microsecond,
		WeightUpdate: 20 * time.Microsecond,
	}
}

// FairnessCell is one cell's outcome.
type FairnessCell struct {
	Label   string
	Results []*multijob.JobResult
	Summary multijob.Summary

	// CompliantJain is Jain's index over the compliant jobs' achieved
	// wire throughput (adversary excluded).
	CompliantJain float64
	// Rack0Share is job a's share of the bytes the rack-0 uplink
	// carried for {a, b} (two identical co-active tenants: fair = 0.5).
	Rack0Share float64
	// UplinkTputBps maps job name to its achieved transmit throughput
	// on its rack's uplink port (bytes over the job's active window).
	UplinkTputBps map[string]float64
	// RoundMs maps job name to its mean round time.
	RoundMs map[string]float64
	// CompliantPoliced / AdvPoliced count frames the egress policers
	// refused, split by tenant class. The isolation gate requires the
	// compliant count to be zero: weight enforcement must never tax a
	// tenant that stays inside its share.
	CompliantPoliced, AdvPoliced uint64
}

func fairnessSpecs(withAdv, weighted bool) []multijob.JobSpec {
	wl := fairWorkload()
	weight := func() float64 {
		if weighted {
			return 1
		}
		return 0
	}
	specs := []multijob.JobSpec{
		{Name: "a", Workload: wl, Workers: fairWorkers, Mode: multijob.ModeSync,
			Iterations: fairIters, ModelFloats: fairFloats, Weight: weight()},
		{Name: "b", Workload: wl, Workers: fairWorkers, Mode: multijob.ModeSync,
			Iterations: fairIters, ModelFloats: fairFloats, Weight: weight()},
		{Name: "c", Workload: wl, Workers: fairWorkers, Mode: multijob.ModeSync,
			Iterations: fairIters, ModelFloats: fairFloats, Weight: weight()},
	}
	if withAdv {
		specs = append(specs, multijob.JobSpec{
			Name: "adv", Workload: wl, Workers: fairWorkers,
			ModelFloats: fairFloats, Weight: weight(),
			Adversary: &multijob.AdversaryPlan{Duration: fairAdvMs * time.Millisecond},
		})
	}
	return specs
}

func fairnessCell(label string, withAdv, weighted bool) FairnessCell {
	cfg := multijob.FabricConfig{}
	if weighted {
		cfg.Admission = multijob.WeightedFair(0)
	}
	k := sim.NewKernel()
	uplink := netsim.TenGbE()
	uplink.BitsPerSecond = fairUplinkBps
	// Hosts 0..3 under ToR0 (jobs a, b), 4..7 under ToR1 (c, adv).
	f := multijob.NewFabric(k, switchnet.BuildTreeN(k, 2*fairPerRack, fairPerRack,
		netsim.TenGbE(), uplink), cfg)
	res, err := multijob.Run(f, fairnessSpecs(withAdv, weighted))
	if err != nil {
		panic(fmt.Sprintf("experiments: fairness cell %s: %v", label, err))
	}
	cell := FairnessCell{
		Label: label, Results: res, Summary: multijob.Summarize(res),
		CompliantJain: multijob.JainOver(res, func(r *multijob.JobResult) bool { return !r.Adversary }),
		UplinkTputBps: make(map[string]float64),
		RoundMs:       make(map[string]float64),
	}
	// Switches[0] is the root, [1] ToR0, [2] ToR1 (NewTreeFabric order).
	up0, up1 := f.Switches[1].Uplink(), f.Switches[2].Uplink() // [root, ToR0, ToR1]
	byName := make(map[string]*multijob.JobResult)
	tx := func(p *netsim.Port, r *multijob.JobResult) uint64 { return p.TxBytesByJob(r.Job) }
	for _, r := range res {
		byName[r.Name] = r
		up := up0
		if r.Name == "c" || r.Name == "adv" {
			up = up1
		}
		if active := (r.Finished - r.Started).Seconds(); active > 0 {
			cell.UplinkTputBps[r.Name] = float64(tx(up, r)) * 8 / active
		}
		cell.RoundMs[r.Name] = float64(r.MeanRound) / 1e6
	}
	a, b := tx(up0, byName["a"]), tx(up0, byName["b"])
	if a+b > 0 {
		cell.Rack0Share = float64(a) / float64(a+b)
	}
	for _, is := range f.Switches {
		for _, p := range is.Switch().Ports() {
			sh := is.ShaperOn(p)
			if sh == nil {
				continue
			}
			for _, r := range res {
				n := sh.PolicedByJob[uint16(r.Job)]
				if r.Adversary {
					cell.AdvPoliced += n
				} else {
					cell.CompliantPoliced += n
				}
			}
		}
	}
	return cell
}

// FairnessCells runs the three isolation cells (the experiment text
// and the gate tests both consume them).
func FairnessCells() (off, raw, fair FairnessCell) {
	cells := parMap(3, func(i int) FairnessCell {
		switch i {
		case 0:
			return fairnessCell("off", false, false)
		case 1:
			return fairnessCell("raw", true, false)
		default:
			return fairnessCell("fair", true, true)
		}
	})
	return cells[0], cells[1], cells[2]
}

// Fairness runs and renders the adversarial-isolation experiment.
func Fairness() Result { return renderFairness(FairnessCells()) }

func renderFairness(off, raw, fair FairnessCell) Result {
	var b strings.Builder
	fmt.Fprintf(&b, "Adversarial multi-tenant isolation: racks of %d on 10GbE uplinks;\n", fairPerRack)
	fmt.Fprintf(&b, "compliant jobs a,b (rack 0) and c (rack 1), open-loop flood adversary\n")
	fmt.Fprintf(&b, "beside c in rack 1. All jobs weight 1 in the fair cell.\n\n")
	fmt.Fprintf(&b, "%-5s %9s %11s %11s %12s %12s %9s\n",
		"cell", "cJain", "a:b share", "c round(ms)", "c up(Gb/s)", "adv up(Gb/s)", "policed")
	for _, c := range []FairnessCell{off, raw, fair} {
		fmt.Fprintf(&b, "%-5s %9.3f %11.3f %11.3f %12.3f %12.3f %9d\n",
			c.Label, c.CompliantJain, c.Rack0Share, c.RoundMs["c"],
			c.UplinkTputBps["c"]/1e9, c.UplinkTputBps["adv"]/1e9, c.AdvPoliced)
	}
	fmt.Fprintf(&b, "\nraw: the flood takes rack 1's uplink and c's round inflates %.1fx;\n",
		raw.RoundMs["c"]/off.RoundMs["c"])
	fmt.Fprintf(&b, "fair: egress policing clamps the adversary to its weight share\n")
	fmt.Fprintf(&b, "(%d flood frames dropped, %d compliant frames dropped), compliant\n",
		fair.AdvPoliced, fair.CompliantPoliced)
	fmt.Fprintf(&b, "Jain >= %.2f and c's round within %.1fx of the unimpeded cell\n",
		fairJainMin, fairRoundCap)
	fmt.Fprintf(&b, "(gated in CI; the adversary cannot move a compliant tenant past those floors).\n")
	return Result{ID: "fair",
		Title: "Weighted-fair isolation under an adversarial tenant", Text: b.String()}
}
